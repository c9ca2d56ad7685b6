import math

import numpy as np
import pytest

from isac_pareto.closed_form import (
    asymptotic_allocation,
    crb_min_point,
    p0_threshold,
    rate_max_point,
    waterfill,
)
from isac_pareto.metrics import assemble_covariance, rate, rate_from_powers
from isac_pareto.scenario import ChannelMatrix, Scenario, load_fixture, rician_channel


def _water_level(wf):
    # the water level nu of a water-filling allocation, from v = 1/(nu ln 2)
    return 1.0 / (wf.v * math.log(2.0))


def test_waterfill_single_channel():
    wf = waterfill([1.0], 1.0, 3.0)
    np.testing.assert_allclose(wf.p, [3.0], atol=1e-12)
    assert rate_from_powers([1.0], wf.p, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_waterfill_two_channels_by_hand():
    wf = waterfill([2.0, 1.0], 1.0, 1.5)
    assert _water_level(wf) == pytest.approx(1.5, abs=1e-12)
    np.testing.assert_allclose(wf.p, [1.0, 0.5], atol=1e-12)
    assert rate_from_powers([2.0, 1.0], wf.p, 1.0) == pytest.approx(
        math.log2(3) + math.log2(1.5), abs=1e-12
    )


def test_waterfill_dries_weak_channel():
    wf = waterfill([4.0, 0.01], 1.0, 1.0)
    np.testing.assert_allclose(wf.p, [1.0, 0.0], atol=1e-12)
    assert _water_level(wf) == pytest.approx(1.25, abs=1e-12)


def test_waterfill_zero_pad():
    wf = waterfill([2.0, 1.0], 1.0, 1.5, m=4)
    assert wf.p.shape == (4,)
    np.testing.assert_allclose(wf.p[2:], 0.0)


def test_waterfill_rejects_bad_input():
    with pytest.raises(ValueError):
        waterfill([], 1.0, 1.0)
    with pytest.raises(ValueError):
        waterfill([1.0, 0.0], 1.0, 1.0)


def test_waterfill_kkt_and_beats_random(rng):
    # 30 random channels, then 6 whose noise floors sigma_c2/lambda^2 are
    # 1e16 to 1e20 times the power, against which the power used to be lost:
    # the powers came back all 0
    for trial in range(36):
        r = int(rng.integers(1, 8))
        lam2 = rng.uniform(0.05, 5.0, r)
        p_tot = float(rng.uniform(0.5, 20.0))
        s2 = float(rng.uniform(0.5, 2.0))
        if trial >= 30:
            s2 = 10.0 ** (16 + (trial - 30) % 3) * p_tot * float(lam2.max())
        wf = waterfill(lam2, s2, p_tot)
        nu = _water_level(wf)
        assert abs(wf.p.sum() - p_tot) <= 1e-10 * max(1.0, p_tot)
        for li, pi in zip(lam2, wf.p):
            if pi > 0:
                assert abs(nu - s2 / li - pi) <= 1e-10 * max(1.0, nu)
            else:
                assert nu <= s2 / li * (1 + 1e-12)
        best = rate_from_powers(lam2, wf.p, s2)
        w = rng.random((200, r))
        scale = rng.random((200, 1))
        rand_p = p_tot * scale * w / w.sum(axis=1, keepdims=True)
        rates = np.log1p(rand_p * lam2[None, :] / s2).sum(axis=1) / math.log(2)
        assert best >= rates.max() - 1e-12


def test_p0_threshold_equal_gains():
    assert p0_threshold([2.0, 2.0, 2.0], 1.0) == 0.0


def test_p0_threshold_hand_values():
    assert p0_threshold([4.0, 1.0], 1.0) == pytest.approx(0.75, abs=1e-15)
    assert p0_threshold([2.0, 2.0, 1.0], 1.0) == pytest.approx(1.0, abs=1e-15)


def test_p0_threshold_rejects_rank_deficient():
    with pytest.raises(ValueError):
        p0_threshold([1.0, 0.0], 1.0)


def test_rate_max_rank_deficient_channel_infinite_crb(scenario1):
    H, sc = scenario1
    _, pt = rate_max_point(H, sc)
    assert pt.crb == math.inf
    assert pt.rate > 0


def test_rate_max_low_power_infinite_crb(fixtures_dir):
    # full-rank 2x2 channel whose threshold power exceeds the budget
    H = load_fixture(fixtures_dir / "b_2x2_lowpower.csv")
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=10.0, Kc=0.0, seed=5)
    assert p0_threshold(H.lambdas2, sc.sigma_c2) > sc.P
    _, pt = rate_max_point(H, sc)
    assert pt.crb == math.inf


def test_rate_max_finite_crb_above_threshold():
    H = ChannelMatrix.from_matrix(np.diag([2.0, 1.0]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=2.0)
    assert p0_threshold(H.lambdas2, 1.0) == pytest.approx(0.75)
    _, pt = rate_max_point(H, sc)
    assert math.isfinite(pt.crb)
    wf = waterfill(H.lambdas2, 1.0, 2.0)
    assert np.all(wf.p > 0)
    # CRB from the water-filled powers matches the matrix metric
    expected = sc.sigma_s2 * sc.Ns / sc.L * (1.0 / wf.p).sum()
    assert pt.crb == pytest.approx(expected, rel=1e-12)


def test_rate_max_point_at_low_snr():
    # noise floors about 1e20 times P: water-filling used to lose the power
    # against them and report rate 0, below the equal split's 1.72e-20
    sc = Scenario(M=2, Nc=3, Ns=12, L=200, P=1.0, sigma_c2=1e20, seed=1)
    H = rician_channel(sc)
    wf, pt_max = rate_max_point(H, sc)
    _, pt_min = crb_min_point(H, sc)
    assert wf.p.sum() == pytest.approx(sc.P, rel=1e-15)
    assert pt_max.rate >= pt_min.rate > 0.0


def test_crb_min_scenario_values(scenario1, scenario2):
    H1, sc1 = scenario1
    _, pt1 = crb_min_point(H1, sc1)
    assert pt1.crb == pytest.approx(0.0048, abs=1e-15)
    H2, sc2 = scenario2
    _, pt2 = crb_min_point(H2, sc2)
    assert pt2.crb == pytest.approx(0.0027, abs=1e-15)


def test_crb_min_rate_formula():
    H = ChannelMatrix.from_matrix(np.diag([math.sqrt(3.0), 1.0]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=2.0)
    _, pt = crb_min_point(H, sc)
    assert pt.rate == pytest.approx(3.0, abs=1e-12)  # log2(4) + log2(2)


def test_endpoint_allocations(scenario1, scenario2):
    for H, sc in (scenario1, scenario2):
        uniform, _ = crb_min_point(H, sc)
        np.testing.assert_array_equal(uniform.p, np.full(sc.M, sc.P / sc.M))
        wf, _ = rate_max_point(H, sc)
        ref = waterfill(H.lambdas2, sc.sigma_c2, sc.P, m=sc.M)
        np.testing.assert_array_equal(wf.p, ref.p)
        assert (wf.mu, wf.v) == (ref.mu, ref.v)


def test_endpoint_rate_consistency(scenario2):
    H, sc = scenario2
    uniform, pt_min = crb_min_point(H, sc)
    Qs = assemble_covariance(H.Vc, uniform.p).Q
    assert pt_min.rate == pytest.approx(rate(Qs, H.H, sc.sigma_c2), abs=1e-10)
    wf, pt_max = rate_max_point(H, sc)
    Qc = assemble_covariance(H.Vc, wf.p).Q
    assert pt_max.rate == pytest.approx(rate(Qc, H.H, sc.sigma_c2), abs=1e-10)


def test_crb_min_optimality_random_sampling(rng):
    # tr(diag(p)^-1) >= M^2/P with equality only at the uniform point
    m, p_tot = 5, 7.0
    floor = m * m / p_tot
    for _ in range(300):
        w = rng.random(m) + 1e-3
        p = p_tot * w / w.sum()
        assert (1.0 / p).sum() >= floor - 1e-12
    uniform = np.full(m, p_tot / m)
    assert (1.0 / uniform).sum() == pytest.approx(floor, rel=1e-15)


def test_asymptotic_allocation_hand_values():
    # gamma = 0.1 with L=200, Ns=12, sigma_s2=1 gives a budget of 5/3
    gt = 200 * 0.1 / 12
    alloc = asymptotic_allocation(6, 8, 800.0, gt)
    np.testing.assert_allclose(alloc.p[6:], 1.2, rtol=1e-14)
    np.testing.assert_allclose(alloc.p[:6], (800.0 - 2.4) / 6, rtol=1e-14)
    # sensing part consumes the whole trace-inverse budget
    assert (1.0 / alloc.p[6:]).sum() == pytest.approx(gt, rel=1e-14)


def test_asymptotic_allocation_two_channel():
    alloc = asymptotic_allocation(1, 2, 10.0, 1.0)
    np.testing.assert_allclose(alloc.p, [9.0, 1.0], rtol=1e-14)


def test_asymptotic_allocation_large_budget_limit():
    alloc = asymptotic_allocation(1, 2, 10.0, 1e12)
    assert alloc.p[1] == pytest.approx(1e-12, rel=1e-12)
    assert alloc.p[0] == pytest.approx(10.0, rel=1e-10)


def test_asymptotic_allocation_rejects_bad_cases():
    with pytest.raises(ValueError):
        asymptotic_allocation(2, 2, 10.0, 1.0)
    with pytest.raises(ValueError):
        asymptotic_allocation(1, 2, 0.5, 1.0)
