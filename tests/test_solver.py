import importlib
import math

import numpy as np
import pytest

from battery import stress_links
from isac_pareto.closed_form import asymptotic_allocation, crb_min_point, waterfill
from isac_pareto.metrics import rate_from_powers, trace_budget
from isac_pareto.scenario import ChannelMatrix, Scenario, load_fixture
from isac_pareto.solver import (
    InactiveChannelError,
    _power_map_lanes,
    cubic_stationary_root,
    feasibility_check,
    inner_allocation,
    sensing_power,
    solve_p1,
    stationarity_residual,
)

solver_module = importlib.import_module("isac_pareto.solver")

INV_LN2 = 1.0 / math.log(2.0)


def _bisect_root(g, mu, v):
    lo, hi = 0.0, 1.0
    while stationarity_residual(hi, g, mu, v) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if stationarity_residual(mid, g, mu, v) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_feasibility_boundary_and_below():
    assert feasibility_check(4, 8.0, 2.0)
    assert not feasibility_check(4, 8.0, 1.9)


def test_feasibility_crbmin_maps_to_boundary():
    gt = trace_budget(0.0048, 1.0, 12, 200)
    assert feasibility_check(8, 800.0, gt)


def test_cubic_waterfilling_degenerate_case():
    assert cubic_stationary_root(2.0, 0.0, INV_LN2) == pytest.approx(0.5, abs=1e-14)


def test_cubic_inactive_channel_signalled():
    with pytest.raises(InactiveChannelError):
        cubic_stationary_root(0.1, 0.0, 10.0)


def test_cubic_hand_instance_matches_bisection():
    # frozen from the independent bisection oracle
    expected = 1.5267188046546143
    root = cubic_stationary_root(1.0, 1.0, 1.0)
    assert root == pytest.approx(expected, abs=1e-10)
    assert abs(stationarity_residual(root, 1.0, 1.0, 1.0)) <= 1e-12


def test_sensing_power_closed_form():
    assert sensing_power(4.0, 1.0) == pytest.approx(2.0, abs=1e-15)


def test_cubic_vs_bisection_randomized(rng):
    neg_disc = 0
    for _ in range(500):
        g = 10.0 ** rng.uniform(-3, 3)
        mu = 10.0 ** rng.uniform(-6, 2)
        v = 10.0 ** rng.uniform(-2, 2)
        b = v / g - INV_LN2
        p_dep = -mu / v - b * b / (3 * v * v)
        q_dep = -mu / (g * v) - b * (-mu) / (3 * v * v) + 2 * b ** 3 / (27 * v ** 3)
        if q_dep * q_dep / 4 + p_dep ** 3 / 27 < 0:
            neg_disc += 1
        root = cubic_stationary_root(g, mu, v)
        ref = _bisect_root(g, mu, v)
        assert abs(root - ref) <= 1e-10 * max(1.0, ref)
        assert abs(stationarity_residual(root, g, mu, v)) <= 1e-10
    assert neg_disc > 50


def _scaled_residual(p, g, mu, v):
    comm = INV_LN2 * g / (1.0 + g * p)
    sens = mu / (p * p)
    return abs(comm + sens - v) / max(v, comm, sens)


def test_cubic_weak_channel_tiny_mu_matches_bisection():
    # cancellation in the radical branch gave 9.1e-14 with residual 1.2e11 here
    g, mu, v = 0.0187, 1e-15, 9.33
    root = cubic_stationary_root(g, mu, v)
    ref = _bisect_root(g, mu, v)
    assert ref == pytest.approx(1.0368e-8, rel=1e-4)
    assert abs(root - ref) <= 1e-10 * ref
    assert _scaled_residual(root, g, mu, v) <= 1e-12


def test_cubic_log_uniform_sweep_vs_bisection():
    rng = np.random.default_rng(20260501)
    n = 5000
    gs = 10.0 ** rng.uniform(-6, 3, n)
    mus = 10.0 ** rng.uniform(-18, 2, n)
    vs = 10.0 ** rng.uniform(-2, 6, n)
    hi = (INV_LN2 + np.sqrt(INV_LN2 ** 2 + 4 * mus * vs)) / (2 * vs)
    lo = np.zeros(n)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        pos = INV_LN2 * gs / (1 + gs * mid) + mus / (mid * mid) - vs > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    ref = 0.5 * (lo + hi)
    for g, mu, v, pr in zip(gs, mus, vs, ref):
        g, mu, v = float(g), float(mu), float(v)
        root = cubic_stationary_root(g, mu, v)
        assert abs(root - pr) <= 1e-10 * pr, (g, mu, v)
        assert _scaled_residual(root, g, mu, v) <= 1e-12, (g, mu, v)
        # the lockstep power map, one lane per point, finds the same root
        powers = _power_map_lanes(np.array([g]), 0, np.array([mu]), np.array([v]))[0]
        assert powers[0, 0] == root, (g, mu, v)


def test_inner_allocation_reduces_to_waterfill_when_mu_zero():
    lam2 = np.array([2.0, 1.0])
    v = 0.5
    p = inner_allocation(lam2, 2, 1.0, 0.0, v)
    wf_level = INV_LN2 / v
    wf = waterfill(lam2, 1.0, float(np.maximum(wf_level - 1.0 / lam2, 0).sum()))
    np.testing.assert_allclose(p, wf.p, atol=1e-12)


def test_inner_allocation_hand_instance():
    p = inner_allocation(np.array([1.0]), 2, 1.0, 1.0, 1.0)
    np.testing.assert_allclose(p, [1.5267188046546143, 1.0], atol=1e-9)


def test_inner_allocation_equal_duals_sensing_power_one():
    p = inner_allocation(np.array([1.0, 0.5]), 4, 1.0, 0.7, 0.7)
    np.testing.assert_allclose(p[2:], 1.0, atol=1e-14)


def test_inner_allocation_requires_positive_mu_when_rank_deficient():
    with pytest.raises(ValueError):
        inner_allocation(np.array([1.0]), 2, 1.0, 0.0, 1.0)


def test_solve_boundary_budget_gives_uniform():
    H = ChannelMatrix.from_matrix(np.diag([2.0, 1.5, 1.0, 0.5]))
    sc = Scenario(M=4, Nc=4, Ns=12, L=200, P=8.0)
    gamma = 2.0 * sc.sigma_s2 * sc.Ns / sc.L  # trace-inverse budget of exactly 2
    rep = solve_p1(H, sc, gamma)
    assert rep.status == "optimal"
    np.testing.assert_allclose(rep.allocation.p, 2.0, atol=1e-12)
    expect = rate_from_powers(H.lambdas2, rep.allocation.p, 1.0)
    assert rep.achieved.rate == pytest.approx(expect, abs=1e-10)


def test_solve_infeasible_budget():
    H = ChannelMatrix.from_matrix(np.diag([2.0, 1.0]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=8.0)
    rep = solve_p1(H, sc, gamma_tilde=0.4)
    assert rep.status == "infeasible"
    assert rep.allocation is None


def test_solve_rank_zero_channel_rejected():
    H = ChannelMatrix.from_matrix(np.zeros((2, 2)))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=8.0)
    with pytest.raises(ValueError, match="rank 0"):
        solve_p1(H, sc, gamma_tilde=2.0)


def test_solve_slack_budget_recovers_waterfilling(scenario2):
    H, sc = scenario2
    wf = waterfill(H.lambdas2, sc.sigma_c2, sc.P, m=sc.M)
    gt_wf = float((1.0 / wf.p).sum())
    rep = solve_p1(H, sc, gamma_tilde=2.0 * gt_wf)
    assert rep.status == "optimal"
    assert rep.allocation.mu == 0.0
    np.testing.assert_allclose(rep.allocation.p, wf.p, atol=1e-6)
    assert rep.achieved.rate == pytest.approx(
        rate_from_powers(H.lambdas2, wf.p, sc.sigma_c2), abs=1e-8
    )


def test_solve_interior_certificates(scenario1):
    H, sc = scenario1
    rep = solve_p1(H, sc, 0.0152)
    assert rep.status == "optimal"
    a = rep.allocation
    gt = rep.gamma_tilde
    assert a.p.sum() == pytest.approx(sc.P, rel=1e-9)
    assert (1.0 / a.p).sum() == pytest.approx(gt, rel=1e-9)
    assert a.kkt_residual <= 1e-9
    assert a.duality_gap <= 1e-8
    # two dedicated sensing subchannels with identical power
    assert a.p[6] == pytest.approx(a.p[7], rel=1e-12)
    assert a.p[6] == pytest.approx(math.sqrt(a.mu / a.v), rel=1e-10)


def test_solve_ordering_invariant(scenario1):
    H, sc = scenario1
    for gamma in (0.006, 0.0152, 0.05, 0.2):
        rep = solve_p1(H, sc, gamma)
        assert rep.status == "optimal"
        p = rep.allocation.p
        assert np.all(np.diff(p) <= 1e-9 * max(1.0, p.max()))
        assert p[-1] > 0


def test_solve_rate_monotone_in_gamma(scenario1):
    H, sc = scenario1
    rates = []
    for gamma in np.geomspace(0.005, 0.3, 8):
        rep = solve_p1(H, sc, float(gamma))
        assert rep.status == "optimal"
        rates.append(rep.achieved.rate)
        assert rep.achieved.crb <= gamma * (1 + 1e-9)
    assert np.all(np.diff(rates) >= -1e-10)


def test_solve_matches_asymptotic_split(fixtures_dir):
    H = load_fixture(fixtures_dir / "prop4_rank6.csv")
    sc = Scenario(M=8, Nc=6, Ns=12, L=200, P=1e6, Kc=0.0, seed=39)
    rep = solve_p1(H, sc, 0.1)
    assert rep.status == "optimal"
    gt = rep.gamma_tilde
    ref = asymptotic_allocation(H.r, sc.M, sc.P, gt)
    np.testing.assert_allclose(rep.allocation.p, ref.p, rtol=1e-3)


def test_solve_iteration_limit_reported(monkeypatch):
    H = ChannelMatrix.from_matrix(np.diag([2.0, 1.0]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=2.0)
    monkeypatch.setattr(solver_module, "_MAX_DUAL_ITERS", 3)
    # water-filling has a trace-inverse load of 2.1333, so a budget of 2.05
    # makes the CRB constraint genuinely tight
    rep = solve_p1(H, sc, gamma_tilde=2.05)
    assert rep.status == "iteration_limit"


def test_stress_battery_every_solve_optimal():
    # 400 random links across ranks, Rician factors and 8 decades of power,
    # each at 8 thresholds from the equal-split boundary to a loose budget
    factors = (1 + 1e-9, 1 + 1e-6, 1.01, 1.5, 3.0, 30.0, 1e3, 1e6)
    failed = []
    for trial, (H, sc) in enumerate(stress_links(400)):
        _, lo = crb_min_point(H, sc)
        for f in factors:
            rep = solve_p1(H, sc, f * lo.crb)
            if rep.status != "optimal":
                failed.append((trial, f, rep.status))
    assert failed == []


def test_mu_positive_when_rank_deficient(scenario1):
    H, sc = scenario1
    for gamma in (0.01, 0.1, 0.4):
        rep = solve_p1(H, sc, gamma)
        assert rep.status == "optimal"
        assert rep.allocation.mu > 0
