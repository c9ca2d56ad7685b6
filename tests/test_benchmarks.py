import math

import numpy as np
import pytest

from isac_pareto.benchmarks import (
    best_at_crb,
    best_indices,
    power_split_ep,
    power_split_sem,
    time_switching,
)
from isac_pareto.closed_form import crb_min_point
from isac_pareto.metrics import (
    EIG_FLOOR_REL,
    CRPoint,
    assemble_covariance,
    crb_from_powers,
    crb_trace,
    rate,
)
from isac_pareto.scenario import ChannelMatrix, Scenario


def test_time_switching_endpoints_and_midpoint():
    # thresholds outside the two endpoint CRBs clip to the nearer endpoint
    hi = CRPoint(crb=0.4, rate=10.0)
    lo = CRPoint(crb=0.1, rate=6.0)
    crb, rt = time_switching(hi, lo, [0.05, 0.1, 0.25, 0.4, 0.5])
    assert crb.tolist()[:2] == [0.1, 0.1] and rt.tolist()[:2] == [6.0, 6.0]
    assert crb.tolist()[3:] == [0.4, 0.4] and rt.tolist()[3:] == [10.0, 10.0]
    assert crb[2] == pytest.approx(0.25)
    assert rt[2] == pytest.approx(8.0)
    # equal endpoint CRBs leave every threshold at the CRB-minimizing point
    crb, rt = time_switching(CRPoint(crb=0.1, rate=6.0), lo, [0.1, 0.2])
    assert crb.tolist() == [0.1, 0.1] and rt.tolist() == [6.0, 6.0]


def test_ep_full_rank_collapses_to_isotropic():
    H = ChannelMatrix.from_matrix(np.diag([2.0, 1.0]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=2.0)
    sweep = power_split_ep(H, sc)
    assert len(sweep.points) == 1
    _, pt_min = crb_min_point(H, sc)
    assert sweep.points[0].crb == pytest.approx(pt_min.crb, rel=1e-12)
    assert sweep.points[0].rate == pytest.approx(pt_min.rate, abs=1e-12)


def test_ep_uniform_beta_recovers_isotropic(scenario1):
    H, sc = scenario1
    sweep = power_split_ep(H, sc)
    _, pt_min = crb_min_point(H, sc)
    i = int(np.argmin(np.abs(sweep.betas - H.r / sc.M)))
    assert sweep.betas[i] == pytest.approx(H.r / sc.M, abs=1e-15)
    assert sweep.points[i].crb == pytest.approx(pt_min.crb, rel=1e-10)
    assert sweep.points[i].rate == pytest.approx(pt_min.rate, abs=1e-10)


def test_ep_all_power_to_comm_is_rank_deficient(scenario1):
    H, sc = scenario1
    sweep = power_split_ep(H, sc)
    assert sweep.betas[-1] == 1.0
    assert sweep.points[-1].crb == math.inf


def test_sem_all_power_on_one_mode_is_rank_deficient(scenario1):
    H, sc = scenario1
    sweep = power_split_sem(H, sc)
    assert sweep.betas[-1] == 1.0
    assert sweep.points[-1].crb == math.inf


def test_sem_uniform_beta_recovers_isotropic(scenario2):
    H, sc = scenario2
    sweep = power_split_sem(H, sc)
    _, pt_min = crb_min_point(H, sc)
    i = int(np.argmin(np.abs(sweep.betas - 1.0 / sc.M)))
    assert sweep.betas[i] == pytest.approx(1.0 / sc.M, abs=1e-15)
    assert sweep.points[i].crb == pytest.approx(pt_min.crb, rel=1e-10)
    assert sweep.points[i].rate == pytest.approx(pt_min.rate, abs=1e-10)


def test_sem_hand_computed_point():
    H = ChannelMatrix.from_matrix(np.diag([math.sqrt(2.0), 1.0]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=2.0)
    sweep = power_split_sem(H, sc)
    pt = sweep.points[list(sweep.betas).index(0.75)]
    assert pt.rate == pytest.approx(math.log2(4.0) + math.log2(1.5), abs=1e-12)
    assert pt.crb == pytest.approx((12 / 200) * (1 / 1.5 + 1 / 0.5), rel=1e-12)


def test_best_at_crb():
    pts = [CRPoint(crb=0.1, rate=1.0), CRPoint(crb=0.2, rate=3.0), CRPoint(crb=0.5, rate=4.0)]
    assert best_at_crb(pts, 0.3).rate == 3.0
    assert best_at_crb(pts, 0.05) is None


def _ep_powers(r, m, P, beta):
    p = np.empty(m)
    p[:r] = beta * P / r
    if m > r:
        p[r:] = (1.0 - beta) * P / (m - r)
    return p


def _sem_powers(r, m, P, beta):
    p = np.empty(m)
    p[0] = beta * P
    p[1:] = (1.0 - beta) * P / (m - 1)
    return p


def _covariance_path(H, sc, bench, powers):
    # the M x M path: assemble Q, then eigendecompose it for the CRB and
    # H Q H^H for the rate
    out = []
    for beta in bench.betas:
        Q = assemble_covariance(H.Vc, powers(H.r, sc.M, sc.P, beta)).Q
        out.append((crb_trace(Q, sc.sigma_s2, sc.Ns, sc.L), rate(Q, H.H, sc.sigma_c2)))
    return out


SPLITS = pytest.mark.parametrize("maker,powers", [(power_split_ep, _ep_powers),
                                                  (power_split_sem, _sem_powers)],
                                 ids=["ep", "sem"])


@pytest.mark.parametrize("case", ["scenario1", "scenario2"])
@SPLITS
def test_split_sweep_matches_per_beta_covariance_path(case, maker, powers, request):
    H, sc = request.getfixturevalue(case)
    bench = maker(H, sc)
    ref = _covariance_path(H, sc, bench, powers)
    assert len(bench.points) == len(ref) == bench.betas.size
    for beta, pt, (ref_crb, ref_rate) in zip(bench.betas, bench.points, ref):
        if math.isinf(ref_crb):
            assert pt.crb == math.inf, beta
        else:
            assert pt.crb == pytest.approx(ref_crb, rel=1e-10), beta
        assert pt.rate == pytest.approx(ref_rate, rel=1e-10, abs=1e-300), beta
    if bench.betas.size > 1:
        # beta = 0 and beta = 1 both leave a subchannel without power
        assert math.isinf(bench.points[0].crb) and math.isinf(bench.points[-1].crb)


@pytest.mark.parametrize("case", ["scenario1", "scenario2"])
@pytest.mark.parametrize("powers", [_ep_powers, _sem_powers], ids=["ep", "sem"])
def test_split_sweep_eigenvalue_floor_matches_covariance_path(case, powers, request):
    # split powers far below and well above the relative floor of the M x M
    # path: the closed form is infinite only at an exact zero power, and the
    # two agree wherever the eigenvalues of Q clear that floor; the M x M
    # path's rounding rules out a 1e-10 value check at the small powers
    H, sc = request.getfixturevalue(case)
    for beta in [0.0, 1e-13, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-13, 1.0]:
        p = powers(H.r, sc.M, sc.P, beta)
        closed = crb_from_powers(p, sc.sigma_s2, sc.Ns, sc.L)
        ref = crb_trace(assemble_covariance(H.Vc, p).Q, sc.sigma_s2, sc.Ns, sc.L)
        assert math.isinf(closed) == (p.min() == 0.0), beta
        if p.min() > EIG_FLOOR_REL * p.sum() / sc.M:
            assert closed == pytest.approx(ref, rel=1e-8), beta
        else:
            assert math.isinf(ref), beta


def _brute_force_best(points, limit, rtol=1e-12):
    feasible = [i for i, pt in enumerate(points) if pt.crb <= limit * (1.0 + rtol)]
    if not feasible:
        return None
    top = max(points[i].rate for i in feasible)
    return points[min(i for i in feasible if points[i].rate == top)]


def test_best_at_crb_batched_selection_matches_brute_force(rng):
    # few distinct values force tied rates, equal CRBs and exact duplicate
    # points (distinct objects, so the tie-break is checked by identity)
    crb_values = [0.1, 0.2, 0.35, 0.5, math.inf]
    rate_values = [0.0, 1.0, 2.5, 4.0]
    for _ in range(200):
        n = int(rng.integers(0, 25))
        points = [CRPoint(crb=float(rng.choice(crb_values)), rate=float(rng.choice(rate_values)))
                  for _ in range(n)]
        points += [CRPoint(crb=pt.crb, rate=pt.rate) for pt in points[: int(rng.integers(0, 4))]]
        rng.shuffle(points)
        limits = crb_values + [0.05, 0.3, 0.5 * (1.0 + 1e-13), 0.5 * (1.0 + 1e-11), 1e9]
        idx = best_indices([pt.crb for pt in points], [pt.rate for pt in points], limits)
        assert idx.size == len(limits)
        for limit, k in zip(limits, idx.tolist()):
            ref = _brute_force_best(points, limit)
            assert (points[k] if k >= 0 else None) is ref
            assert best_at_crb(points, limit) is ref
