import dataclasses
import importlib
import itertools
import math
import re

import numpy as np
import pytest

from battery import near_p0_links, stress_links
from isac_pareto.closed_form import asymptotic_allocation, crb_min_point, waterfill
from isac_pareto.metrics import (
    crb_from_powers,
    crb_from_trace_budget,
    rate_from_powers,
    trace_budget,
)
from isac_pareto.scenario import ChannelMatrix, Scenario, load_fixture, rician_channel
from isac_pareto.solver import (
    _lockstep_dual,
    _power_map,
    _power_map_lanes,
    _solve_budgets,
    _solve_dual,
    at_equal_split,
    cubic_stationary_root,
    feasibility_check,
    solve_p1,
    stationarity_residual,
)
from isac_pareto.sweep import sweep

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


def test_cubic_rejects_zero_mu():
    # at mu = 0 the power is the water-filling one, which waterfill gives
    with pytest.raises(ValueError, match="CRB multiplier"):
        cubic_stationary_root(2.0, 0.0, INV_LN2)


def test_cubic_hand_instance_matches_bisection():
    # frozen from the independent bisection oracle
    expected = 1.5267188046546143
    root = cubic_stationary_root(1.0, 1.0, 1.0)
    assert root == pytest.approx(expected, abs=1e-10)
    assert abs(stationarity_residual(root, 1.0, 1.0, 1.0)) <= 1e-12


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


def test_inner_allocation_hand_instance():
    p = _power_map([1.0], 2, 1.0, 1.0)[0]
    np.testing.assert_allclose(p, [1.5267188046546143, 1.0], atol=1e-9)
    # each sensing subchannel takes sqrt(mu / v)
    assert _power_map([1.0], 3, 4.0, 1.0)[0][1:] == pytest.approx([2.0, 2.0], abs=1e-15)


def test_inner_allocation_equal_duals_sensing_power_one():
    p = _power_map([1.0, 0.5], 4, 0.7, 0.7)[0]
    np.testing.assert_allclose(p[2:], 1.0, atol=1e-14)


def test_solve_boundary_budget_gives_uniform():
    H = ChannelMatrix.from_matrix(np.diag([2.0, 1.5, 1.0, 0.5]))
    sc = Scenario(M=4, Nc=4, Ns=12, L=200, P=8.0)
    gamma = 2.0 * sc.sigma_s2 * sc.Ns / sc.L  # trace-inverse budget of exactly 2
    rep = solve_p1(H, sc, gamma)
    assert rep.status == "optimal"
    np.testing.assert_allclose(rep.allocation.p, 2.0, atol=1e-12)
    expect = rate_from_powers(H.lambdas2, rep.allocation.p, 1.0)
    assert rep.achieved.rate == pytest.approx(expect, abs=1e-10)


def test_equal_split_band_edges():
    # the band of budgets that count as the minimum M^2/P is closed at both
    # edges; the float below its lower edge is infeasible, the float above
    # its upper edge is an ordinary feasible budget
    m, P = 3, 7.0
    c_min = m * m / P
    lo = c_min * (1.0 - solver_module._FEASIBILITY_RTOL)
    hi = c_min * (1.0 + solver_module._FEASIBILITY_RTOL)
    assert at_equal_split(m, P, lo) and at_equal_split(m, P, c_min) and at_equal_split(m, P, hi)
    below, above = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
    assert not at_equal_split(m, P, below) and not at_equal_split(m, P, above)
    assert feasibility_check(m, P, lo) and not feasibility_check(m, P, below)
    assert feasibility_check(m, P, above)


def test_solve_infeasible_budget():
    H = ChannelMatrix.from_matrix(np.diag([2.0, 1.0]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=8.0)
    rep = solve_p1(H, sc, crb_from_trace_budget(0.4, sc.sigma_s2, sc.Ns, sc.L))
    assert rep.status == "infeasible"
    assert rep.allocation is None


def test_solve_rank_zero_channel_rejected():
    H = ChannelMatrix.from_matrix(np.zeros((2, 2)))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=8.0)
    with pytest.raises(ValueError, match="rank 0"):
        solve_p1(H, sc, crb_from_trace_budget(2.0, sc.sigma_s2, sc.Ns, sc.L))


@pytest.mark.parametrize("preset", ["scenario1", "scenario2"])
def test_solve_non_finite_budgets(preset, request):
    # a NaN budget is an error; so is an infinite one on a rank-deficient
    # channel, while a full-rank channel water-fills; a finite threshold
    # whose trace budget overflows is an infinite budget
    H, sc = request.getfixturevalue(preset)
    with pytest.raises(ValueError, match="gamma is NaN"):
        solve_p1(H, sc, math.nan)
    for gamma in (math.inf, 1e307):
        if H.r < sc.M:
            with pytest.raises(ValueError, match=re.escape(f"gamma = {gamma} leaves the CRB unbounded")):
                solve_p1(H, sc, gamma)
        else:
            rep = solve_p1(H, sc, gamma)
            assert rep.status == "optimal"
            assert rep.allocation.mu == 0.0
            np.testing.assert_array_equal(rep.allocation.p,
                                          waterfill(H.lambdas2, sc.sigma_c2, sc.P, m=sc.M).p)


def test_solve_slack_budget_recovers_waterfilling(scenario2):
    H, sc = scenario2
    wf = waterfill(H.lambdas2, sc.sigma_c2, sc.P, m=sc.M)
    gt_wf = float((1.0 / wf.p).sum())
    rep = solve_p1(H, sc, crb_from_trace_budget(2.0 * gt_wf, sc.sigma_s2, sc.Ns, sc.L))
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
    rep = solve_p1(H, sc, crb_from_trace_budget(2.05, sc.sigma_s2, sc.Ns, sc.L))
    assert rep.status == "iteration_limit"


STRESS_FACTORS = (1 + 1e-9, 1 + 1e-6, 1.01, 1.5, 3.0, 30.0, 1e3, 1e6)


def test_stress_battery_every_solve_optimal(monkeypatch):
    # 400 random links across ranks, Rician factors and 8 decades of power,
    # each at 8 thresholds from the equal-split boundary to a loose budget:
    # one solve_p1 call per threshold (the scalar search), and all 8 of a
    # link as one batch (the lockstep search, which _solve_budgets is made
    # to take for so few budgets), which must certify every lane on its
    # own, near-boundary ones included.  A dual-path result is the one with
    # evaluations; a batch costs as many passes as its slowest lane takes
    # evaluations.
    monkeypatch.setattr(solver_module, "_LOCKSTEP_MIN_BUDGETS", 2)
    failed = []
    scalar_evals = []
    batch_passes = []
    for trial, (H, sc) in enumerate(stress_links(400)):
        _, lo = crb_min_point(H, sc)
        gts = []
        for f in STRESS_FACTORS:
            rep = solve_p1(H, sc, f * lo.crb)
            if rep.status != "optimal":
                failed.append((trial, f, rep.status))
            if rep.allocation is not None and rep.allocation.iterations > 0:
                scalar_evals.append(rep.allocation.iterations)
            gts.append(rep.gamma_tilde)
        lanes = []
        for f, (alloc, status) in zip(STRESS_FACTORS, _solve_budgets(H, sc, gts)[0]):
            if status != "optimal":
                failed.append((trial, f, "batch", status))
            if alloc is not None and alloc.iterations > 0:
                lanes.append(alloc.iterations)
        if lanes:
            batch_passes.append(max(lanes))
    assert failed == []
    assert len(scalar_evals) > 2600 and len(batch_passes) > 380
    assert np.mean(scalar_evals) <= 12.0
    assert np.mean(batch_passes) <= 14.0


def test_scalar_and_lockstep_searches_are_twins():
    # the two forms run the same iteration with the same arithmetic, except
    # that numpy's exp and log round differently from math's in the last
    # ulp; so each lane of a batch converges exactly when the scalar search
    # of its budget alone does, and on the stress links takes as many
    # evaluations.  On the near-p0 links a nearly dry subchannel makes the
    # search sensitive to those ulps, and the counts may differ there.
    lanes = {True: 0, False: 0}
    links = itertools.chain(zip(stress_links(60), itertools.repeat(True)),
                            zip(near_p0_links(), itertools.repeat(False)))
    for (H, sc), exact in links:
        _, lo = crb_min_point(H, sc)
        gts = [trace_budget(f * lo.crb, sc.sigma_s2, sc.Ns, sc.L) for f in STRESS_FACTORS]
        dual = [gt * sc.P for gt, (alloc, _) in zip(gts, _solve_budgets(H, sc, gts)[0])
                if alloc is not None and alloc.iterations > 0]
        if not dual:
            continue
        gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
        _, _, _, evals, converged = _lockstep_dual(gs, sc.M, dual)
        for j, gt in enumerate(dual):
            _, _, _, evals_j, converged_j = _solve_dual(gs, sc.M, gt)
            assert converged_j == converged[j], (sc, gt)
            assert evals_j == evals[j] or not exact, (sc, gt)
            lanes[exact] += 1
    assert lanes[True] > 300 and lanes[False] > 600


def test_lockstep_lanes_that_stop_apart_are_scalar_twins(monkeypatch):
    # one batch whose lanes stop on four different passes: one lane is
    # stopped on its 2nd evaluation by a non-finite power map, some converge
    # on passes 8 and 9, and the rest spend a lowered budget of 10
    # evaluations, converged or not.  The state arrays are compacted each
    # time lanes stop; every lane must still equal the same lane run alone,
    # bit for bit, and its scalar twin: the same evaluations and converged
    # flag, and mu, v and powers to rounding.  The scalar twin of the
    # poisoned lane is its search cut at 2 evaluations.
    H, sc = list(stress_links(2))[1]
    _, lo = crb_min_point(H, sc)
    gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
    gts = [trace_budget(f * lo.crb, sc.sigma_s2, sc.Ns, sc.L) * sc.P for f in STRESS_FACTORS]
    cap = 10
    monkeypatch.setattr(solver_module, "_MAX_DUAL_ITERS", cap)
    power_map = solver_module._power_map_lanes
    passes = []
    poison = {}  # pass -> (output, lane position, value)

    def poisoned(g, k, mu, v):
        out = power_map(g, k, mu, v)
        passes.append(mu.size)
        if len(passes) in poison:
            i, pos, value = poison[len(passes)]
            out[i][pos] = value
        return out

    monkeypatch.setattr(solver_module, "_power_map_lanes", poisoned)
    nan_s = {2: (1, 0, math.nan)}  # S of the first lane on the 2nd pass
    poison.update(nan_s)
    batch = _lockstep_dual(gs, sc.M, gts)
    _, _, _, evals, converged = batch
    assert evals.tolist() == [2, 9, 10, 8, 10, 10, 9, 8]
    assert not converged[0] and converged[1] and converged[3]
    assert not converged[2] and converged[4]  # both spent the budget
    assert passes == [8, 8, 7, 7, 7, 7, 7, 7, 5, 3]
    for j, gt in enumerate(gts):
        passes.clear()
        poison = nan_s if j == 0 else {}
        alone = _lockstep_dual(gs, sc.M, [gt])
        for got, want in zip(batch, alone):
            assert np.array_equal(got[j], want[0]), j
        monkeypatch.setattr(solver_module, "_MAX_DUAL_ITERS", 2 if j == 0 else cap)
        mu, v, p, evals_j, converged_j = _solve_dual(gs, sc.M, gt)
        monkeypatch.setattr(solver_module, "_MAX_DUAL_ITERS", cap)
        assert (evals_j, converged_j) == (evals[j], converged[j]), j
        for got, want in ((batch[0][j], mu), (batch[1][j], v)):
            assert got == pytest.approx(want, rel=1e-12), j
        assert batch[2][j] == pytest.approx(np.array(p), rel=1e-12), j

    # the first lane alone converges on its 10th pass, but not when a
    # derivative is non-finite there
    for poison, ok in (({}, True), ({10: (5, 0, math.inf)}, False)):  # C_mu
        passes.clear()
        _, _, _, evals, converged = _lockstep_dual(gs, sc.M, gts[:1])
        assert evals.tolist() == [10] and converged.tolist() == [ok]


@pytest.mark.parametrize("f", [1.01, 3.0, 1e3])
@pytest.mark.parametrize("P", [1e-150, 1e-140, 1e-130, 1e-120, 1e-110, 1e-100])
def test_tiny_power_still_solves(P, f):
    # the searches run in units of P, so a power near the (P/M)^2 floor of
    # Scenario solves like P = 1
    sc = Scenario(M=4, Nc=3, Ns=12, L=200, P=P, seed=1)
    H = rician_channel(sc)
    _, lo = crb_min_point(H, sc)
    rep = solve_p1(H, sc, f * lo.crb)
    assert rep.status == "optimal" and rep.allocation.mu > 0.0


def test_dual_searches_survive_gains_near_underflow():
    # gains near 1e-300 times a power of 1e-15 are subnormal in units of P;
    # the searches end without raising
    sc = Scenario(M=4, Nc=3, Ns=12, L=200, P=1e-15, sigma_c2=1e300, seed=1)
    H = rician_channel(sc)
    gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
    _, lo = crb_min_point(H, sc)
    gt = trace_budget(3.0 * lo.crb, sc.sigma_s2, sc.Ns, sc.L) * sc.P
    _solve_dual(gs, sc.M, gt)
    _lockstep_dual(gs, sc.M, [gt, 2.0 * gt])
    assert solve_p1(H, sc, 3.0 * lo.crb).status in ("optimal", "iteration_limit")
    rows = [r for r in sweep(H, sc, 6).rows if r.scheme == "optimal"]
    assert len(rows) == 6


def _dual_budgets(H, sc, n):
    # n budgets log-spaced from just above M^2/P to the smaller of 1e3 M^2/P
    # and just below the water-filling load; all are on the dual path unless
    # that load is within 1e-6 of M^2/P, and then none is returned
    c_min = sc.M * sc.M / sc.P
    hi = 1e3 * c_min
    if H.r == sc.M:
        wf = waterfill(H.lambdas2, sc.sigma_c2, sc.P, m=sc.M)
        if np.all(wf.p > 0.0):
            hi = min(hi, float((1.0 / wf.p).sum()) * (1.0 - 1e-6))
    lo = c_min * (1.0 + 1e-6)
    return list(lo * (hi / lo) ** np.linspace(0.0, 1.0, n)) if hi > lo else []


def test_dispatch_rows_agree_on_both_sides_of_the_crossover(monkeypatch):
    # below _LOCKSTEP_MIN_BUDGETS dual budgets each runs the scalar search,
    # from it on all run in one lockstep batch; the two forms are twins, so
    # every budget gets the same status, evaluations and closed-form metrics
    forms = []
    for name in ("_solve_dual", "_lockstep_dual"):
        search = getattr(solver_module, name)

        def spy(*args, _search=search, _name=name):
            forms.append(_name)
            return _search(*args)

        monkeypatch.setattr(solver_module, name, spy)
    n = solver_module._LOCKSTEP_MIN_BUDGETS
    lanes = 0
    for H, sc in stress_links(12):
        gts = _dual_budgets(H, sc, n)
        if not gts:
            continue
        forms.clear()
        batch, lockstep = _solve_budgets(H, sc, gts)
        assert forms == ["_lockstep_dual"] and lockstep
        forms.clear()
        alone, lockstep_alone = _solve_budgets(H, sc, gts[:-1])
        assert forms == ["_solve_dual"] * (n - 1) and not lockstep_alone
        for (a, status), (b, status_b) in zip(batch, alone):
            assert status == status_b == "optimal", (sc, status, status_b)
            assert a.iterations == b.iterations > 0
            for x, y in ((crb_from_powers(a.p, sc.sigma_s2, sc.Ns, sc.L),
                          crb_from_powers(b.p, sc.sigma_s2, sc.Ns, sc.L)),
                         (rate_from_powers(H.lambdas2, a.p, sc.sigma_c2),
                          rate_from_powers(H.lambdas2, b.p, sc.sigma_c2))):
                assert abs(x - y) <= 1e-9 * abs(y), (sc, x, y)
            lanes += 1
    assert lanes > 200


def test_fifty_point_sweeps_stay_in_lockstep(monkeypatch, scenario1, scenario2):
    batches = []
    search = solver_module._lockstep_dual

    def spy(gs, m, gts):
        batches.append(len(gts))
        return search(gs, m, gts)

    monkeypatch.setattr(solver_module, "_lockstep_dual", spy)
    for H, sc in (scenario1, scenario2):
        for P in (8.0, 800.0):
            batches.clear()
            sweep(H, dataclasses.replace(sc, P=P), 50)
            assert len(batches) == 1 and batches[0] >= solver_module._LOCKSTEP_MIN_BUDGETS


def test_mu_positive_when_rank_deficient(scenario1):
    H, sc = scenario1
    for gamma in (0.01, 0.1, 0.4):
        rep = solve_p1(H, sc, gamma)
        assert rep.status == "optimal"
        assert rep.allocation.mu > 0
