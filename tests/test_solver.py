import dataclasses
import importlib
import itertools
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

from battery import STRESS_FACTORS, dual_budgets, near_p0_links, stress_links
from isac_pareto.closed_form import (
    _waterfill_unit,
    asymptotic_allocation,
    crb_min_point,
    rate_max_point,
    waterfill,
)
from isac_pareto.metrics import (
    crb_from_trace_budget,
    rate_from_powers,
    trace_budget,
)
from isac_pareto.scenario import ChannelMatrix, Scenario, load_fixture, rician_channel
from isac_pareto.solver import (
    _dual_searches,
    _dual_start,
    _ends,
    _power_map,
    _power_map_lanes,
    _solve_budgets,
    at_equal_split,
    cubic_stationary_root,
    feasibility_check,
    solve_p1,
    stationarity_residual,
)
from isac_pareto.sweep import sweep

solver_module = importlib.import_module("isac_pareto.solver")

INV_LN2 = 1.0 / math.log(2.0)


def _scalar_search(gs, m, gamma_tilde, ends):
    # one budget's dual search, evaluated by the scalar power map
    (result,) = _dual_searches(gs, m, [gamma_tilde], ends, False)
    return result


def _lanes_searches(gs, m, gamma_tildes, ends):
    # a batch of dual searches, evaluated by the lanes power map
    return _dual_searches(gs, m, gamma_tildes, ends, True)


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
        # the lanes power map, one lane per point, finds the same root
        powers = _power_map_lanes(np.array([g]), 0, np.array([mu]), np.array([v]))[0]
        assert powers[0, 0] == root, (g, mu, v)


def test_inner_allocation_hand_instance():
    # the map returns one power per communication gain; each of the m - r
    # sensing subchannels adds sqrt(mu / v) to S and its inverse to C, and
    # its power itself is formed once, at the conversion out of units of P
    # (test_sensing_powers_are_formed_once_at_the_conversion)
    p = _power_map([1.0], 2, 1.0, 1.0)[0]
    np.testing.assert_allclose(p, [1.5267188046546143], atol=1e-9)
    p, S, C, *_ = _power_map([1.0], 3, 4.0, 1.0)
    assert len(p) == 1 and S == p[0] + 2.0 * 2.0 and C == 1.0 / p[0] + 2.0 / 2.0


def test_inner_allocation_equal_duals_sensing_power_one():
    p, S, C, *_ = _power_map([1.0, 0.5], 4, 0.7, 0.7)
    assert len(p) == 2 and S == p[0] + p[1] + 2.0 and C == 1.0 / p[0] + 1.0 / p[1] + 2.0


def test_power_map_log_derivatives_match_central_differences():
    # both maps return mu dS/dmu, v dS/dv, mu dC/dmu and v dC/dv, the
    # derivatives in (log mu, log v) that the searches step on; check them
    # against central differences at each link's dual pairs of a few budgets.
    # The lanes map, alone or beside another lane, returns the scalar map's
    # values bit for bit
    h = 1e-5
    points = 0
    for H, sc in stress_links(12):
        gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
        k = sc.M - len(gs)
        for gt in dual_budgets(H, sc, 3):
            ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
            (mu, v, _), *_ = _scalar_search(gs, sc.M, gt * sc.P, ends)[0]
            p, S, C, *logd = _power_map(gs, sc.M, mu, v)
            for n in (1, 2):
                lanes = _power_map_lanes(np.array(gs), k, np.full(n, mu), np.full(n, v))
                assert lanes[0][:, -1].tolist() == p
                assert [x[-1] for x in lanes[1:]] == [S, C, *logd]
            S_t, S_x, C_t, C_x = logd
            for (up, dn), dS, dC in ((((mu * math.exp(h), v), (mu * math.exp(-h), v)), S_t, C_t),
                                     (((mu, v * math.exp(h)), (mu, v * math.exp(-h))), S_x, C_x)):
                a, b = _power_map(gs, sc.M, *up), _power_map(gs, sc.M, *dn)
                for i, d, value in ((1, dS, S), (2, dC, C)):
                    fd = (a[i] - b[i]) / (2.0 * h)
                    assert abs(fd - d) <= 1e-7 * abs(d) + 1e-9 * value, (sc, gt, i, fd, d)
            points += 1
    assert points > 20


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


def test_threshold_whose_trace_budget_overflows_is_named_so(scenario2):
    # at P = 10 the full-rank scenario2 water-fills with a subchannel dry, so
    # an infinite trace budget takes the dual path and is too loose to
    # search; the error named the threshold the budget maps back to, inf,
    # not the caller's 1e+308
    H, sc = scenario2
    with pytest.raises(ValueError, match=re.escape(
            "a CRB threshold whose trace budget overflows is too loose to search at "
            "P = 10: thresholds above 1.69947e+152 cannot be searched")):
        solve_p1(H, dataclasses.replace(sc, P=10.0), 1e308)


@pytest.mark.parametrize("case", ["scenario1", "diag_below_p0"])
def test_loosest_searchable_threshold(case, scenario1):
    # the dual search's CRB multiplier in units of P, mu', falls to 0 as the
    # budget loosens; the largest searchable budget puts it at the bottom of
    # the normal float range.  scenario1 has two sensing subchannels; the
    # full-rank diag(1, sqrt(0.5)) at P = 0.5, below p0 = 1, has one dry
    # communication subchannel.  Past the limit their searches ended at
    # iteration_limit with a subnormal mu': scenario1 at 1e160 after 107
    # evaluations, the diagonal channel at 1e200 x CRB_min after all 2000
    if case == "scenario1":
        H, sc = scenario1
    else:
        H = ChannelMatrix.from_matrix(np.diag([1.0, math.sqrt(0.5)]))
        sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=0.5)
    gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
    limit = crb_from_trace_budget(_ends(gs, sc.M, _waterfill_unit(gs, sc.P)).limit / sc.P,
                                  sc.sigma_s2, sc.Ns, sc.L)
    _, lo = crb_min_point(H, sc)
    assert 1e152 < limit / lo.crb < 1e153
    rep = solve_p1(H, sc, limit * (1.0 - 1e-9))
    assert rep.status == "optimal"
    assert 1.0 <= rep.allocation.mu / sc.P / sys.float_info.min <= 1.0 + 1e-6
    for gamma in (limit * (1.0 + 1e-9), 1e200 * lo.crb):
        with pytest.raises(ValueError, match=re.escape(
                f"CRB threshold {gamma:.6g} is too loose to search at P = {sc.P:g}: "
                f"thresholds above {limit:.6g} cannot be searched")):
            solve_p1(H, sc, gamma)


@pytest.mark.parametrize("preset", ["scenario1", "scenario2"])
def test_solve_budget_that_overflows_in_units_of_P(preset, request):
    # gamma = 1e305 at P = 800: the trace budget, 1.7e306, is finite, but it
    # overflows times P.  On the rank-deficient channel the budget is on the
    # dual path, which searches in units of P, so it is an error naming the
    # threshold and the largest searchable one (it used to give
    # iteration_limit); the full-rank channel water-fills and searches
    # nothing.
    H, sc = request.getfixturevalue(preset)
    if H.r < sc.M:
        with pytest.raises(ValueError, match=r"CRB threshold 1e\+305 is too loose to search "
                                             r"at P = 800: .* above 2\.65263e\+150"):
            solve_p1(H, sc, 1e305)
    else:
        rep = solve_p1(H, sc, 1e305)
        assert rep.status == "optimal" and rep.allocation.mu == 0.0


def test_no_searchable_threshold_above_the_minimum_is_named():
    # the strongest gain, 1e-154 times P = 1e-153, is near 1e-307 in units of
    # P, and the searchable limit, 2.55 there, is below the minimum M^2 = 4:
    # the error used to name the limit as a CRB threshold of 1.5278e+152,
    # below the minimum CRB of 2.4e+152 itself
    H = ChannelMatrix.from_matrix(np.diag([1.0, 2e-9]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=1e-153, sigma_c2=1e154)
    _, lo = crb_min_point(H, sc)
    msg = re.escape("no CRB threshold above the minimum can be searched at "
                    "P = 1e-153 and sigma_c2 = 1e+154")
    for f in (1.01, 3.0):
        with pytest.raises(ValueError, match=msg):
            solve_p1(H, sc, f * lo.crb)
    with pytest.raises(ValueError, match=msg):
        sweep(H, sc, 6)
    assert solve_p1(H, sc, lo.crb).status == "optimal"


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


def test_stress_battery_every_solve_optimal(monkeypatch):
    # 400 random links across ranks, Rician factors and 8 decades of power,
    # each at 8 thresholds from the equal-split boundary to a loose budget:
    # one solve_p1 call per threshold (the scalar power map), and all 8 of a
    # link as one batch (the lanes map, which _solve_budgets is made to take
    # for so few budgets), which must certify every lane on its
    # own, near-boundary ones included.  A dual-path result is the one with
    # evaluations; a batch costs as many passes as its slowest lane takes
    # evaluations.  From the equal split the searches took 10.5 evaluations
    # on average, and a batch 12.4 passes; from the asymptotes of both ends
    # of the boundary, 5.6 and 9.2; from the two-group surrogate of the
    # channel, 4.04 and 5.65; with the outer step taken once the square of
    # the inner residual is small, 3.30 and 4.33.  Every dedicated sensing
    # power of an optimal rank-deficient result with mu > 0 is sqrt(mu / v)
    # of its reported multipliers, bit for bit; as P sqrt(mu' / v'), in units
    # of P, 629 of the 1808 scalar solves were an ulp or more off.
    monkeypatch.setattr(solver_module, "_LOCKSTEP_MIN_BUDGETS", 2)
    failed = []
    scalar_evals = []
    batch_passes = []
    sensing = []  # (scalar, sensing powers equal to sqrt(mu / v))

    def check_sensing(alloc, scalar):
        if H.r < sc.M and alloc.mu > 0.0:
            sensing.append((scalar, all(x == math.sqrt(alloc.mu / alloc.v)
                                        for x in alloc.p[H.r:].tolist())))

    for trial, (H, sc) in enumerate(stress_links(400)):
        _, lo = crb_min_point(H, sc)
        gts = []
        for f in STRESS_FACTORS:
            rep = solve_p1(H, sc, f * lo.crb)
            if rep.status != "optimal":
                failed.append((trial, f, rep.status))
            else:
                check_sensing(rep.allocation, True)
            if rep.allocation is not None and rep.allocation.iterations > 0:
                scalar_evals.append(rep.allocation.iterations)
            gts.append(rep.gamma_tilde)
        lanes = []
        for f, (alloc, status) in zip(STRESS_FACTORS, _solve_budgets(H, sc, gts)[0]):
            if status != "optimal":
                failed.append((trial, f, "batch", status))
            else:
                check_sensing(alloc, False)
            if alloc is not None and alloc.iterations > 0:
                lanes.append(alloc.iterations)
        if lanes:
            batch_passes.append(max(lanes))
    assert failed == []
    assert sensing.count((True, True)) == 1808 and sensing.count((False, True)) == 1808
    assert len(scalar_evals) > 2600 and len(batch_passes) > 380
    assert np.mean(scalar_evals) <= 3.45
    assert np.mean(batch_passes) <= 4.5


@pytest.mark.parametrize("P, sigma_c2, f", [
    (1e10, 1e20, 3.0), (1e20, 1e30, 3.0), (1e40, 1e50, 3.0),
    (1e100, 1.0, 1.01), (1e100, 1.0, 3.0), (1e100, 1.0, 1e3)])
def test_large_sensing_powers_are_certified(P, sigma_c2, f):
    # rank-deficient solves whose sensing powers are 1e8 or more: three rungs
    # of the scale ladder (sigma_c2 = 1e10 P) and P = 1e100 at sigma_c2 = 1.
    # An ulp of such a power exceeds the certificate's absolute 1e-9 bound
    # on the sensing law, and P sqrt(mu' / v') in units of P was an ulp off
    # the certificate's sqrt(mu / v), so each was iteration_limit
    sc = Scenario(M=4, Nc=3, Ns=12, L=200, P=P, sigma_c2=sigma_c2, seed=1)
    H = rician_channel(sc)
    _, lo = crb_min_point(H, sc)
    rep = solve_p1(H, sc, f * lo.crb)
    a = rep.allocation
    assert H.r == 3 and rep.status == "optimal" and a.mu > 0.0
    assert a.p[3] == math.sqrt(a.mu / a.v) and a.p[3] > 1e8


def test_sensing_powers_are_formed_once_at_the_conversion(monkeypatch):
    # the searches carry the r' communication powers only, and
    # _solve_budgets gives each dedicated sensing subchannel sqrt(mu / v) of
    # the converted multipliers mu = P mu' and v = v' / P.  A rank-1 link at
    # P = 1 with gain 1, whose scalar search is made to end at mu' = v' = 1,
    # gets the sensing power sqrt(1 / 1) = 1
    H = ChannelMatrix.from_matrix(np.diag([1.0, 0.0]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=1.0)
    assert H.r == 1
    _, lo = crb_min_point(H, sc)
    gt = trace_budget(3.0 * lo.crb, sc.sigma_s2, sc.Ns, sc.L)
    ends = _ends([1.0], 2, _waterfill_unit([1.0], 1.0))
    assert {len(q) for _, _, q in _scalar_search([1.0], 2, gt, ends)[0]} == {1}
    monkeypatch.setattr(solver_module, "_dual_searches", lambda gs, m, gts, ends, lanes: [
        ([(1.0, 1.0, _power_map(gs, m, 1.0, 1.0)[0])], 7, True)])
    (alloc, status), = _solve_budgets(H, sc, [gt])[0]
    assert (alloc.mu, alloc.v, alloc.iterations, status) == (1.0, 1.0, 7, "iteration_limit")
    assert alloc.p[0] == pytest.approx(1.5267188046546143, abs=1e-9) and alloc.p[1] == 1.0
    monkeypatch.undo()

    # a lane of the lanes map stopped by a non-finite evaluation can carry
    # v' = 0: its sensing power is inf, not a ZeroDivisionError, and the
    # lane stays uncertified while the others are certified
    search = solver_module._dual_searches

    def spy(gs, m, gts, ends, lanes):
        out = search(gs, m, gts, ends, lanes)
        assert lanes and len(out) == len(gts)
        assert all(len(q) == len(gs) for candidates, _, _ in out for _, _, q in candidates)
        mu, _, q = out[0][0][0]
        out[0][0][0] = (mu, 0.0, [math.nan] * len(q))
        return out

    monkeypatch.setattr(solver_module, "_dual_searches", spy)
    H, sc = next((H, sc) for H, sc in stress_links(20) if H.r < sc.M)
    gts = dual_budgets(H, sc, solver_module._LOCKSTEP_MIN_BUDGETS)
    results, lockstep = _solve_budgets(H, sc, gts)
    assert lockstep and results[0][1] == "iteration_limit"
    assert np.isnan(results[0][0].p[:H.r]).all() and (results[0][0].p[H.r:] == math.inf).all()
    assert [status for _, status in results[1:]] == ["optimal"] * (len(gts) - 1)
    for alloc, _ in results[1:]:
        assert (alloc.p[H.r:] == math.sqrt(alloc.mu / alloc.v)).all(), sc


def test_search_starts_near_the_solved_duals():
    # the start solves the asymptotes of the boundary's two ends: next to
    # the equal split it is within 0.1 of the solved log mu on every link,
    # and for loose budgets on every rank-deficient one, where the sensing
    # subchannels' powers fall as sqrt(mu)
    starts = {1 + 1e-6: 0, 1e3: 0}
    for H, sc in stress_links(400):
        gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
        ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
        _, lo = crb_min_point(H, sc)
        for f in starts:
            if f == 1e3 and H.r == sc.M:
                continue
            rep = solve_p1(H, sc, f * lo.crb)
            assert rep.status == "optimal"
            if rep.allocation.iterations == 0:
                continue  # water-filling meets the budget
            t0, _ = _dual_start(ends, sc.M, rep.gamma_tilde * sc.P)
            assert abs(t0 - math.log(rep.allocation.mu / sc.P)) <= 0.1, (sc, f)
            starts[f] += 1
    assert starts[1 + 1e-6] > 350 and starts[1e3] > 200


def test_search_starts_near_the_solved_duals_in_the_middle_of_the_boundary():
    # at 1.5 and 3 x CRB_min neither asymptote of the boundary's ends holds;
    # the start solves the channel's two-group surrogate instead.  From the
    # blend of the two asymptotes it was a median 0.9 and 0.29 off the
    # solved log mu, and up to 4.1 and 6.9
    errors = {1.5: [], 3.0: []}
    for H, sc in stress_links(400):
        gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
        ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
        _, lo = crb_min_point(H, sc)
        for f, errs in errors.items():
            rep = solve_p1(H, sc, f * lo.crb)
            assert rep.status == "optimal"
            if rep.allocation.iterations == 0:
                continue  # water-filling meets the budget
            t0, _ = _dual_start(ends, sc.M, rep.gamma_tilde * sc.P)
            errs.append(abs(t0 - math.log(rep.allocation.mu / sc.P)))
    for errs in errors.values():
        assert len(errs) > 300
        assert np.median(errs) <= 0.02 and max(errs) <= 1.25


def test_search_starts_near_the_solved_duals_next_to_a_just_dry_subchannel():
    # stress link 332 (M = 12, full rank) has a subchannel just dry at the
    # water level, whose power falls as the cube root of mu long before the
    # sensing law sets in; the start was 7.0, 13.2 and 20.2 off the solved
    # log mu at these budgets
    H, sc = list(stress_links(333))[332]
    gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
    ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
    _, lo = crb_min_point(H, sc)
    for f in (3.0, 30.0, 1e3):
        rep = solve_p1(H, sc, f * lo.crb)
        assert rep.status == "optimal" and rep.allocation.iterations > 0
        t0, _ = _dual_start(ends, sc.M, rep.gamma_tilde * sc.P)
        assert abs(t0 - math.log(rep.allocation.mu / sc.P)) <= 0.1, f


def test_newton_step_past_the_finite_end_of_a_one_sided_bracket():
    # a step past the bracket's finite end is replaced by the bracket's
    # midpoint, with the infinite end taken _MAX_LOG_STEP from x; that
    # midpoint used to be -inf or +inf, and the search stepped there
    tol = solver_module._DUAL_TOL
    cases = [(0.0, 1.0, 5.0, -math.inf, 2.0, -2.5), (0.0, -1.0, -5.0, -2.0, math.inf, 2.5),
             (1.0, 1.0, 0.5, 0.0, 3.0, 1.5), (1.0, 1.0, 5.0, 0.0, 3.0, 1.5)]
    for x, val, step, lo, hi, want in cases:
        done, nx = solver_module._newton_step(x, val, step, lo, hi, tol)
        assert not done and nx == want


def _bits(candidates):
    # each candidate's mu, v and powers as hex strings, equal exactly when
    # the floats are equal bit for bit (a NaN of either sign reads "nan")
    return [[x.hex() for x in (mu, v, *q)] for mu, v, q in candidates]


def _lanes_are_scalar_twins(gs, m, gts, ends):
    # every lane of one batch hands back the candidates, evaluations and
    # converged flag of the scalar search of its budget, bit for bit
    batch = _lanes_searches(gs, m, gts, ends)
    for (candidates, evals, converged), gt in zip(batch, gts):
        twin, evals_j, converged_j = _scalar_search(gs, m, gt, ends)
        assert (evals, converged) == (evals_j, converged_j), gt
        assert _bits(candidates) == _bits(twin), gt
    return len(batch)


def test_scalar_and_lockstep_searches_are_twins():
    # the two power maps have the same arithmetic: the lanes map adds each
    # lane's subchannels in their order, and every search takes its exps
    # and logs from the same libm kernels, one search at a time.  So
    # each lane of a batch is the scalar search of its budget, bit for bit:
    # on the stress and near-p0 links at the stress factors, and on 14
    # stress links at every batch size from 12 to 30, around
    # _LOCKSTEP_MIN_BUDGETS.  With numpy's pairwise sums and its own exp and
    # log, 4 of those 4788 lanes took another number of evaluations than
    # their twins and 1637 ended on other candidates; on the near-p0 links
    # a nearly dry subchannel makes the search sensitive to an ulp
    lanes = 0
    for H, sc in itertools.chain(stress_links(60), near_p0_links()):
        _, lo = crb_min_point(H, sc)
        gts = [trace_budget(f * lo.crb, sc.sigma_s2, sc.Ns, sc.L) for f in STRESS_FACTORS]
        dual = [gt * sc.P for gt, (alloc, _) in zip(gts, _solve_budgets(H, sc, gts)[0])
                if alloc is not None and alloc.iterations > 0]
        if dual:
            gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
            lanes += _lanes_are_scalar_twins(gs, sc.M, dual, _ends(gs, sc.M, _waterfill_unit(gs, sc.P)))
    assert lanes > 900
    lanes = 0
    for H, sc in stress_links(14):
        gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
        ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
        for n in range(12, 31):
            lanes += _lanes_are_scalar_twins(gs, sc.M, [gt * sc.P for gt in dual_budgets(H, sc, n)],
                                             ends)
    assert lanes == 4788


def test_lockstep_lanes_that_stop_apart_are_scalar_twins(monkeypatch):
    # one batch whose lanes stop on four different passes: the lane of
    # 3 x CRB_min is stopped on its 2nd evaluation by a non-finite power
    # map, others converge on passes 2 to 4, and the lane of 1.5 x CRB_min
    # spends a lowered budget of 5 evaluations.  The live lanes shrink each
    # time lanes stop; every lane must still equal the same
    # lane run alone and its scalar twin, bit for bit: the same evaluations
    # and converged flag, and the same candidates, the last evaluation and
    # the feasible end's.  The scalar twin of the poisoned lane is its
    # search cut at 2 evaluations.
    H, sc = list(stress_links(36))[35]
    _, lo = crb_min_point(H, sc)
    gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
    ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
    gts = [trace_budget(f * lo.crb, sc.sigma_s2, sc.Ns, sc.L) * sc.P for f in STRESS_FACTORS]
    cap, poisoned_lane = 5, 4
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
    poison = {2: (1, poisoned_lane, math.nan)}  # S of that lane on the 2nd pass
    batch = _lanes_searches(gs, sc.M, gts, ends)
    assert [evals for _, evals, _ in batch] == [2, 3, 4, 5, 2, 4, 3, 3]
    assert [converged for _, _, converged in batch] == [True, True, True, False, False,
                                                        True, True, True]
    assert passes == [8, 8, 6, 3, 1]

    for j, gt in enumerate(gts):
        passes.clear()
        poison = {2: (1, 0, math.nan)} if j == poisoned_lane else {}
        (alone, *rest), = _lanes_searches(gs, sc.M, [gt], ends)
        assert _bits(batch[j][0]) == _bits(alone), j
        assert batch[j][1:] == tuple(rest), j
        monkeypatch.setattr(solver_module, "_MAX_DUAL_ITERS", 2 if j == poisoned_lane else cap)
        candidates, evals_j, converged_j = _scalar_search(gs, sc.M, gt, ends)
        monkeypatch.setattr(solver_module, "_MAX_DUAL_ITERS", cap)
        assert (evals_j, converged_j) == batch[j][1:], j
        assert _bits(batch[j][0]) == _bits(candidates), j

    # the poisoned lane alone converges on its 5th pass, but not when a
    # derivative is non-finite there; that evaluation then measures no
    # feasible end, as in the scalar form, poisoned alike, so both hand back
    # the same candidates
    monkeypatch.setattr(solver_module, "_MAX_DUAL_ITERS", 2000)
    scalar_map = solver_module._power_map

    def poisoned_scalar(*args):
        out = list(scalar_map(*args))
        passes.append(1)
        if len(passes) in poison:
            i, _, value = poison[len(passes)]
            out[i] = value
        return out

    for poison, ok in (({}, True), ({5: (5, 0, math.inf)}, False)):  # C_t
        passes.clear()
        (lane, evals, converged), = _lanes_searches(gs, sc.M, [gts[poisoned_lane]], ends)
        assert (evals, converged) == (5, ok)
        passes.clear()
        monkeypatch.setattr(solver_module, "_power_map", poisoned_scalar)
        candidates, evals_j, converged_j = _scalar_search(gs, sc.M, gts[poisoned_lane], ends)
        monkeypatch.setattr(solver_module, "_power_map", scalar_map)
        assert (evals_j, converged_j) == (5, ok)
        assert _bits(lane) == _bits(candidates)


def test_libm_failures_end_both_forms_alike(monkeypatch):
    # an exp that overflows and a log of a non-positive value are NaN in the
    # kernels every search shares, and end it unconverged with either power
    # map: a NaN multiplier on the search's last evaluation, and a NaN log
    # of the power sum on that evaluation.  Each is injected through the kernel itself at
    # the 3rd evaluation of one budget's search, alone and as one lane of a
    # batch of 21 budgets, which the lanes map evaluates; both hand back the
    # same candidates and evaluations, _solve_budgets reports
    # iteration_limit for that budget through either map, and the other
    # lanes are untouched
    H, sc = list(stress_links(36))[35]
    gts = dual_budgets(H, sc, 21)
    gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
    ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
    j = 12
    clean, _ = _solve_budgets(H, sc, gts)
    evaluations = []  # (v, S) of each evaluation of budget j's scalar search
    power_map = solver_module._power_map

    def spy(gs, m, mu, v):
        out = power_map(gs, m, mu, v)
        evaluations.append((v, out[1]))
        return out

    monkeypatch.setattr(solver_module, "_power_map", spy)
    _, evals, converged = _scalar_search(gs, sc.M, gts[j] * sc.P, ends)
    monkeypatch.undo()
    assert evals > 3 and converged
    (v3, S3), exp, log = evaluations[2], solver_module._exp, solver_module._log
    assert math.isnan(exp(1e3)) and math.isnan(log(-S3)) and math.isnan(log(0.0))
    for name, kernel, last_evaluation in (
            ("_exp", lambda x: exp(1e3) if exp(x) == v3 else exp(x), 2),  # v of the 3rd
            ("_log", lambda x: log(-x) if x == S3 else log(x), 3)):  # its log S
        monkeypatch.setattr(solver_module, name, kernel)
        candidates, evals, converged = _scalar_search(gs, sc.M, gts[j] * sc.P, ends)
        assert (evals, converged) == (last_evaluation, False), name
        assert candidates[0][1] == evaluations[last_evaluation - 1][0], name
        lane = _lanes_searches(gs, sc.M, [gt * sc.P for gt in gts], ends)[j]
        assert _bits(lane[0]) == _bits(candidates) and lane[1:] == (evals, converged), name
        ((alone, status),), lockstep = _solve_budgets(H, sc, [gts[j]])
        batch, lockstep_batch = _solve_budgets(H, sc, gts)
        assert not lockstep and lockstep_batch
        assert status == batch[j][1] == "iteration_limit", name
        a = batch[j][0]
        assert (a.p.tolist(), a.mu, a.v, a.iterations) == (
            alone.p.tolist(), alone.mu, alone.v, alone.iterations), name
        for (a, status), (b, status_b) in zip(batch[:j] + batch[j + 1:], clean[:j] + clean[j + 1:]):
            assert status == status_b == "optimal"
            assert (a.p.tolist(), a.mu, a.v, a.iterations) == (b.p.tolist(), b.mu, b.v, b.iterations)
        monkeypatch.undo()


def test_lockstep_batches_make_the_libm_calls_of_their_scalar_searches(monkeypatch):
    # each lane of the lanes map takes the one pass step, so a batch calls
    # the exp and log kernels with exactly the arguments of its budgets'
    # searches with the scalar map; the lockstep form used to call both
    # kernels for every live lane on every pass, whether the lane's pass
    # used the result or not: 6276 calls on these batches against 5212
    calls = []
    for name in ("_exp", "_log"):
        monkeypatch.setattr(solver_module, name,
                            lambda x, f=getattr(solver_module, name), name=name:
                            calls.append((name, x.hex())) or f(x))
    total = 0
    for H, sc in stress_links(14):
        gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
        ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
        gts = [gt * sc.P for gt in dual_budgets(H, sc, 21)]
        calls.clear()
        _lanes_searches(gs, sc.M, gts, ends)
        batch = Counter(calls)
        calls.clear()
        for gt in gts:
            _scalar_search(gs, sc.M, gt, ends)
        assert batch == Counter(calls), sc
        total += len(calls)
    assert total == 5212


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


@pytest.mark.parametrize("f", [1.01, 3.0, 1e3])
def test_gains_whose_square_overflows_still_solve(f):
    # gains of about 1e160 in units of P overflowed g^2 in the derivatives of
    # the first evaluation, so the search stopped there at iteration_limit;
    # the maps and roots now square g / (1 + g p) instead
    sc = Scenario(M=4, Nc=3, Ns=12, L=200, P=1, sigma_c2=1e-160, seed=1)
    H = rician_channel(sc)
    _, lo = crb_min_point(H, sc)
    rep = solve_p1(H, sc, f * lo.crb)
    assert rep.status == "optimal" and rep.allocation.mu > 0.0


def test_scalar_search_stops_on_a_non_finite_evaluation(monkeypatch):
    # a first evaluation with finite powers but a non-finite derivative stops
    # a search with the scalar map there unconverged, as it stops one with
    # the lanes map; it used to spend its 2000 evaluations on NaN powers, on
    # whose covariance _finish's eigvalsh then raised LinAlgError
    H, sc = list(stress_links(2))[1]
    gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
    ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
    _, lo = crb_min_point(H, sc)
    gt = trace_budget(3.0 * lo.crb, sc.sigma_s2, sc.Ns, sc.L) * sc.P
    power_map, power_map_lanes = _power_map, _power_map_lanes

    def poisoned(*args):
        p, S, C, S_t, S_x, C_t, C_x = power_map(*args)
        return p, S, C, S_t, S_x, math.nan, C_x

    def poisoned_lanes(*args):
        out = power_map_lanes(*args)
        out[5][:] = math.nan
        return out

    monkeypatch.setattr(solver_module, "_power_map", poisoned)
    monkeypatch.setattr(solver_module, "_power_map_lanes", poisoned_lanes)
    [(mu, v, p)], evals, converged = _scalar_search(gs, sc.M, gt, ends)
    ([(mu_l, v_l, p_l)], evals_l, converged_l), = _lanes_searches(gs, sc.M, [gt], ends)
    assert (evals, converged) == (evals_l, converged_l) == (1, False)
    assert (mu, v, p) == (mu_l, v_l, p_l) and np.isfinite(p).all()
    rep = solve_p1(H, sc, 3.0 * lo.crb)
    assert rep.status == "iteration_limit" and rep.allocation.iterations == 1
    assert np.isfinite(rep.allocation.p).all()


def test_gains_that_underflow_in_units_of_P_rejected():
    # gains near 1e-300 times P = 1e-100 are all 0 in units of P, where the
    # dual search has no rate slope to start from; solve_p1 and sweep used
    # to raise "math domain error"
    sc = Scenario(M=2, Nc=3, Ns=12, L=200, P=1e-100, sigma_c2=1e300, seed=1)
    H = rician_channel(sc)
    _, lo = crb_min_point(H, sc)
    msg = re.escape("every channel gain times P = 1e-100 underflows to 0, "
                    "so no CRB threshold above the minimum can be searched")
    for f in (1.01, 3.0, 1e3):
        with pytest.raises(ValueError, match=msg):
            solve_p1(H, sc, f * lo.crb)
    with pytest.raises(ValueError, match=msg):
        sweep(H, sc, 6)
    # the minimum itself needs no search
    assert solve_p1(H, sc, lo.crb).status == "optimal"


def test_gains_that_overflow_in_units_of_P_rejected():
    # gains near 1e251 times P = 1e100 overflow in units of P; solve_p1 used
    # to raise LinAlgError from the eigenvalues of its covariance's metrics,
    # sweep to give rates of inf and nan, and both endpoints rate inf after
    # numpy overflow warnings
    sc = Scenario(M=2, Nc=3, Ns=12, L=200, P=1e100, sigma_c2=1e-250, seed=1)
    H = rician_channel(sc)
    crb_min = sc.sigma_s2 * sc.Ns * sc.M * sc.M / (sc.P * sc.L)
    msg = re.escape("channel gains times P / sigma_c2 overflow at P = 1e+100, sigma_c2 = 1e-250")
    for f in (1.0, 3.0):
        with pytest.raises(ValueError, match=msg):
            solve_p1(H, sc, f * crb_min)
    with pytest.raises(ValueError, match=msg):
        sweep(H, sc, 6)
    for endpoint in (crb_min_point, rate_max_point):
        with pytest.raises(ValueError, match=msg):
            endpoint(H, sc)


def test_rates_of_gains_whose_lambda2_P_overflows():
    # lambda^2 = 1e300 times P = 1e10 overflows, but the gains in units of
    # P, lambda^2 P / sigma_c2, are 1e10 and 2.5e9; both endpoints gave a
    # rate of inf and solve_p1 one of 0.0, as the closed-form and the matrix
    # rate multiplied lambda^2 by the power before dividing by sigma_c2
    H = ChannelMatrix.from_matrix(np.diag([1e150, 5e149]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=1e10, sigma_c2=1e300)
    want = math.log2(1.0 + 1e10 / 2.0) + math.log2(1.0 + 2.5e9 / 2.0)
    _, lo = crb_min_point(H, sc)
    _, hi = rate_max_point(H, sc)
    rep = solve_p1(H, sc, 3.0 * lo.crb)
    assert rep.status == "optimal"
    for got in (lo.rate, hi.rate, rep.achieved.rate):
        assert got == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(62.4386, rel=1e-6)


def test_one_water_filling_per_channel(monkeypatch, scenario2):
    # _solve_budgets water-fills the channel once, in units of P, for the
    # water-filling path and the dual search's loose end alike, and only
    # when a budget lies above the minimum; the water-filling path is
    # waterfill's allocation, bit for bit
    calls = []
    waterfill_unit = solver_module._waterfill_unit
    monkeypatch.setattr(solver_module, "_waterfill_unit",
                        lambda *args: calls.append(args) or waterfill_unit(*args))
    H, sc = scenario2
    _, lo = crb_min_point(H, sc)
    _, hi = rate_max_point(H, sc)
    gammas = [lo.crb, lo.crb ** 0.7 * hi.crb ** 0.3, lo.crb ** 0.3 * hi.crb ** 0.7, 2.0 * hi.crb]
    gts = [trace_budget(g, sc.sigma_s2, sc.Ns, sc.L) for g in gammas]
    results, _ = _solve_budgets(H, sc, gts)
    assert len(calls) == 1
    assert [status for _, status in results] == ["optimal"] * 4
    assert [a.iterations > 0 for a, _ in results] == [False, True, True, False]
    alloc = results[-1][0]
    assert alloc.mu == 0.0
    np.testing.assert_array_equal(alloc.p, waterfill(H.lambdas2, sc.sigma_c2, sc.P, m=sc.M).p)
    calls.clear()
    _solve_budgets(H, sc, gts[:1])
    assert calls == []


def test_a_gain_of_zero_in_units_of_P_is_dry():
    # the water-filling takes a gain of 0 in units of P as a dry subchannel,
    # and no gain at all as every gain underflowing to 0
    wf = _waterfill_unit([2.0, 0.0], 1.0)
    assert wf[0] == [1.0, 0.0] and wf[2] == 1
    with pytest.raises(ValueError, match="every channel gain times P = 1 underflows to 0"):
        _waterfill_unit([], 1.0)


def test_only_gains_positive_in_units_of_P_are_searched(monkeypatch):
    # a rank-2 channel whose weaker gain underflows to 0 in units of P
    # (1e-154 and 4e-172 times P = 5e-153): the dual search's start and the
    # searches with either power map see only the positive gain, and search
    # the other subchannel as a dedicated sensing one
    H = ChannelMatrix.from_matrix(np.diag([1.0, 2e-9]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=5e-153, sigma_c2=1e154)
    assert H.r == 2
    seen = []
    for name in ("_ends", "_dual_searches"):
        monkeypatch.setattr(solver_module, name,
                            lambda gs, *args, f=getattr(solver_module, name), name=name:
                            seen.append((name, gs, args[-1])) or f(gs, *args))
    _, lo = crb_min_point(H, sc)
    solve_p1(H, sc, 1.01 * lo.crb)
    sweep(H, sc, 30, crb_cap=1.2 * lo.crb, schemes=("optimal",))
    assert {name for name, _, _ in seen} == {"_ends", "_dual_searches"}
    # solve_p1's search takes the scalar power map and the sweep's batch the
    # lanes map; the sweep's second opinions, one per row, take the scalar map
    forms = [lanes for name, _, lanes in seen if name == "_dual_searches"]
    assert forms[:2] == [False, True] and set(forms[2:]) <= {False}
    assert all(gs == [5e-307] for _, gs, _ in seen)


def test_a_power_map_that_divides_by_zero_ends_its_search_alike_in_both_forms(monkeypatch):
    # on the channel above, at 1.01 x CRB_min, the first stationary root
    # divides by zero.  The scalar map raises ZeroDivisionError there, and the
    # search ends with no evaluation; the lanes map carried numpy's inf on,
    # so 14 or more such budgets got the allocation p = [1e154, 0], mu = 0,
    # and fewer got none
    H = ChannelMatrix.from_matrix(np.diag([1.0, 2e-9]))
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=5e-153, sigma_c2=1e154)
    _, lo = crb_min_point(H, sc)
    gt = trace_budget(1.01 * lo.crb, sc.sigma_s2, sc.Ns, sc.L)
    for n in (1, 13, 14, 21):
        results, lockstep = _solve_budgets(H, sc, [gt] * n)
        assert lockstep == (n >= solver_module._LOCKSTEP_MIN_BUDGETS)
        assert results == [(None, "iteration_limit")] * n, n

    # a lanes pass on which numpy flags a division by zero is evaluated by
    # the scalar map, once per live lane, and every lane stays its scalar
    # twin, bit for bit
    H, sc = list(stress_links(36))[35]
    _, lo = crb_min_point(H, sc)
    gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
    ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
    gts = [trace_budget(f * lo.crb, sc.sigma_s2, sc.Ns, sc.L) * sc.P for f in STRESS_FACTORS]
    power_map, power_map_lanes = _power_map, _power_map_lanes
    passes, scalar = [], []

    def flagged(g, k, mu, v):
        passes.append(mu.size)
        if len(passes) == 2:
            np.divide(1.0, np.zeros(1))
        return power_map_lanes(g, k, mu, v)

    monkeypatch.setattr(solver_module, "_power_map_lanes", flagged)
    monkeypatch.setattr(solver_module, "_power_map",
                        lambda *args: scalar.append(passes[-1]) or power_map(*args))
    batch = _lanes_searches(gs, sc.M, gts, ends)
    assert len(passes) > 2 and scalar == [passes[1]] * passes[1]
    monkeypatch.undo()
    for (candidates, evals, converged), gt in zip(batch, gts):
        twin, evals_j, converged_j = _scalar_search(gs, sc.M, gt, ends)
        assert (evals, converged) == (evals_j, converged_j), gt
        assert _bits(candidates) == _bits(twin), gt


def test_dual_searches_survive_gains_near_underflow():
    # gains near 1e-300 times a power of 1e-15 are subnormal in units of P;
    # the searches end without raising
    sc = Scenario(M=4, Nc=3, Ns=12, L=200, P=1e-15, sigma_c2=1e300, seed=1)
    H = rician_channel(sc)
    gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
    _, lo = crb_min_point(H, sc)
    gt = trace_budget(3.0 * lo.crb, sc.sigma_s2, sc.Ns, sc.L) * sc.P
    ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
    _scalar_search(gs, sc.M, gt, ends)
    _lanes_searches(gs, sc.M, [gt, 2.0 * gt], ends)
    assert solve_p1(H, sc, 3.0 * lo.crb).status in ("optimal", "iteration_limit")
    rows = [r for r in sweep(H, sc, 6).rows if r.scheme == "optimal"]
    assert len(rows) == 6


def test_dispatch_rows_agree_on_both_sides_of_the_crossover(monkeypatch):
    # below _LOCKSTEP_MIN_BUDGETS dual budgets the searches take the scalar
    # power map, from it on the lanes map; the two maps are twins, so every
    # budget gets the same status and allocation, bit for bit
    forms = []  # (budgets, lanes) of each call of the driver
    search = solver_module._dual_searches

    def spy(gs, m, gts, ends, lanes):
        forms.append((len(gts), lanes))
        return search(gs, m, gts, ends, lanes)

    monkeypatch.setattr(solver_module, "_dual_searches", spy)
    n = solver_module._LOCKSTEP_MIN_BUDGETS
    lanes = 0
    for H, sc in stress_links(14):
        gts = dual_budgets(H, sc, n)
        if not gts:
            continue
        forms.clear()
        batch, lockstep = _solve_budgets(H, sc, gts)
        assert forms == [(n, True)] and lockstep
        forms.clear()
        alone, lockstep_alone = _solve_budgets(H, sc, gts[:-1])
        assert forms == [(n - 1, False)] and not lockstep_alone
        for (a, status), (b, status_b) in zip(batch, alone):
            assert status == status_b == "optimal", (sc, status, status_b)
            assert a.iterations == b.iterations > 0
            assert (a.p.tolist(), a.mu, a.v, a.kkt_residual, a.duality_gap) == (
                b.p.tolist(), b.mu, b.v, b.kkt_residual, b.duality_gap), sc
            lanes += 1
    assert lanes > 10 * (n - 1)  # more than 10 links' worth


def test_fifty_point_sweeps_stay_in_lockstep(monkeypatch, scenario1, scenario2):
    batches, passes = [], []
    search = solver_module._dual_searches

    def spy(gs, m, gts, ends, lanes):
        batches.append((len(gts), lanes))
        out = search(gs, m, gts, ends, lanes)
        passes.append(max(evals for _, evals, _ in out))
        return out

    monkeypatch.setattr(solver_module, "_dual_searches", spy)
    for H, sc in (scenario1, scenario2):
        for P in (8.0, 800.0):
            batches.clear()
            sweep(H, dataclasses.replace(sc, P=P), 50)
            (n, lanes), = batches
            assert lanes and n >= solver_module._LOCKSTEP_MIN_BUDGETS
    # a batch costs as many passes as its slowest lane takes evaluations:
    # 11, 10, 11 and 13 from the blend of the boundary's two asymptotes,
    # 9, 7, 8 and 8 from the two-group surrogate, and 6, 5, 5 and 5 with the
    # outer step taken once the square of the inner residual is small; the
    # bound leaves one pass of slack in one sweep
    assert np.mean(passes) <= 5.5


def test_outer_step_once_the_inner_residual_squared_is_small(scenario1):
    # README's point example.  After each outer step the inner residual F
    # was still 0.6 to 0.9 of the outer one G, above _INNER_FRACTION, so
    # every outer Newton step paid for an inner-only evaluation and the
    # search took 7; the predicted G is off by O(F^2), so the outer step now
    # waits only for F^2 <= _INNER_FRACTION |G| (once |F| < 1)
    H, sc = scenario1
    rep = solve_p1(H, sc, 0.01)
    assert rep.status == "optimal" and rep.allocation.iterations <= 4
    assert rep.allocation.mu == pytest.approx(2.88614396495, rel=1e-11)
    assert rep.allocation.v == pytest.approx(9.29584106626e-3, rel=1e-11)


def test_mu_positive_when_rank_deficient(scenario1):
    # at 1e120 and 1e150 mu is about 1e-244 and 1e-304: the searches step
    # on log-derivatives, so nothing multiplies mu back into a product that
    # underflows, and the start squares no budget, which would overflow
    # there and leave the search 100 evaluations from the equal split
    H, sc = scenario1
    for gamma in (0.01, 0.1, 0.4, 1e120, 1e150):
        rep = solve_p1(H, sc, gamma)
        assert rep.status == "optimal"
        assert rep.allocation.mu > 0
        assert gamma < 1.0 or rep.allocation.iterations == 1
