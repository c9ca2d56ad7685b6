import dataclasses
import importlib
import math

import numpy as np
import pytest

from battery import near_p0_links, stress_links
from isac_pareto.benchmarks import BetaSweep, best_at_crb, power_split_ep, power_split_sem
from isac_pareto.closed_form import crb_min_point, p0_threshold, rate_max_point
from isac_pareto.metrics import crb_from_powers, rate_from_powers, trace_budget
from isac_pareto.scenario import ChannelMatrix, Scenario, preset_scenario, rician_channel
from isac_pareto.solver import _certify, solve_p1
from isac_pareto.sweep import sweep

solver_module = importlib.import_module("isac_pareto.solver")
sweep_module = importlib.import_module("isac_pareto.sweep")

# the two channels whose default grids used to return non-optimal rows
FORMER_FAILURES = [
    # low power, loose CRB budgets on the default grid: a wrong stationary
    # root at tiny mu used to stop the dual search short of optimality
    Scenario(M=15, Nc=5, Ns=12, L=200, P=0.010712083181864214, Kc=1e4, seed=14),
    dataclasses.replace(preset_scenario("scenario2", seed=1993161966), P=800.0),
]
FORMER_FAILURE_IDS = ["low_power_los", "scenario2_seed1993161966"]


def test_sweep_first_point_is_isotropic(scenario1):
    H, sc = scenario1
    res = sweep(H, sc, 12)
    _, pt_min = crb_min_point(H, sc)
    first = [r for r in res.rows if r.scheme == "optimal"][0]
    assert first.status == "optimal"
    assert first.crb == pytest.approx(pt_min.crb, rel=1e-8)
    assert first.rate == pytest.approx(pt_min.rate, abs=1e-8)


def test_sweep_last_point_hits_rate_max_when_finite(scenario2):
    H, sc = scenario2
    res = sweep(H, sc, 10)
    assert not res.capped
    _, pt_max = rate_max_point(H, sc)
    last = [r for r in res.rows if r.scheme == "optimal"][-1]
    assert last.rate == pytest.approx(pt_max.rate, abs=1e-6)
    assert last.crb == pytest.approx(pt_max.crb, rel=1e-6)


def test_sweep_monotone_and_dominates_benchmarks(scenario1):
    H, sc = scenario1
    res = sweep(H, sc, 15)
    opt = [r for r in res.rows if r.scheme == "optimal"]
    assert all(r.status == "optimal" for r in opt)
    rates = [r.rate for r in opt]
    crbs = [r.crb for r in opt]
    assert np.all(np.diff(rates) >= -1e-10)
    assert np.all(np.diff(crbs) >= -1e-12)
    for scheme in ("ep", "sem"):
        bench = {r.gamma_target: r for r in res.rows if r.scheme == scheme}
        for r in opt:
            b = bench[r.gamma_target]
            if math.isfinite(b.rate):
                assert r.rate >= b.rate - 1e-8


def test_sweep_cap_flag_and_infinite_endpoint(scenario1):
    H, sc = scenario1
    res = sweep(H, sc, 6)
    _, pt_min = crb_min_point(H, sc)
    assert res.capped
    assert res.crb_cap == pytest.approx(100.0 * pt_min.crb, rel=1e-12)
    ts_rows = [r for r in res.rows if r.scheme == "time_switch"]
    assert ts_rows and all(r.status == "not_applicable" for r in ts_rows)


def test_sweep_cap_is_decided_by_the_water_filling_floor():
    # diag(1, sqrt(0.5)) has p0 = 1; just above it the weak subchannel gets
    # (P - 1)/2.  At 1e-10 that is under the EIG_FLOOR_REL * P/M floor of
    # rate_max_point, so the grid is capped even though the exact CRB of
    # the water-filling powers is finite; at 1e-8 it clears the floor
    H = ChannelMatrix.from_matrix(np.diag([1.0, math.sqrt(0.5)]))
    p0 = p0_threshold(H.lambdas2, 1.0)
    capped = Scenario(M=2, Nc=2, Ns=12, L=200, P=p0 * (1.0 + 1e-10))
    wf, pt_max = rate_max_point(H, capped)
    assert pt_max.crb == math.inf
    assert math.isfinite(crb_from_powers(wf.p, capped.sigma_s2, capped.Ns, capped.L))
    res = sweep(H, capped, 6)
    assert res.capped
    ts = [r for r in res.rows if r.scheme == "time_switch"]
    assert len(ts) == 6 and all(r.status == "not_applicable" for r in ts)

    uncapped = dataclasses.replace(capped, P=p0 * (1.0 + 1e-8))
    res = sweep(H, uncapped, 6)
    assert not res.capped
    assert res.crb_cap == rate_max_point(H, uncapped)[1].crb
    ts = [r for r in res.rows if r.scheme == "time_switch"]
    assert len(ts) == 6 and all(r.status == "ok" and math.isfinite(r.crb) for r in ts)


def test_sweep_time_switch_rows_when_finite(scenario2):
    H, sc = scenario2
    res = sweep(H, sc, 8)
    ts = [r for r in res.rows if r.scheme == "time_switch"]
    assert all(r.status == "ok" for r in ts)
    opt = [r for r in res.rows if r.scheme == "optimal"]
    for o, t in zip(opt, ts):
        assert o.rate >= t.rate - 1e-8


def test_sweep_degenerate_box_region():
    # equal gains make water-filling isotropic at any power, so the region
    # collapses to a box and every grid point returns the same corner
    H = ChannelMatrix.from_matrix(np.eye(4) * 2.0)
    sc = Scenario(M=4, Nc=4, Ns=12, L=200, P=1000.0)
    res = sweep(H, sc, 7)
    opt = [r for r in res.rows if r.scheme == "optimal"]
    rates = [r.rate for r in opt]
    assert max(rates) - min(rates) <= 1e-6
    assert res.crb_cap == res.crb_min


def test_sweep_annotates_failures_without_aborting(scenario1, monkeypatch):
    H, sc = scenario1
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "_MAX_DUAL_ITERS", 2)
        res = sweep(H, sc, 6)
    opt = [r for r in res.rows if r.scheme == "optimal"]
    assert len(opt) == 6
    # the boundary point solves in closed form; tight interior ones cannot
    # converge in two iterations and must be annotated, not raised
    statuses = {r.status for r in opt}
    assert "iteration_limit" in statuses
    assert all(s in ("optimal", "iteration_limit") for s in statuses)


@pytest.mark.parametrize("sc", FORMER_FAILURES, ids=FORMER_FAILURE_IDS)
def test_sweep_default_grid_all_optimal(sc):
    res = sweep(rician_channel(sc), sc, 50)
    opt = [r for r in res.rows if r.scheme == "optimal"]
    assert len(opt) == 50
    assert all(r.status == "optimal" for r in opt)


def test_sweep_rejects_single_point(scenario1):
    H, sc = scenario1
    with pytest.raises(ValueError):
        sweep(H, sc, 1)


def test_sweep_rejects_channel_that_does_not_fit(scenario2):
    # before any row is solved: a 6x6 channel under Nc = 7 used to give
    # four optimal rows and two error rows
    H, sc = scenario2
    with pytest.raises(ValueError, match=r"channel shape \(6, 6\) does not match"):
        sweep(H, dataclasses.replace(sc, Nc=7), 6)
    with pytest.raises(ValueError, match="rank 0"):
        sweep(ChannelMatrix.from_matrix(np.zeros((6, 6))), sc, 6)


def _rel(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _assert_rows_match_cold_solves(H, sc, n_points):
    res = sweep(H, sc, n_points)
    opt = [r for r in res.rows if r.scheme == "optimal"]
    assert len(opt) == n_points
    for row in opt:
        cold = solve_p1(H, sc, row.gamma_target)
        assert row.status == cold.status
        if row.status != "optimal":
            continue
        a = cold.allocation
        for got, want in ((row.crb, cold.achieved.crb), (row.rate, cold.achieved.rate),
                          (row.mu, a.mu), (row.v, a.v)):
            assert _rel(got, want) <= 1e-9, (row, a)


@pytest.mark.parametrize("P", [8.0, 80.0, 800.0])
@pytest.mark.parametrize("case", ["scenario1", "scenario2"])
def test_sweep_warm_start_matches_cold_solves(case, P, request):
    H, sc = request.getfixturevalue(case)
    _assert_rows_match_cold_solves(H, dataclasses.replace(sc, P=P), 50)


@pytest.mark.parametrize("sc", FORMER_FAILURES, ids=FORMER_FAILURE_IDS)
def test_sweep_warm_start_matches_cold_solves_on_former_failures(sc):
    _assert_rows_match_cold_solves(rician_channel(sc), sc, 50)


def test_lockstep_rows_match_cold_solves_on_stress_links():
    # every rank, Rician factor and 8 decades of power on the default grid.
    # A row's crb and rate are the closed forms of its powers, so they are
    # compared with the closed forms of the cold allocation, not with
    # solve_p1's eigvalsh path.  Rows off the dual path (mu = 0 or nan) come
    # from the allocation solve_p1 itself returns and must match exactly.
    # On full-rank links at high power the multipliers are ill-determined:
    # the stationarity equations v - mu/p_i^2 = g_i/((1 + g_i p_i) ln 2) are
    # nearly parallel across subchannels, and two certified searches can
    # differ by 1e-4 in mu and v.  So the multipliers of a dual row must
    # instead certify the cold allocation.
    lanes = 0
    for H, sc in stress_links(40):
        opt = [r for r in sweep(H, sc, 50).rows if r.scheme == "optimal"]
        gs = [float(x) / sc.sigma_c2 for x in H.lambdas2]
        for row in opt:
            cold = solve_p1(H, sc, row.gamma_target)
            assert row.status == cold.status, (sc, row)
            a = cold.allocation
            crb = crb_from_powers(a.p, sc.sigma_s2, sc.Ns, sc.L)
            rate = rate_from_powers(H.lambdas2, a.p, sc.sigma_c2)
            if not a.mu > 0.0:
                assert (row.crb, row.rate, row.iterations) == (crb, rate, a.iterations)
                assert _rel(row.mu, a.mu) == 0.0 and _rel(row.v, a.v) == 0.0
                continue
            lanes += 1
            assert _rel(row.crb, crb) <= 1e-9 and _rel(row.rate, rate) <= 1e-9, (sc, row, a)
            ok, _, _ = _certify(gs, sc.M, a.p.tolist(), row.mu, row.v, cold.gamma_tilde, sc.P)
            assert ok, (sc, row, a)
    assert lanes > 1000


def test_near_p0_sweeps_stay_optimal():
    # just above p0_threshold the weakest water-filled subchannel is nearly
    # dry, and a first-order prediction of the CRB residual can have the
    # wrong sign; the dual searches move their log-mu bracket only on a
    # measured residual, so such a prediction cannot shut out the root.
    # 4 of the 6000 rows are not optimal (325 when predictions moved the
    # bracket); that count may not rise
    rows = [r for H, sc in near_p0_links()
            for r in sweep(H, sc, 50, schemes=("optimal",)).rows]
    assert len(rows) == 6000
    assert sum(r.status != "optimal" for r in rows) <= 4


def test_unfinished_lanes_fall_back_to_scalar_rows(monkeypatch):
    H, sc = next(stress_links(1))
    # a tiny budget exhausts every lane, and a tiny KKT tolerance fails every
    # certificate; each row is then the row of solve_p1, whose evaluations
    # add to those the lane spent
    for name, value in (("_MAX_DUAL_ITERS", 3), ("_KKT_TOL", 1e-30)):
        monkeypatch.setattr(solver_module, name, value)
        opt = [r for r in sweep(H, sc, 50).rows if r.scheme == "optimal"]
        fell_back = 0
        for row in opt:
            cold = solve_p1(H, sc, row.gamma_target)
            a = cold.allocation
            assert row.status == cold.status
            assert (row.crb, row.rate, row.mu, row.v, row.kkt_residual) == (
                crb_from_powers(a.p, sc.sigma_s2, sc.Ns, sc.L),
                rate_from_powers(H.lambdas2, a.p, sc.sigma_c2), a.mu, a.v, a.kkt_residual)
            if a.mu > 0.0:
                assert cold.status == "iteration_limit"
                assert 1 <= row.iterations - a.iterations <= solver_module._MAX_DUAL_ITERS
                fell_back += 1
        assert fell_back > 40
        monkeypatch.undo()

    # a lane whose power map turns non-finite stops after that evaluation
    # and falls back alone; the other lanes finish in lockstep
    power_map = solver_module._power_map_lanes
    calls = []

    def poisoned(g, k, mu, v):
        out = power_map(g, k, mu, v)
        if not calls:
            out[1][0] = math.nan  # S of the first lane, on the first pass
        calls.append(mu.size)
        return out

    monkeypatch.setattr(solver_module, "_power_map_lanes", poisoned)
    opt = [r for r in sweep(H, sc, 50).rows if r.scheme == "optimal"]
    assert all(r.status == "optimal" for r in opt)
    first = next(r for r in opt if r.mu > 0.0)
    a = solve_p1(H, sc, first.gamma_target).allocation
    assert (first.crb, first.rate, first.mu, first.v) == (
        crb_from_powers(a.p, sc.sigma_s2, sc.Ns, sc.L),
        rate_from_powers(H.lambdas2, a.p, sc.sigma_c2), a.mu, a.v)
    assert first.iterations == 1 + a.iterations
    assert calls[1] == calls[0] - 1


def test_scalar_searched_rows_get_no_second_opinion(monkeypatch):
    # a 10-point sweep has fewer dual budgets than _LOCKSTEP_MIN_BUDGETS, so
    # each runs the scalar search of solve_p1 once; an iteration_limit row
    # is not searched again, and counts the evaluations of its one search
    H, sc = next(stress_links(1))
    monkeypatch.setattr(solver_module, "_MAX_DUAL_ITERS", 3)
    search = solver_module._solve_dual
    calls = []

    def spy(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(solver_module, "_solve_dual", spy)
    opt = [r for r in sweep(H, sc, 10).rows if r.scheme == "optimal"]
    limited = [r for r in opt if r.status == "iteration_limit"]
    assert len(limited) == 9 and len(calls) == 9
    assert all(r.iterations == 3 for r in limited)


def _assert_split_rows_are_best_at_crb(res, benches):
    for scheme, bench in benches.items():
        rows = [r for r in res.rows if r.scheme == scheme]
        assert len(rows) == len(res.rows) // 4
        for row in rows:
            pt = best_at_crb(bench.points, row.gamma_target)
            if pt is None:
                assert row.status == "no_feasible_point"
                assert math.isnan(row.crb) and math.isnan(row.rate)
            else:
                assert row.status == "ok"
                assert (row.crb, row.rate) == (pt.crb, pt.rate), (scheme, row, pt)


@pytest.mark.parametrize("P", [8.0, 80.0, 800.0])
@pytest.mark.parametrize("case", ["scenario1", "scenario2"])
def test_split_rows_equal_best_at_crb(case, P, request):
    # the EP/SEM rows are selected on the split's CRB and rate arrays; each
    # must be the point best_at_crb picks from the split's points
    H, sc = request.getfixturevalue(case)
    sc = dataclasses.replace(sc, P=P)
    res = sweep(H, sc, 50)
    benches = {"ep": power_split_ep(H, sc), "sem": power_split_sem(H, sc)}
    assert any(math.isinf(c) for b in benches.values() for c in b.crb.tolist())
    _assert_split_rows_are_best_at_crb(res, benches)


def test_split_rows_on_ties_infinite_crbs_and_no_feasible_point(scenario2, monkeypatch):
    # hand-made splits: tied rates (the first listed wins), equal CRBs,
    # infinite CRBs, and a first threshold that no point fits under
    H, sc = scenario2
    lo = crb_min_point(H, sc)[1].crb
    crb = np.array([math.inf, 2.0, 1.5, 2.0, 1.0 + 1e-9, math.inf, 5.0, 2.0]) * lo
    rate = np.array([9.0, 3.0, 3.0, 3.0, 1.0, 9.0, 4.0, 2.0])
    benches = {}

    def split(scheme, order):
        def maker(H, sc):
            benches[scheme] = BetaSweep(betas=np.linspace(0.0, 1.0, crb.size),
                                        crb=crb[order], rate=rate[order])
            return benches[scheme]
        return maker

    monkeypatch.setattr(sweep_module, "power_split_ep", split("ep", np.arange(crb.size)))
    monkeypatch.setattr(sweep_module, "power_split_sem", split("sem", np.arange(crb.size)[::-1]))
    res = sweep(H, sc, 40, crb_cap=10.0 * lo)
    _assert_split_rows_are_best_at_crb(res, benches)
    statuses = {(r.scheme, r.status) for r in res.rows}
    assert {("ep", "no_feasible_point"), ("ep", "ok"),
            ("sem", "no_feasible_point"), ("sem", "ok")} <= statuses
