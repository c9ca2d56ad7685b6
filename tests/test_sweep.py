import dataclasses
import importlib
import math
import sys

import numpy as np
import pytest

from battery import near_p0_links, stress_links
from isac_pareto.benchmarks import BetaSweep, best_at_crb, power_split_ep, power_split_sem
from isac_pareto.closed_form import crb_min_point, p0_threshold, rate_max_point
from isac_pareto.metrics import crb_from_powers, rate_from_powers, trace_budget
from isac_pareto.scenario import ChannelMatrix, Scenario, preset_scenario, rician_channel
from isac_pareto.solver import solve_p1
from isac_pareto.sweep import DEFAULT_SCHEMES, sweep

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


def test_sweep_first_point_is_isotropic(scenario1, scenario2):
    # the grid starts at the minimum CRB, whose row is the equal split and
    # optimal, on every channel and under any cap, a cap at or below the
    # minimum included; so no sweep has only infeasible optimal rows
    stress = next(stress_links(1))
    for (H, sc), cap in ((scenario1, None), (scenario2, None), (stress, None),
                         (scenario1, 1.0), (scenario2, 0.5)):
        _, pt_min = crb_min_point(H, sc)
        res = sweep(H, sc, 12, crb_cap=None if cap is None else cap * pt_min.crb)
        rows = [r for r in res.rows if r.scheme == "optimal"]
        first = rows[0]
        assert first.status == "optimal"
        assert first.crb == pytest.approx(pt_min.crb, rel=1e-8)
        assert first.rate == pytest.approx(pt_min.rate, abs=1e-8)
        if cap is not None:
            assert [r.status for r in rows] == ["optimal"] * 12


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


def test_sweep_thresholds_are_python_floats(scenario1, scenario2):
    # every row of every scheme carries its threshold as a Python float, not
    # a numpy scalar: on the capped scenario1 (time switching not
    # applicable), on the finite scenario2 and on a box region, whose grid
    # repeats the minimum CRB
    cases = [(*scenario1, 8), (*scenario2, 8),
             (ChannelMatrix.from_matrix(np.eye(4) * 2.0),
              Scenario(M=4, Nc=4, Ns=12, L=200, P=1000.0), 3)]
    for H, sc, n in cases:
        rows = sweep(H, sc, n).rows
        assert {r.scheme for r in rows} == set(DEFAULT_SCHEMES)
        assert all(type(r.gamma_target) is float for r in rows), sc


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


def test_sweep_rejects_a_threshold_too_loose_for_the_dual_search(scenario1):
    # scenario1 (rank 6, M = 8, P = 800) capped at 1e305: the cap's trace
    # budget, 1.7e306, is finite, but in the dual search's units of P it
    # overflows, and far below that the search would need a subnormal CRB
    # multiplier.  The error names the loosest threshold and the largest
    # searchable one.  The sweep used to warn and report 33 iteration_limit
    # rows.
    H, sc = scenario1
    with pytest.raises(ValueError, match=r"CRB threshold 1e\+305 is too loose .* above 2\.65263e\+150"):
        sweep(H, sc, 50, crb_cap=1e305)


def _assert_row_is_cold_solve(H, sc, row):
    # the row is the cold solve_p1 of its threshold, bit for bit: the same
    # status, multipliers, evaluations and KKT residual, and its crb and
    # rate are the closed forms of the cold powers
    cold = solve_p1(H, sc, row.gamma_target)
    a = cold.allocation
    assert row.status == cold.status == "optimal", (sc, row)
    assert [x.hex() for x in (row.mu, row.v, row.kkt_residual)] == [
        x.hex() for x in (a.mu, a.v, a.kkt_residual)], (sc, row, a)
    assert row.iterations == a.iterations, (sc, row, a)
    assert (row.crb, row.rate) == (crb_from_powers(a.p, sc.sigma_s2, sc.Ns, sc.L),
                                   rate_from_powers(H.lambdas2, a.p, sc.sigma_c2)), (sc, row, a)


def _assert_rows_match_cold_solves(H, sc, n_points):
    res = sweep(H, sc, n_points)
    opt = [r for r in res.rows if r.scheme == "optimal"]
    assert len(opt) == n_points
    for row in opt:
        _assert_row_is_cold_solve(H, sc, row)


@pytest.mark.parametrize("P", [8.0, 80.0, 800.0])
@pytest.mark.parametrize("case", ["scenario1", "scenario2"])
def test_sweep_rows_are_cold_solves(case, P, request):
    H, sc = request.getfixturevalue(case)
    _assert_rows_match_cold_solves(H, dataclasses.replace(sc, P=P), 50)


@pytest.mark.parametrize("sc", FORMER_FAILURES, ids=FORMER_FAILURE_IDS)
def test_sweep_rows_are_cold_solves_on_former_failures(sc):
    _assert_rows_match_cold_solves(rician_channel(sc), sc, 50)


def test_lockstep_rows_match_cold_solves_on_stress_links():
    # every rank, Rician factor and 8 decades of power on the default grid.
    # A row's crb and rate are the closed forms of its powers, so they are
    # compared with the closed forms of the cold allocation, not with
    # solve_p1's eigvalsh path.  515 of these 2000 rows were not their cold
    # solves while the lockstep search summed each lane pairwise and took
    # numpy's exp and log: on full-rank links at high power the stationarity
    # equations are nearly parallel across subchannels, and a last-digit
    # difference moved certified multipliers by up to 1e-4
    rows = lanes = 0
    for H, sc in stress_links(40):
        for row in sweep(H, sc, 50).rows:
            if row.scheme == "optimal":
                _assert_row_is_cold_solve(H, sc, row)
                rows += 1
                lanes += row.mu > 0.0
    assert rows == 2000 and lanes > 1000


def test_near_p0_sweeps_stay_optimal(monkeypatch):
    # just above p0_threshold the weakest water-filled subchannel is nearly
    # dry, and a first-order prediction of the CRB residual can have the
    # wrong sign; the dual searches move their log-mu bracket only on a
    # measured residual, so such a prediction cannot shut out the root.
    # There C can move by more than the KKT tolerance between neighbouring
    # floats of log mu, and a converged search whose last evaluation is over
    # the budget hands back its own evaluation at the bracket's feasible end
    # as well, which is certified instead.  Every row is optimal (4 of the
    # 6000 were not before that second candidate, and 325 when predictions
    # moved the bracket), and no lane needs sweep's second opinion.  The
    # search is sensitive to an ulp here: link 117's lane at row 48 takes
    # the 24 evaluations of its scalar twin, where numpy's exp and log, an
    # ulp off libm's, led it to 23
    calls = []
    monkeypatch.setattr(sweep_module, "solve_p1",
                        lambda *args, f=sweep_module.solve_p1: calls.append(args) or f(*args))
    rows = [r for H, sc in near_p0_links()
            for r in sweep(H, sc, 50, schemes=("optimal",)).rows]
    assert len(rows) == 6000
    assert sum(r.status != "optimal" for r in rows) == 0
    assert calls == [] and rows[117 * 50 + 48].iterations == 24


def test_sweeps_evaluate_power_maps_only_inside_the_searches(monkeypatch):
    # each search hands back the evaluations it certifies, so nothing after
    # it evaluates a power map; on the near-p0 battery's 50-point sweeps the
    # finish of _solve_budgets used to evaluate 12 feasible ends once more
    outside = []
    for name in ("_power_map", "_power_map_lanes"):
        def spy(*args, f=getattr(solver_module, name)):
            caller = sys._getframe(1).f_code.co_name
            if caller != "_dual_searches":
                outside.append(caller)
            return f(*args)

        monkeypatch.setattr(solver_module, name, spy)
    rows = [r for H, sc in near_p0_links()
            for r in sweep(H, sc, 50, schemes=("optimal",)).rows]
    assert len(rows) == 6000 and outside == []


def test_row_multipliers_are_supergradients_of_the_frontier(scenario1, scenario2):
    # P1 is convex in p, so its optimal rate R(gamma_tilde) is concave and
    # nondecreasing in the trace budget, and the CRB multiplier of an
    # optimal row is a supergradient of it (Lagrange sensitivity):
    # R_j <= R_i + mu_i (gamma_tilde_j - gamma_tilde_i) for every pair of
    # optimal rows.  This checks each row's rate and multiplier against
    # every other row, with no oracle and no solver code.  Equal-split rows
    # (mu NaN) give no tangent; water-filling rows (mu = 0) do.  The worst
    # excess measured is 2.5e-15 of the larger rate.  Between neighbouring
    # points of a 50-point grid the tangent lies a few per cent of mu_i
    # times the budget step above the chord, so this catches an error of a
    # few per cent in one row's mu (5% in the 26th row of every sweep, not
    # 3%), but not one of 1e-6: the certificate guards that
    links = [(H, dataclasses.replace(sc, P=P)) for H, sc in (scenario1, scenario2)
             for P in (8.0, 80.0, 800.0)]
    links += [*stress_links(120), *near_p0_links()]
    tangents = 0
    for H, sc in links:
        rows = [r for r in sweep(H, sc, 50, schemes=("optimal",)).rows if r.status == "optimal"]
        gt = np.array([trace_budget(r.gamma_target, sc.sigma_s2, sc.Ns, sc.L) for r in rows])
        rate = np.array([r.rate for r in rows])
        mu = np.array([r.mu for r in rows])
        i = ~np.isnan(mu)
        excess = rate - rate[i, None] - mu[i, None] * (gt - gt[i, None])
        assert (excess <= 1e-14 * np.maximum(rate, rate[i, None])).all(), sc
        tangents += i.sum()
    assert tangents > 12000


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
    # its searches take the scalar power map of solve_p1; an iteration_limit
    # row is not searched again, and counts the evaluations of its one search
    H, sc = next(stress_links(1))
    monkeypatch.setattr(solver_module, "_MAX_DUAL_ITERS", 3)
    search, power_map = solver_module._dual_searches, solver_module._power_map
    calls, evaluations = [], []

    def spy(gs, m, gts, ends, lanes):
        calls.append((len(gts), lanes))
        return search(gs, m, gts, ends, lanes)

    monkeypatch.setattr(solver_module, "_dual_searches", spy)
    monkeypatch.setattr(solver_module, "_power_map",
                        lambda *args: evaluations.append(args) or power_map(*args))
    opt = [r for r in sweep(H, sc, 10).rows if r.scheme == "optimal"]
    limited = [r for r in opt if r.status == "iteration_limit"]
    assert len(limited) == 9 and calls == [(9, False)] and len(evaluations) == 9 * 3
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
