import dataclasses
import importlib
import math

import numpy as np
import pytest

from battery import stress_links
from isac_pareto.closed_form import crb_min_point, rate_max_point
from isac_pareto.metrics import crb_from_powers, rate_from_powers, trace_budget
from isac_pareto.scenario import ChannelMatrix, Scenario, preset_scenario, rician_channel
from isac_pareto.solver import _certify, _solution_paths, solve_p1
from isac_pareto.sweep import sweep

# the package root re-exports the function ``sweep`` under the module's name
sweep_module = importlib.import_module("isac_pareto.sweep")
solver_module = importlib.import_module("isac_pareto.solver")

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

    # a raising lockstep search falls back to one solve_p1 per row; a solve
    # that raises becomes an "error: <message>" row, and the rows after it
    # are still solved
    def batch_raising(*args):
        raise FloatingPointError("overflow in the lockstep search")

    monkeypatch.setattr(sweep_module, "_lockstep_dual", batch_raising)
    solve = sweep_module.solve_p1
    broken = res.gammas[2]

    def raising(H, scenario, gamma):
        if gamma == broken:
            raise FloatingPointError("overflow in the dual search")
        return solve(H, scenario, gamma)

    monkeypatch.setattr(sweep_module, "solve_p1", raising)
    with pytest.warns(RuntimeWarning, match="overflow in the lockstep search"):
        opt = [r for r in sweep(H, sc, 6).rows if r.scheme == "optimal"]
    assert opt[2].status == "error: overflow in the dual search"
    assert math.isnan(opt[2].crb) and math.isnan(opt[2].rate)
    assert all(r.status == "optimal" for r in opt[:2] + opt[3:])


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
    # Dual-path rows are compared with the closed-form metrics of the cold
    # allocation, not with solve_p1's eigvalsh path, whose rate strays from
    # them on rank-1 line-of-sight links at high power (1.0e-10 relative on
    # link 9, at P = 4.9e5).  Rows off the dual path come from solve_p1
    # itself and must equal it exactly.
    # On full-rank links at high power the multipliers are ill-determined:
    # the stationarity equations v - mu/p_i^2 = g_i/((1 + g_i p_i) ln 2) are
    # nearly parallel across subchannels, and two certified searches can
    # differ by 1e-4 in mu and v.  So the multipliers of a row must instead
    # certify the cold allocation.
    lanes = 0
    for H, sc in stress_links(40):
        opt = [r for r in sweep(H, sc, 50).rows if r.scheme == "optimal"]
        gts = [trace_budget(r.gamma_target, sc.sigma_s2, sc.Ns, sc.L) for r in opt]
        paths, _ = _solution_paths(H, sc, gts)
        gs = [float(x) / sc.sigma_c2 for x in H.lambdas2]
        for row, path, gt in zip(opt, paths, gts):
            cold = solve_p1(H, sc, row.gamma_target)
            assert row.status == cold.status, (sc, row)
            a = cold.allocation
            if path != "dual":
                assert (row.crb, row.rate, row.iterations) == (
                    cold.achieved.crb, cold.achieved.rate, a.iterations)
                assert _rel(row.mu, a.mu) == 0.0 and _rel(row.v, a.v) == 0.0
                continue
            lanes += 1
            crb = crb_from_powers(a.p, sc.sigma_s2, sc.Ns, sc.L)
            rate = rate_from_powers(H.lambdas2, a.p, sc.sigma_c2)
            assert _rel(row.crb, crb) <= 1e-9 and _rel(row.rate, rate) <= 1e-9, (sc, row, a)
            ok, _, _ = _certify(gs, sc.M, a.p.tolist(), row.mu, row.v, gt, sc.P)
            assert ok, (sc, row, a)
    assert lanes > 1000


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
                cold.achieved.crb, cold.achieved.rate, a.mu, a.v, a.kkt_residual)
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
    cold = solve_p1(H, sc, first.gamma_target)
    assert (first.crb, first.rate, first.mu, first.v) == (
        cold.achieved.crb, cold.achieved.rate, cold.allocation.mu, cold.allocation.v)
    assert first.iterations == 1 + cold.allocation.iterations
    assert calls[1] == calls[0] - 1
