import dataclasses
import importlib
import math

import numpy as np
import pytest

from isac_pareto.closed_form import crb_min_point, rate_max_point
from isac_pareto.scenario import ChannelMatrix, Scenario, preset_scenario, rician_channel
from isac_pareto.solver import SolverSettings, _warm_start, solve_p1
from isac_pareto.sweep import sweep

# the package root re-exports the function ``sweep`` under the module's name
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
    settings = SolverSettings(max_dual_iters=2)
    res = sweep(H, sc, 6, settings=settings)
    opt = [r for r in res.rows if r.scheme == "optimal"]
    assert len(opt) == 6
    # the boundary point solves in closed form; tight interior ones cannot
    # converge in two iterations and must be annotated, not raised
    statuses = {r.status for r in opt}
    assert "iteration_limit" in statuses
    assert all(s in ("optimal", "iteration_limit") for s in statuses)

    # a solve that raises becomes an "error: <message>" row; the rows after
    # it are still solved
    solve = sweep_module.solve_p1
    broken = res.gammas[2]

    def raising(H, scenario, gamma, settings):
        if gamma == broken:
            raise FloatingPointError("overflow in the dual search")
        return solve(H, scenario, gamma, settings)

    monkeypatch.setattr(sweep_module, "solve_p1", raising)
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
    warm_evals = cold_evals = 0
    for row in opt:
        cold = solve_p1(H, sc, row.gamma_target)
        assert row.status == cold.status
        if row.status != "optimal":
            continue
        a = cold.allocation
        for got, want in ((row.crb, cold.achieved.crb), (row.rate, cold.achieved.rate),
                          (row.mu, a.mu), (row.v, a.v)):
            assert _rel(got, want) <= 1e-9, (row, a)
        warm_evals += row.iterations
        cold_evals += a.iterations
    # the continuation must actually save dual evaluations
    assert warm_evals < cold_evals


@pytest.mark.parametrize("P", [8.0, 80.0, 800.0])
@pytest.mark.parametrize("case", ["scenario1", "scenario2"])
def test_sweep_warm_start_matches_cold_solves(case, P, request):
    H, sc = request.getfixturevalue(case)
    _assert_rows_match_cold_solves(H, dataclasses.replace(sc, P=P), 50)


@pytest.mark.parametrize("sc", FORMER_FAILURES, ids=FORMER_FAILURE_IDS)
def test_sweep_warm_start_matches_cold_solves_on_former_failures(sc):
    _assert_rows_match_cold_solves(rician_channel(sc), sc, 50)


def test_bad_warm_start_falls_back_to_cold_solve(scenario1):
    H, sc = scenario1
    _, pt_min = crb_min_point(H, sc)
    gamma = 3.0 * pt_min.crb
    cold = solve_p1(H, sc, gamma)
    a = cold.allocation
    assert cold.status == "optimal" and a.mu > 0.0
    # a budget that the cold search just meets: the warm search from a
    # multiplier twelve orders of magnitude off exhausts it, is discarded,
    # and the cold search then runs with a budget of its own
    settings = SolverSettings(max_dual_iters=a.iterations)
    with _warm_start((a.mu * 1e12, a.v)):
        warm = solve_p1(H, sc, gamma, settings)
    assert warm.status == "optimal"
    assert warm.allocation.iterations == 2 * a.iterations
    assert warm.allocation.mu == a.mu and warm.allocation.v == a.v
    np.testing.assert_array_equal(warm.allocation.p, a.p)
    assert (warm.achieved.crb, warm.achieved.rate) == (cold.achieved.crb, cold.achieved.rate)
    # the start applies inside the block only
    again = solve_p1(H, sc, gamma, settings)
    assert again.allocation.iterations == a.iterations
