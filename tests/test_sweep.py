import dataclasses
import math

import numpy as np
import pytest

from isac_pareto.closed_form import crb_min_point, rate_max_point
from isac_pareto.scenario import ChannelMatrix, Scenario, preset_scenario, rician_channel
from isac_pareto.solver import SolverSettings
from isac_pareto.sweep import sweep


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


def test_sweep_annotates_failures_without_aborting(scenario1):
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


@pytest.mark.parametrize("sc", [
    # low power, loose CRB budgets on the default grid: a wrong stationary
    # root at tiny mu used to stop the dual search short of optimality
    Scenario(M=15, Nc=5, Ns=12, L=200, P=0.010712083181864214, Kc=1e4, seed=14),
    dataclasses.replace(preset_scenario("scenario2", seed=1993161966), P=800.0),
], ids=["low_power_los", "scenario2_seed1993161966"])
def test_sweep_default_grid_all_optimal(sc):
    res = sweep(rician_channel(sc), sc, 50)
    opt = [r for r in res.rows if r.scheme == "optimal"]
    assert len(opt) == 50
    assert all(r.status == "optimal" for r in opt)


def test_sweep_rejects_single_point(scenario1):
    H, sc = scenario1
    with pytest.raises(ValueError):
        sweep(H, sc, 1)
