"""Tests of the benchmark's own checks and tracer.

Each check must pass a correct output and reject a wrong one.  Run from the
repository root:  python3 -m pytest -q isacbench/test_checks.py
"""

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import isac_pareto as api  # noqa: E402
import isac_pareto.cli as cli  # noqa: E402
from tracing import Spec, TraceError, Tracer  # noqa: E402
from workloads import _as_dict, _scenario_config  # noqa: E402

POINTS = 12


def _sweep_csv(tmp_path, preset, P, seed=5):
    cfg = _scenario_config(preset, P, seed)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", str(path), "--points", str(POINTS), "--out", str(out)]) == 0
    H = api.rician_channel(api.Scenario(**cfg)).H
    return out, H, cfg


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def _optimal(rows):
    opt = [r for r in rows if r["scheme"] == "optimal"]
    return sorted(opt, key=lambda r: float(r["gamma_target"]))


@pytest.mark.parametrize("preset,P", [("scenario1", 800.0), ("scenario2", 800.0),
                                      ("scenario2", 8.0)])
def test_frontier_accepts_cli_output(tmp_path, preset, P):
    out, H, cfg = _sweep_csv(tmp_path, preset, P)
    assert checks.check_frontier_csv(out, H, cfg, POINTS) is True


def test_frontier_rejects_dented_point(tmp_path):
    out, H, cfg = _sweep_csv(tmp_path, "scenario2", 800.0)

    def dent(rows):
        # push one point 1e-6 under the chord of its neighbours
        a, row, b = _optimal(rows)[POINTS // 2 - 1: POINTS // 2 + 2]
        g = [float(r["gamma_target"]) for r in (a, row, b)]
        w = (g[1] - g[0]) / (g[2] - g[0])
        ra, rb = float(a["rate_bps_hz"]), float(b["rate_bps_hz"])
        row["rate_bps_hz"] = repr(ra + w * (rb - ra) - 1e-6)

    _edit_csv(out, dent)
    with pytest.raises(checks.CheckError, match="concave"):
        checks.check_frontier_csv(out, H, cfg, POINTS)


def test_frontier_rejects_baseline_above_frontier(tmp_path):
    out, H, cfg = _sweep_csv(tmp_path, "scenario1", 800.0)

    def lift(rows):
        ep = [r for r in rows if r["scheme"] == "ep" and math.isfinite(float(r["rate_bps_hz"]))]
        ep[-1]["rate_bps_hz"] = repr(float(ep[-1]["rate_bps_hz"]) + 1.0)

    _edit_csv(out, lift)
    with pytest.raises(checks.CheckError, match="beats the optimal"):
        checks.check_frontier_csv(out, H, cfg, POINTS)


def test_frontier_rejects_wrong_endpoint(tmp_path):
    out, H, cfg = _sweep_csv(tmp_path, "scenario2", 800.0)

    def shift(rows):
        for r in rows:
            if r["scheme"] == "optimal":
                r["rate_bps_hz"] = repr(float(r["rate_bps_hz"]) + 1e-6)

    _edit_csv(out, shift)
    with pytest.raises(checks.CheckError, match="isotropic"):
        checks.check_frontier_csv(out, H, cfg, POINTS)


def test_frontier_counts_non_optimal_row_as_failed(tmp_path):
    out, H, cfg = _sweep_csv(tmp_path, "scenario1", 80.0)
    _edit_csv(out, lambda rows: _optimal(rows)[3].update(status="iteration_limit"))
    assert checks.check_frontier_csv(out, H, cfg, POINTS) is False


def _solve(factor, M=6, Nc=4, P=5.0):
    sc = api.Scenario(M=M, Nc=Nc, Ns=12, L=200, P=P, Kc=1.0, seed=3)
    H = api.rician_channel(sc)
    _, lo = api.crb_min_point(H, sc)
    gamma = factor * lo.crb
    rep = api.solve_p1(H, sc, gamma)
    assert rep.status == "optimal"
    return H, sc, gamma, rep


def _check(H, sc, gamma, rep, Q=None):
    a = rep.allocation
    Q = rep.Q.Q if Q is None else Q
    crb = float(sc.sigma_s2 * sc.Ns / sc.L * np.trace(np.linalg.inv(Q)).real)
    W = np.eye(sc.Nc) + H.H @ Q @ H.H.conj().T / sc.sigma_c2
    rate = float(np.linalg.slogdet(W)[1] / math.log(2.0))
    checks.check_solve(H.H, _as_dict(sc), gamma, Q, a.mu, a.v, crb, rate)


@pytest.mark.parametrize("factor", [1.01, 3.0, 1e3])
def test_solve_check_accepts_solver_output(factor):
    H, sc, gamma, rep = _solve(factor)
    _check(H, sc, gamma, rep)


def test_solve_check_accepts_waterfilling_solve():
    H, sc, gamma, rep = _solve(1e3, M=4, Nc=6, P=50.0)
    assert rep.allocation.mu == 0.0
    _check(H, sc, gamma, rep)


def test_solve_check_rejects_isotropic_at_loose_budget():
    H, sc, gamma, rep = _solve(30.0)
    iso = (sc.P / sc.M) * np.eye(sc.M, dtype=complex)
    with pytest.raises(checks.CheckError, match="below the dual bound"):
        _check(H, sc, gamma, rep, Q=iso)


def test_solve_check_rejects_power_overshoot():
    H, sc, gamma, rep = _solve(3.0)
    with pytest.raises(checks.CheckError, match="exceeds the power"):
        _check(H, sc, gamma, rep, Q=rep.Q.Q * (1.0 + 1e-6))


def test_solve_check_rejects_crb_overshoot():
    H, sc, gamma, rep = _solve(3.0)
    with pytest.raises(checks.CheckError, match="exceeds the threshold"):
        checks.check_solve(H.H, _as_dict(sc), gamma * (1.0 - 1e-6), rep.Q.Q,
                           rep.allocation.mu, rep.allocation.v,
                           rep.achieved.crb, rep.achieved.rate)


def test_solve_check_rejects_misreported_rate():
    H, sc, gamma, rep = _solve(3.0)
    a = rep.allocation
    with pytest.raises(checks.CheckError, match="reported rate"):
        checks.check_solve(H.H, _as_dict(sc), gamma, rep.Q.Q, a.mu, a.v,
                           rep.achieved.crb, rep.achieved.rate + 1e-6)


def _oracle_case(M):
    sc = api.Scenario(M=M, Nc=3, Ns=12, L=200, P=20.0, Kc=0.0, seed=11)
    H = api.rician_channel(sc)
    _, lo = api.crb_min_point(H, sc)
    rep = api.solve_p1(H, sc, 4.0 * lo.crb)
    gains = checks.channel_gains(H.H, M, sc.sigma_c2)
    return H, sc, rep, gains


def test_oracle_check_accepts_and_rejects_rate_offset():
    H, sc, rep, gains = _oracle_case(3)
    dual = api.oracle_dual_grid(H.lambdas2, sc.M, sc.sigma_c2, sc.P, rep.gamma_tilde)
    primal = api.oracle_primal_grid(H.lambdas2, sc.M, sc.sigma_c2, sc.P, rep.gamma_tilde, 120)
    rate = rep.achieved.rate
    checks.check_oracle(gains, sc.P, rep.gamma_tilde, dual.p, rate, primal=False)
    checks.check_oracle(gains, sc.P, rep.gamma_tilde, primal.p, rate, primal=True)
    off = 1e-4 * max(1.0, rate)
    with pytest.raises(checks.CheckError, match="dual-grid"):
        checks.check_oracle(gains, sc.P, rep.gamma_tilde, dual.p, rate + off, primal=False)
    with pytest.raises(checks.CheckError, match="primal-grid"):
        checks.check_oracle(gains, sc.P, rep.gamma_tilde, primal.p, rate + 2e-4, primal=True)


def test_oracle_check_rejects_infeasible_powers():
    H, sc, rep, gains = _oracle_case(4)
    p = rep.allocation.p
    checks.check_oracle(gains, sc.P, rep.gamma_tilde, p, rep.achieved.rate, primal=False)
    with pytest.raises(checks.CheckError, match="power budget"):
        checks.check_oracle(gains, sc.P, rep.gamma_tilde, p * 1.001, rep.achieved.rate,
                            primal=False)
    shifted = p.copy()
    shifted[-1] *= 0.9
    shifted[0] += p[-1] * 0.1
    with pytest.raises(checks.CheckError, match="CRB budget"):
        checks.check_oracle(gains, sc.P, rep.gamma_tilde, shifted, rep.achieved.rate,
                            primal=False)


def test_tracer_counts_and_restores():
    sweep_mod = sys.modules["isac_pareto.sweep"]
    orig = api.solve_p1
    tracer = Tracer()
    tracer.install()
    try:
        assert api.solve_p1 is not orig and sweep_mod.solve_p1 is not orig
        H, sc, gamma, _ = _solve(3.0)      # untraced while inactive
        tracer.active = True
        api.solve_p1(H, sc, gamma)
        api.solve_p1(H, sc, gamma)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert api.solve_p1 is orig and sweep_mod.solve_p1 is orig
    layer = tracer.layer_metrics()
    assert layer["solver.calls"][0] == 2
    assert layer["metrics.eig_calls"][0] == 4
    assert layer["solver.root_calls"][0] > 0
    assert layer["solver.solve_ms"][0] > 0.0


def test_tracer_fails_on_missing_name():
    tracer = Tracer([Spec("solver", "no_such_function", "solve")])
    with pytest.raises(TraceError, match="no_such_function"):
        tracer.install()
