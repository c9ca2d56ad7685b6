"""Acceptance battery.

Each test checks one numbered acceptance criterion at its stated tolerance
and prints one pass/fail line (visible with ``pytest -s``).
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from battery import CASES, FIXTURES, gammas_for, iter_instances, load_channel
from isac_pareto.benchmarks import best_at_crb, power_split_ep, power_split_sem
from isac_pareto.closed_form import (
    asymptotic_allocation,
    crb_min_point,
    p0_threshold,
    rate_max_point,
    waterfill,
)
from isac_pareto.metrics import (
    rate,
    rate_from_powers,
    rotate_from_eigenbasis,
    trace_budget,
)
from isac_pareto.oracle import (
    oracle_dual_grid,
    oracle_primal_grid,
    sample_feasible_covariance,
)
from isac_pareto.scenario import Scenario, load_fixture, rician_channel
from isac_pareto.solver import (
    cubic_stationary_root,
    solve_p1,
    stationarity_residual,
)
from isac_pareto.sweep import sweep

INV_LN2 = 1.0 / math.log(2.0)


def _report(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({label}): {verdict} {detail}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def battery_solves():
    """Every battery instance solved once: list of (case, H, gamma, report)."""
    out = []
    for case, H, gamma in iter_instances():
        rep = solve_p1(H, case.scenario, gamma)
        out.append((case, H, gamma, rep))
    return out


def test_criterion_01_closed_form_endpoints(scenario1, scenario2):
    H1, sc1 = scenario1
    H2, sc2 = scenario2
    _, pt1 = crb_min_point(H1, sc1)
    _, pt2 = crb_min_point(H2, sc2)
    ok = abs(pt1.crb - 0.0048) <= 1e-12 and abs(pt2.crb - 0.0027) <= 1e-12
    _report(1, "closed-form endpoints", ok,
            f"crb_min = {pt1.crb!r}, {pt2.crb!r}")


def test_criterion_02_waterfilling_kkt_and_optimality():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_kkt = 0.0
    for seed in range(100):
        m = int(rng.integers(1, 9))
        lam2 = rng.uniform(0.02, 6.0, m)
        p_tot = float(rng.uniform(0.5, 50.0))
        s2 = float(rng.uniform(0.5, 2.0))
        wf = waterfill(lam2, s2, p_tot)
        nu = wf.water_level
        worst_kkt = max(worst_kkt, abs(wf.p.sum() - p_tot) / max(1.0, p_tot))
        for li, pi in zip(lam2, wf.p):
            if pi > 0.0:
                worst_kkt = max(worst_kkt, abs(nu - s2 / li - pi) / max(1.0, nu))
            elif nu > s2 / li * (1 + 1e-12):
                worst_kkt = max(worst_kkt, 1.0)
        best = rate_from_powers(lam2, wf.p, s2)
        w = rng.random((1000, m))
        fill = rng.random((1000, 1))
        rand_p = p_tot * fill * w / w.sum(axis=1, keepdims=True)
        rates = np.log1p(rand_p * lam2[None, :] / s2).sum(axis=1) * INV_LN2
        if best < rates.max() - 1e-12:
            worst_kkt = max(worst_kkt, 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst_kkt <= 1e-10 and elapsed < 1.0
    _report(2, "water-filling KKT + optimality", ok,
            f"worst residual {worst_kkt:.2e}, {elapsed:.2f}s")


def test_criterion_03_boundary_solve():
    worst_p = 0.0
    worst_rate = 0.0
    for case in CASES:
        H = load_channel(case)
        sc = case.scenario
        gt = sc.M * sc.M / sc.P
        rep = solve_p1(H, sc, gamma_tilde=gt)
        _, pt_min = crb_min_point(H, sc)
        worst_p = max(worst_p, float(np.abs(rep.allocation.p - sc.P / sc.M).max()))
        worst_rate = max(worst_rate, abs(rep.achieved.rate - pt_min.rate))
    ok = worst_p <= 1e-9 and worst_rate <= 1e-9
    _report(3, "boundary budget returns isotropic point", ok,
            f"worst |p - P/M| {worst_p:.2e}, worst rate dev {worst_rate:.2e}")


def test_criterion_04_slack_constraint_recovery():
    worst_p = 0.0
    worst_rate = 0.0
    checked = 0
    for case in CASES:
        H = load_channel(case)
        sc = case.scenario
        if H.r < sc.M or p0_threshold(H.lambdas2, sc.sigma_c2) >= sc.P:
            continue
        _, pt_max = rate_max_point(H, sc)
        wf = waterfill(H.lambdas2, sc.sigma_c2, sc.P, m=sc.M)
        for factor in (1.0, 1.8, 10.0):
            rep = solve_p1(H, sc, factor * pt_max.crb)
            if rep.status != "optimal":
                worst_p = math.inf
                continue
            worst_p = max(worst_p, float(np.abs(rep.allocation.p - wf.p).max()))
            worst_rate = max(worst_rate, abs(rep.achieved.rate - pt_max.rate))
            checked += 1
    ok = checked >= 6 and worst_p <= 1e-6 and worst_rate <= 1e-8
    _report(4, "slack CRB recovers water-filling", ok,
            f"{checked} solves, worst |p - wf| {worst_p:.2e}, rate dev {worst_rate:.2e}")


def test_criterion_05_oracle_equivalence(battery_solves):
    t0 = time.perf_counter()
    worst_dual = 0.0
    worst_primal = 0.0
    n = 0
    for case, H, gamma, rep in battery_solves:
        sc = case.scenario
        gt = rep.gamma_tilde
        orc = oracle_dual_grid(H.lambdas2, sc.M, sc.sigma_c2, sc.P, gt)
        r_orc = rate_from_powers(H.lambdas2, orc.p, sc.sigma_c2)
        dev = abs(rep.achieved.rate - r_orc) / max(1.0, rep.achieved.rate)
        worst_dual = max(worst_dual, dev)
        if sc.M <= 3:
            steps = 1000 if sc.M == 2 else 120
            pg = oracle_primal_grid(H.lambdas2, sc.M, sc.sigma_c2, sc.P, gt, steps)
            r_pg = rate_from_powers(H.lambdas2, pg.p, sc.sigma_c2)
            worst_primal = max(worst_primal, abs(rep.achieved.rate - r_pg))
        n += 1
    elapsed = time.perf_counter() - t0
    ok = n >= 20 and worst_dual <= 1e-5 and worst_primal <= 1e-4 and elapsed < 60.0
    _report(5, "oracle equivalence", ok,
            f"{n} instances, dual dev {worst_dual:.2e}, primal dev {worst_primal:.2e}, {elapsed:.1f}s")


def test_criterion_06_kkt_certification(battery_solves):
    # independent re-check of every optimality certificate
    violations = 0
    worst = 0.0
    for case, H, gamma, rep in battery_solves:
        sc = case.scenario
        assert rep.status == "optimal"
        a = rep.allocation
        gt = rep.gamma_tilde
        gs = H.lambdas2 / sc.sigma_c2
        r = H.r
        p = a.p
        stat = max(abs(stationarity_residual(float(pi), float(g), a.mu, a.v))
                   for g, pi in zip(gs, p[:r]))
        sens = 0.0
        if sc.M > r:
            sens = float(np.abs(p[r:] - math.sqrt(a.mu / a.v)).max())
        feas_p = float(p.sum()) - sc.P
        feas_c = float((1.0 / p).sum()) - gt
        comp_c = a.mu * abs(feas_c)
        comp_p = a.v * abs(feas_p)
        dual_val = (
            rate_from_powers(H.lambdas2, p, sc.sigma_c2)
            - a.mu * feas_c - a.v * feas_p
        )
        gap = abs(dual_val - rate_from_powers(H.lambdas2, p, sc.sigma_c2))
        gap_rel = gap / max(1.0, rep.achieved.rate)
        slack_scale = 1e-9 * max(1.0, gt, sc.P)
        checks = [
            stat <= 1e-9,
            sens <= 1e-9,
            feas_p <= 1e-9 * max(1.0, sc.P),
            feas_c <= 1e-9 * max(1.0, gt),
            comp_c <= slack_scale,
            comp_p <= slack_scale,
            gap_rel <= 1e-8,
        ]
        worst = max(worst, stat, sens, comp_c, comp_p)
        if not all(checks):
            violations += 1
    ok = violations == 0
    _report(6, "KKT certification", ok,
            f"{len(battery_solves)} solves, worst residual {worst:.2e}, {violations} violations")


def test_criterion_07_power_ordering(battery_solves):
    violations = 0
    for case, H, gamma, rep in battery_solves:
        p = rep.allocation.p
        slack = 1e-9 * max(1.0, float(p.max()))
        if np.any(np.diff(p) > slack) or p[-1] <= 0:
            violations += 1
        r = H.r
        if case.scenario.M > r and np.ptp(p[r:]) > slack:
            violations += 1
    ok = violations == 0
    _report(7, "monotone power ordering", ok,
            f"{len(battery_solves)} solves, {violations} violations")


def test_criterion_08_asymptotic_allocation():
    H = load_fixture(FIXTURES / "prop4_rank6.csv")
    sc = Scenario(M=8, Nc=6, Ns=12, L=200, P=1e6, Kc=0.0, seed=39)
    rep = solve_p1(H, sc, 0.1)
    ref = asymptotic_allocation(H.r, sc.M, sc.P, rep.gamma_tilde)
    rel = float(np.abs(rep.allocation.p / ref.p - 1.0).max())
    ok = rep.status == "optimal" and rel <= 1e-3
    _report(8, "large-power two-block split", ok, f"max rel dev {rel:.2e}")


def test_criterion_09_diagonal_restriction_suite(battery_solves):
    rng = np.random.default_rng(99)
    done = set()
    violations = 0
    total = 0
    for case, H, gamma, rep in battery_solves:
        if case.name in done:
            continue
        done.add(case.name)
        sc = case.scenario
        gt = rep.gamma_tilde
        opt_rate = rep.achieved.rate
        for _ in range(1000):
            q = sample_feasible_covariance(sc.M, sc.P, gt, rng)
            diag = np.diagonal(q).real
            r_full = rate(rotate_from_eigenbasis(q, H.Vc), H, sc.sigma_c2)
            r_diag = rate_from_powers(H.lambdas2, diag, sc.sigma_c2)
            ti_full = float((1.0 / np.linalg.eigvalsh(q)).sum())
            ti_diag = float((1.0 / diag).sum())
            total += 1
            if r_full > opt_rate + 1e-8:
                violations += 1
            if r_diag < r_full - 1e-8:
                violations += 1
            if ti_diag > ti_full * (1 + 1e-10):
                violations += 1
    ok = violations == 0
    _report(9, "diagonal-restriction property suite", ok,
            f"{total} samples across {len(done)} fixtures, {violations} violations")


def test_criterion_10_cubic_vs_bisection():
    rng = np.random.default_rng(20240809)
    n = 10000
    gs = 10.0 ** rng.uniform(-3, 3, n)
    mus = 10.0 ** rng.uniform(-6, 2, n)
    vs = 10.0 ** rng.uniform(-2, 2, n)
    # vectorized bisection reference
    hi = (INV_LN2 + np.sqrt(INV_LN2 ** 2 + 4 * mus * vs)) / (2 * vs)
    lo = np.zeros(n)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = INV_LN2 * gs / (1 + gs * mid) + mus / (mid * mid) - vs
        pos = f > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    ref = 0.5 * (lo + hi)
    worst_dev = 0.0
    worst_res = 0.0
    neg_disc = 0
    for g, mu, v, pr in zip(gs, mus, vs, ref):
        b = v / g - INV_LN2
        pd = (-mu / v) - b * b / (3 * v * v)
        qd = (-mu / (g * v)) - b * (-mu) / (3 * v * v) + 2 * b ** 3 / (27 * v ** 3)
        if qd * qd / 4 + pd ** 3 / 27 < 0:
            neg_disc += 1
        root = cubic_stationary_root(float(g), float(mu), float(v))
        worst_dev = max(worst_dev, abs(root - pr) / max(1.0, pr))
        worst_res = max(worst_res, abs(stationarity_residual(root, float(g), float(mu), float(v))))
    ok = worst_dev <= 1e-10 and worst_res <= 1e-10 and neg_disc >= 500 and n - neg_disc >= 500
    _report(10, "cubic roots vs bisection", ok,
            f"dev {worst_dev:.2e}, residual {worst_res:.2e}, {neg_disc} three-root cases")


def test_criterion_11_frontier_geometry(scenario1, scenario2):
    H1, sc1 = scenario1
    ok = True
    notes = []

    # dominance over the split benchmarks on shared grids, both scenarios
    for H, sc in (scenario1, scenario2):
        res = sweep(H, sc, 12)
        opt = {r.gamma_target: r for r in res.rows if r.scheme == "optimal"}
        for scheme in ("ep", "sem"):
            for row in res.rows:
                if row.scheme != scheme or not math.isfinite(row.rate):
                    continue
                if opt[row.gamma_target].rate < row.rate - 1e-8:
                    ok = False
                    notes.append(f"{scheme} beats optimal at {row.gamma_target}")

    # rank-deficient channel: rate approaches the no-sensing capacity
    _, pt_min = crb_min_point(H1, sc1)
    _, pt_max = rate_max_point(H1, sc1)
    res = sweep(H1, sc1, 20, crb_cap=2000.0 * pt_min.crb)
    tail = [r for r in res.rows if r.scheme == "optimal"][-1]
    gap = pt_max.rate - tail.rate
    if not gap <= 1e-3:
        ok = False
    notes.append(f"cap gap {gap:.2e}")

    # rate-vs-SNR shape: equal split catches up at high SNR, strongest
    # eigenmode is the nearest benchmark at the bottom of the range
    gamma = 0.1
    gaps = {}
    for snr in (16.0, 30.0, 50.0, 60.0):
        power = sc1.sigma_c2 * 10 ** (snr / 10)
        scen = dataclasses.replace(sc1, P=power)
        rep = solve_p1(H1, scen, gamma)
        ep = best_at_crb(power_split_ep(H1, scen).points, gamma)
        sem = best_at_crb(power_split_sem(H1, scen).points, gamma)
        gaps[snr] = (rep.achieved.rate, rep.achieved.rate - ep.rate,
                     rep.achieved.rate - sem.rate)
        if ep.rate > rep.achieved.rate + 1e-8 or sem.rate > rep.achieved.rate + 1e-8:
            ok = False
            notes.append(f"benchmark beats optimal at {snr} dB")
    for snr in (50.0, 60.0):
        r_opt, d_ep, _ = gaps[snr]
        if d_ep > 0.01 * r_opt:
            ok = False
            notes.append(f"equal split {d_ep / r_opt:.2%} off at {snr} dB")
    r_opt, d_ep, d_sem = gaps[16.0]
    if d_sem >= d_ep:
        ok = False
        notes.append("strongest-eigenmode not closest at the lowest SNR")
    _report(11, "frontier geometry", ok, "; ".join(notes))


def test_criterion_12_performance(scenario1):
    H, sc = scenario1
    t0 = time.perf_counter()
    res = sweep(H, sc, 50)
    sweep_time = time.perf_counter() - t0
    assert all(r.status == "optimal" for r in res.rows if r.scheme == "optimal")
    times = []
    for _ in range(10):
        t0 = time.perf_counter()
        solve_p1(H, sc, 0.0152)
        times.append(time.perf_counter() - t0)
    solve_time = sorted(times)[len(times) // 2]
    ok = sweep_time < 1.0 and solve_time < 0.010
    _report(12, "runtime", ok,
            f"50-point sweep {sweep_time * 1e3:.0f} ms, single solve {solve_time * 1e3:.2f} ms")
