"""Frontier sweep: endpoints, a geometric CRB-threshold grid, per-threshold
solves and benchmark curves matched to the same grid.

The optimal rows of all thresholds are solved together: one lockstep dual
search runs every threshold whose solution has both constraints tight
(:func:`solver._lockstep_dual`), and each row's CRB and rate come in closed
form from its eigenbasis powers.  A threshold off that path (the equal-split
boundary or water-filling), and a lane that ends without a passing KKT
certificate, is solved by :func:`solve_p1`, so every row gets the status a
:func:`solve_p1` call would give it.  The EP/SEM rows come from closed-form
metrics of the split powers and one batched selection per scheme
(:func:`best_at_crbs`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .benchmarks import (
    NotApplicableError,
    best_at_crbs,
    power_split_ep,
    power_split_sem,
    time_switching,
)
from .closed_form import crb_min_point, rate_max_point
from .metrics import CRPoint, crb_from_powers, rate_from_powers, trace_budget
from .scenario import ChannelMatrix, Scenario
from .solver import _lockstep_dual, solve_p1

__all__ = ["DEFAULT_SCHEMES", "SweepRow", "SweepResult", "sweep"]

DEFAULT_SCHEMES = ("optimal", "ep", "sem", "time_switch")

# When the rate-maximizing covariance is rank deficient the frontier has no
# finite right endpoint; the grid is then capped at this multiple of the
# minimum CRB (display convention, flagged by SweepResult.capped).
AUTO_CAP_FACTOR = 100.0


@dataclass
class SweepRow:
    """One row of a sweep.  On an ``optimal``-scheme row, ``iterations``
    counts power-map evaluations: those of the threshold's lockstep lane,
    plus those of its :func:`solve_p1` fallback if it had one."""

    scheme: str
    gamma_target: float
    crb: float
    rate: float
    mu: float = math.nan
    v: float = math.nan
    iterations: int = 0
    kkt_residual: float = math.nan
    status: str = "ok"


@dataclass
class SweepResult:
    rows: list[SweepRow]
    gammas: np.ndarray
    crb_min: float
    crb_cap: float
    capped: bool
    endpoint_min: CRPoint
    endpoint_max: CRPoint

    def points(self, scheme: str) -> list[CRPoint]:
        """Finite rows of one scheme as CRPoints, grid order."""
        return [
            CRPoint(crb=row.crb, rate=row.rate, gamma_target=row.gamma_target,
                    scheme=row.scheme)
            for row in self.rows
            if row.scheme == scheme and math.isfinite(row.rate)
        ]


def _solve_row(H, scenario, gamma, spent: int = 0) -> SweepRow:
    # one row by solve_p1; ``spent`` evaluations of a discarded lane count too
    try:
        rep = solve_p1(H, scenario, gamma)
    except Exception as exc:  # annotate, never abort the sweep
        return SweepRow("optimal", gamma, math.nan, math.nan, status=f"error: {exc}")
    if rep.allocation is None:
        return SweepRow("optimal", gamma, math.nan, math.nan, status=rep.status)
    a = rep.allocation
    return SweepRow("optimal", gamma, rep.achieved.crb, rep.achieved.rate,
                    mu=a.mu, v=a.v, iterations=spent + a.iterations,
                    kkt_residual=a.kkt_residual, status=rep.status)


def _optimal_rows(H, scenario, gammas) -> list[SweepRow]:
    gamma_tildes = [trace_budget(g, scenario.sigma_s2, scenario.Ns, scenario.L)
                    for g in gammas]
    try:
        allocs, certified = _lockstep_dual(H, scenario, gamma_tildes)
    except Exception as exc:  # never abort the sweep: solve each row on its own
        warnings.warn(f"lockstep dual search failed ({exc!r}); solving each threshold alone",
                      RuntimeWarning, stacklevel=3)
        return [_solve_row(H, scenario, g) for g in gammas]
    done = [a for a, ok in zip(allocs, certified) if ok]
    p = np.array([a.p for a in done]).reshape(len(done), scenario.M)
    metrics = zip(crb_from_powers(p, scenario.sigma_s2, scenario.Ns, scenario.L).tolist(),
                  rate_from_powers(H.lambdas2, p, scenario.sigma_c2).tolist())
    rows = []
    for g, a, ok in zip(gammas, allocs, certified):
        if ok:
            crb, rate = next(metrics)
            rows.append(SweepRow("optimal", g, crb, rate, mu=a.mu, v=a.v,
                                 iterations=a.iterations, kkt_residual=a.kkt_residual,
                                 status="optimal"))
        else:
            rows.append(_solve_row(H, scenario, g, 0 if a is None else a.iterations))
    return rows


def sweep(H: ChannelMatrix, scenario: Scenario, n_points: int,
          crb_cap: float | str = "auto",
          schemes=DEFAULT_SCHEMES) -> SweepResult:
    """Trace the frontier and benchmark curves over a geometric CRB grid.

    The grid runs from the minimum CRB to the rate-maximization endpoint
    when that is finite, else to ``crb_cap`` (``"auto"`` = 100x the minimum);
    a numeric ``crb_cap`` also caps a finite endpoint and must be positive
    and finite.  Benchmark rows report, for each grid threshold, the best
    sweep point whose CRB fits under it.
    """
    if n_points < 2:
        raise ValueError(f"need at least two grid points, got {n_points}")
    if crb_cap != "auto":
        crb_cap = float(crb_cap)
        if not (math.isfinite(crb_cap) and crb_cap > 0.0):
            raise ValueError(
                f"crb_cap must be 'auto' or a positive finite number, got {crb_cap}")
    _, pt_min = crb_min_point(H, scenario)
    _, pt_max = rate_max_point(H, scenario)
    lo = pt_min.crb
    capped = not math.isfinite(pt_max.crb)
    if capped:
        hi = AUTO_CAP_FACTOR * lo if crb_cap == "auto" else crb_cap
    else:
        hi = pt_max.crb if crb_cap == "auto" else min(pt_max.crb, crb_cap)
    hi = max(hi, lo)
    if hi > lo:
        gammas = np.geomspace(lo, hi, n_points)
    else:
        gammas = np.full(n_points, lo)

    rows: list[SweepRow] = []
    if "optimal" in schemes:
        rows.extend(_optimal_rows(H, scenario, gammas))

    for scheme, maker in (("ep", power_split_ep), ("sem", power_split_sem)):
        if scheme not in schemes:
            continue
        bench = maker(H, scenario)
        for g, pt in zip(gammas, best_at_crbs(bench.points, gammas)):
            if pt is None:
                rows.append(SweepRow(scheme, g, math.nan, math.nan,
                                     status="no_feasible_point"))
            else:
                rows.append(SweepRow(scheme, g, pt.crb, pt.rate))

    if "time_switch" in schemes:
        if capped:
            for g in gammas:
                rows.append(SweepRow("time_switch", g, math.nan, math.nan,
                                     status="not_applicable"))
        else:
            span = pt_max.crb - pt_min.crb
            taus = [0.0 if span == 0.0 else min(1.0, max(0.0, (g - pt_min.crb) / span))
                    for g in gammas]
            pts = time_switching(pt_max, pt_min, taus)
            for g, pt in zip(gammas, pts):
                rows.append(SweepRow("time_switch", g, pt.crb, pt.rate))

    return SweepResult(rows=rows, gammas=gammas, crb_min=lo, crb_cap=hi,
                       capped=capped, endpoint_min=pt_min, endpoint_max=pt_max)
