"""Frontier sweep: endpoints, a geometric CRB-threshold grid, per-threshold
solves and benchmark curves matched to the same grid.

The optimal rows of all thresholds are solved together by
:func:`solver._solve_budgets`, the routine that also serves
:func:`solve_p1`: it gives each threshold its path (the equal-split
boundary, water-filling or the dual search), runs the dual searches of
every threshold whose solution has both constraints tight in one driver,
and certifies each result.  Each search is the one :func:`solve_p1` runs
for its threshold, whichever power map evaluates it, so each row is the
:func:`solve_p1` of its threshold, bit for bit.  The lanes power map
evaluates the searches of a sweep with _LOCKSTEP_MIN_BUDGETS dual
thresholds or more, as a 50-point sweep has, and the scalar map those of
a smaller one, as a 10-point sweep; a row left at ``iteration_limit``
under the lanes map still gets a second opinion from :func:`solve_p1`,
which repeats its search, and one under the scalar map gets none.  Every
row's CRB and rate come in closed form from its eigenbasis powers, over
one array of all rows.  The EP/SEM rows come from the CRB and rate arrays
of the split sweep, with one batched selection of each threshold's best
index per scheme (:func:`best_indices`); no point objects are built.  Whether the grid is
capped is read from :func:`rate_max_point`, the one place that calls a
water-filled subchannel dry; a capped sweep has no time-switching segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import best_indices, power_split_ep, power_split_sem, time_switching
from .closed_form import crb_min_point, rate_max_point
from .metrics import crb_from_powers, rate_from_powers, trace_budget
from .scenario import ChannelMatrix, Scenario
from .solver import _check_channel, _solve_budgets, solve_p1

__all__ = ["DEFAULT_SCHEMES", "SweepRow", "SweepResult", "sweep"]

DEFAULT_SCHEMES = ("optimal", "ep", "sem", "time_switch")

# When the rate-maximizing covariance is rank deficient the frontier has no
# finite right endpoint; the grid is then capped at this multiple of the
# minimum CRB (display convention, flagged by SweepResult.capped).
AUTO_CAP_FACTOR = 100.0


@dataclass
class SweepRow:
    """One row of a sweep.  On an ``optimal``-scheme row, ``iterations``
    counts power-map evaluations: those of the threshold's dual search,
    plus, for a row left at ``iteration_limit`` by a search of the lanes
    power map, those of its :func:`solve_p1` second opinion; ``crb`` and
    ``rate`` are the closed forms of the row's eigenbasis powers.

    An ``optimal``-scheme row is the :func:`solve_p1` of its threshold, bit
    for bit: the same status, powers, ``mu``, ``v`` and ``kkt_residual``,
    and the same ``iterations`` unless a second opinion added its own.
    """

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
    """All rows of a sweep.  ``capped`` is set when :func:`rate_max_point`
    gives an infinite CRB; the grid then ends at ``crb_cap`` and the
    time-switching rows are ``not_applicable``."""

    rows: list[SweepRow]
    crb_min: float
    crb_cap: float
    capped: bool


def _optimal_rows(H, scenario, gammas) -> list[SweepRow]:
    gamma_tildes = [trace_budget(g, scenario.sigma_s2, scenario.Ns, scenario.L)
                    for g in gammas]
    results, lockstep = _solve_budgets(H, scenario, gamma_tildes)
    solved = []
    for g, (a, status) in zip(gammas, results):
        spent = 0
        if lockstep and status == "iteration_limit":
            # solve_p1 repeats the lane's search, as its scalar twin
            spent = 0 if a is None else a.iterations
            rep = solve_p1(H, scenario, g)
            a, status = rep.allocation, rep.status
        solved.append((g, a, status, spent))
    p = np.array([a.p for _, a, _, _ in solved if a is not None]).reshape(-1, scenario.M)
    metrics = zip(crb_from_powers(p, scenario.sigma_s2, scenario.Ns, scenario.L).tolist(),
                  rate_from_powers(H.lambdas2, p, scenario.sigma_c2).tolist())
    rows = []
    for g, a, status, spent in solved:
        if a is None:
            rows.append(SweepRow("optimal", g, math.nan, math.nan, status=status))
        else:
            crb, rate = next(metrics)
            rows.append(SweepRow("optimal", g, crb, rate, mu=a.mu, v=a.v,
                                 iterations=spent + a.iterations,
                                 kkt_residual=a.kkt_residual, status=status))
    return rows


def sweep(H: ChannelMatrix, scenario: Scenario, n_points: int,
          crb_cap: float | None = None,
          schemes=DEFAULT_SCHEMES) -> SweepResult:
    """Trace the frontier and benchmark curves over a geometric CRB grid.

    The grid runs from the minimum CRB to the rate-maximization endpoint
    when :func:`rate_max_point` gives it a finite CRB, else to ``crb_cap``
    (``None`` = 100x the minimum) with ``capped`` set; a given ``crb_cap``
    also caps a finite endpoint, and must be positive and small enough
    that its trace budget is finite.  Time-switching rows lie on the
    segment between the two endpoints, or are ``not_applicable`` when
    capped.  Benchmark rows report, for each grid threshold, the best sweep
    point whose CRB fits under it.  ``schemes`` is a collection of names
    from DEFAULT_SCHEMES; a bare string or any other name raises
    ``ValueError``, before anything else is checked.  A channel that is not
    Nc x M, has rank 0 or has gains that overflow in units of P raises
    ``ValueError``, and so does a grid threshold too loose for the dual
    search (see :func:`solver._solve_budgets`).
    """
    if isinstance(schemes, str):
        raise ValueError(f"schemes takes a collection of names, not the string {schemes!r}")
    bad = set(schemes) - set(DEFAULT_SCHEMES)
    if bad:
        raise ValueError(f"unknown schemes {sorted(bad)}")
    _check_channel(H, scenario)
    if n_points < 2:
        raise ValueError(f"need at least two grid points, got {n_points}")
    if crb_cap is not None:
        crb_cap = float(crb_cap)
        budget = trace_budget(crb_cap, scenario.sigma_s2, scenario.Ns, scenario.L)
        if not (crb_cap > 0.0 and math.isfinite(budget)):
            raise ValueError(f"crb_cap must be None or a positive number with a finite "
                             f"trace budget, got {crb_cap}")
    _, pt_min = crb_min_point(H, scenario)
    _, pt_max = rate_max_point(H, scenario)
    lo = pt_min.crb
    capped = not math.isfinite(pt_max.crb)
    if capped:
        hi = AUTO_CAP_FACTOR * lo if crb_cap is None else crb_cap
    else:
        hi = pt_max.crb if crb_cap is None else min(pt_max.crb, crb_cap)
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
        crbs, rates = bench.crb.tolist(), bench.rate.tolist()
        for g, k in zip(gammas, best_indices(bench.crb, bench.rate, gammas).tolist()):
            if k < 0:
                rows.append(SweepRow(scheme, g, math.nan, math.nan,
                                     status="no_feasible_point"))
            else:
                rows.append(SweepRow(scheme, g, crbs[k], rates[k]))

    if "time_switch" in schemes:
        if capped:
            for g in gammas:
                rows.append(SweepRow("time_switch", g, math.nan, math.nan,
                                     status="not_applicable"))
        else:
            crbs, rates = time_switching(pt_max, pt_min, gammas)
            for g, c, rt in zip(gammas, crbs.tolist(), rates.tolist()):
                rows.append(SweepRow("time_switch", g, c, rt))

    return SweepResult(rows=rows, crb_min=lo, crb_cap=hi, capped=capped)
