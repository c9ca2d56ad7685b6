"""Baseline transmission schemes the optimal frontier is compared against.

Time switching interpolates between the two endpoint covariances; the two
power-splitting schemes sweep a factor beta that divides the budget between
communication and sensing subchannels (EP) or between the strongest
eigenmode and everything else (SEM).

Both splits allocate power in the channel eigenbasis, Q = Vc diag(p) Vc^H,
so a sweep builds its powers as one (n_beta, M) array and takes every
point's CRB and rate from the closed forms :func:`crb_from_powers` and
:func:`rate_from_powers`; no covariance is assembled or decomposed.
:func:`best_at_crbs` selects the best point under each of many CRB limits
with one binary search over the points sorted by CRB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import CRPoint, crb_from_powers, rate_from_powers
from .scenario import ChannelMatrix, Scenario

__all__ = [
    "DEFAULT_BETA_POINTS",
    "NotApplicableError",
    "BetaSweep",
    "time_switching",
    "power_split_ep",
    "power_split_sem",
    "pareto_indices",
    "best_at_crb",
    "best_at_crbs",
]

DEFAULT_BETA_POINTS = 201

# A point whose CRB exceeds a limit by at most this much, relative, still
# fits under it: a limit and a CRB computed by different formulas (the
# minimum CRB and the isotropic split's closed form) may differ in rounding.
_CRB_LIMIT_RTOL = 1e-12


class NotApplicableError(ValueError):
    """The scheme is undefined for this scenario (infinite endpoint CRB)."""


@dataclass
class BetaSweep:
    """All points of one power-splitting sweep, one per beta."""

    betas: np.ndarray
    points: list[CRPoint]


def _beta_grid(extra: float | None) -> np.ndarray:
    betas = np.linspace(0.0, 1.0, DEFAULT_BETA_POINTS)
    if extra is not None:
        # make sure the exact uniform-allocation split is in the sweep
        betas = np.union1d(betas, [extra])
    return betas


def time_switching(pt_rate_max: CRPoint, pt_crb_min: CRPoint, taus) -> list[CRPoint]:
    """Straight segment between the two endpoint (CRB, rate) pairs.

    Only applicable when the rate-maximizing covariance has full rank;
    raises :class:`NotApplicableError` when its CRB is infinite.
    """
    if not math.isfinite(pt_rate_max.crb):
        raise NotApplicableError("rate-maximizing covariance is rank deficient")
    points = []
    for tau in np.asarray(taus, dtype=float):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"switching fraction must lie in [0, 1], got {tau}")
        points.append(
            CRPoint(
                crb=tau * pt_rate_max.crb + (1.0 - tau) * pt_crb_min.crb,
                rate=tau * pt_rate_max.rate + (1.0 - tau) * pt_crb_min.rate,
                gamma_target=None,
                scheme="time_switch",
            )
        )
    return points


def _split_sweep(H: ChannelMatrix, scenario: Scenario, betas, powers_of_betas, scheme) -> BetaSweep:
    # powers_of_betas maps the beta grid to its (n_beta, M) eigenbasis powers
    betas = np.asarray(betas, dtype=float)
    if np.any(np.diff(betas) < 0):
        raise ValueError("beta grid must be sorted ascending")
    p = powers_of_betas(betas)
    crbs = crb_from_powers(p, scenario.sigma_s2, scenario.Ns, scenario.L)
    rates = rate_from_powers(H.lambdas2, p, scenario.sigma_c2)
    points = [CRPoint(crb=c, rate=rt, gamma_target=None, scheme=scheme)
              for c, rt in zip(crbs.tolist(), rates.tolist())]
    return BetaSweep(betas=betas, points=points)


def power_split_ep(H: ChannelMatrix, scenario: Scenario, betas=None) -> BetaSweep:
    """Equal power within each part: beta*P over the r communication
    subchannels, (1-beta)*P over the M-r sensing subchannels.

    With a full-rank channel there is nothing to split and the sweep
    collapses to the single point beta = 1 (the isotropic allocation).
    """
    r, m, P = H.r, scenario.M, scenario.P
    if r == m:
        betas = np.array([1.0])
    elif betas is None:
        betas = _beta_grid(extra=r / m)

    def powers(beta):
        p = np.empty((beta.size, m))
        p[:, :r] = (beta * P / r)[:, None]
        if m > r:
            p[:, r:] = ((1.0 - beta) * P / (m - r))[:, None]
        return p

    return _split_sweep(H, scenario, betas, powers, "ep")


def power_split_sem(H: ChannelMatrix, scenario: Scenario, betas=None) -> BetaSweep:
    """Strongest eigenmode transmission: beta*P on the dominant subchannel,
    the rest spread equally over the other M-1."""
    m, P = scenario.M, scenario.P
    if betas is None:
        betas = _beta_grid(extra=1.0 / m)

    def powers(beta):
        p = np.empty((beta.size, m))
        p[:, 0] = beta * P
        p[:, 1:] = ((1.0 - beta) * P / (m - 1))[:, None]
        return p

    return _split_sweep(H, scenario, betas, powers, "sem")


def pareto_indices(points) -> list[int]:
    """Indices of the non-dominated points (lower CRB and higher rate win).

    A point is dominated if another has crb <= and rate >= with at least one
    strict; exact duplicates are all kept.
    """
    n = len(points)
    order = sorted(range(n), key=lambda i: (points[i].crb, -points[i].rate))
    keep: list[int] = []
    best_rate = -math.inf
    best_crb = math.nan
    for i in order:
        c, rt = points[i].crb, points[i].rate
        if rt > best_rate:
            keep.append(i)
            best_rate, best_crb = rt, c
        elif rt == best_rate and c == best_crb:
            keep.append(i)
    return sorted(keep)


def best_at_crb(points, crb_limit: float) -> CRPoint | None:
    """Highest-rate point whose CRB does not exceed ``crb_limit``.

    Of several points with the highest rate, the first one listed wins.
    """
    return best_at_crbs(points, [crb_limit])[0]


def best_at_crbs(points, crb_limits) -> list[CRPoint | None]:
    """For each of ``crb_limits``, the highest-rate point whose CRB does not
    exceed it, or ``None``; of several with the highest rate, the first one
    listed wins.

    The points are sorted by CRB once and ranked by (rate, earlier listed);
    a running maximum of the rank along the CRB order gives the winner
    among every CRB prefix, and one binary search finds each limit's prefix.
    """
    n = len(points)
    crb = np.array([pt.crb for pt in points], dtype=float)
    by_crb = np.argsort(crb, kind="stable")
    by_rank = np.lexsort((-np.arange(n), [pt.rate for pt in points]))
    rank = np.empty(n, dtype=int)
    rank[by_rank] = np.arange(n)
    prefix_best = np.maximum.accumulate(rank[by_crb])
    limits = np.asarray(crb_limits, dtype=float) * (1.0 + _CRB_LIMIT_RTOL)
    counts = np.searchsorted(crb[by_crb], limits, side="right")
    return [points[by_rank[prefix_best[k - 1]]] if k else None for k in counts.tolist()]
