"""Baseline transmission schemes the optimal frontier is compared against.

Time switching interpolates between the two endpoint (CRB, rate) pairs;
the two power-splitting schemes sweep a factor beta that divides the
budget between communication and sensing subchannels (EP) or between the
strongest eigenmode and everything else (SEM).

Both splits allocate power in the channel eigenbasis, Q = Vc diag(p) Vc^H,
so a sweep builds its powers as one (n_beta, M) array and takes the CRB and
rate arrays of all its points from the closed forms :func:`crb_from_powers`
and :func:`rate_from_powers`; no covariance is assembled or decomposed, and
:class:`CRPoint` objects are built only when a caller reads
:attr:`BetaSweep.points`.  :func:`best_indices` selects the best point under
each of many CRB limits from those arrays, with one binary search over the
points sorted by CRB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .metrics import CRPoint, crb_from_powers, rate_from_powers
from .scenario import ChannelMatrix, Scenario

__all__ = [
    "DEFAULT_BETA_POINTS",
    "BetaSweep",
    "time_switching",
    "power_split_ep",
    "power_split_sem",
    "best_at_crb",
    "best_indices",
]

DEFAULT_BETA_POINTS = 201

# A point whose CRB exceeds a limit by at most this much, relative, still
# fits under it: a limit and a CRB computed by different formulas (the
# minimum CRB and the isotropic split's closed form) may differ in rounding.
_CRB_LIMIT_RTOL = 1e-12


@dataclass
class BetaSweep:
    """All points of one power-splitting sweep, one per beta: the (n_beta,)
    arrays ``crb`` and ``rate``, and as :class:`CRPoint` objects in
    ``points``, built on first use."""

    betas: np.ndarray
    crb: np.ndarray
    rate: np.ndarray
    scheme: str

    @cached_property
    def points(self) -> list[CRPoint]:
        return [CRPoint(crb=c, rate=rt, gamma_target=None, scheme=self.scheme)
                for c, rt in zip(self.crb.tolist(), self.rate.tolist())]


def _beta_grid(extra: float) -> np.ndarray:
    # make sure the exact uniform-allocation split is in the sweep
    return np.union1d(np.linspace(0.0, 1.0, DEFAULT_BETA_POINTS), [extra])


def time_switching(pt_rate_max: CRPoint, pt_crb_min: CRPoint,
                   gammas) -> tuple[np.ndarray, np.ndarray]:
    """The (crb, rate) arrays of the straight segment between the two
    endpoints, one point per CRB threshold in ``gammas``.

    The switching fraction toward the rate-maximizing endpoint is the
    threshold's position between the two endpoint CRBs, clipped to [0, 1].
    Meaningful only when the rate-maximizing CRB is finite, which is when
    :func:`~isac_pareto.sweep.sweep` calls it.
    """
    span = pt_rate_max.crb - pt_crb_min.crb
    g = np.asarray(gammas, dtype=float)
    tau = np.zeros_like(g) if span == 0.0 else np.clip((g - pt_crb_min.crb) / span, 0.0, 1.0)
    return (tau * pt_rate_max.crb + (1.0 - tau) * pt_crb_min.crb,
            tau * pt_rate_max.rate + (1.0 - tau) * pt_crb_min.rate)


def _split_sweep(H: ChannelMatrix, scenario: Scenario, betas, powers_of_betas, scheme) -> BetaSweep:
    # powers_of_betas maps the beta grid to its (n_beta, M) eigenbasis powers
    p = powers_of_betas(betas)
    return BetaSweep(betas=betas,
                     crb=crb_from_powers(p, scenario.sigma_s2, scenario.Ns, scenario.L),
                     rate=rate_from_powers(H.lambdas2, p, scenario.sigma_c2),
                     scheme=scheme)


def power_split_ep(H: ChannelMatrix, scenario: Scenario) -> BetaSweep:
    """Equal power within each part: beta*P over the r communication
    subchannels, (1-beta)*P over the M-r sensing subchannels.

    With a full-rank channel there is nothing to split and the sweep
    collapses to the single point beta = 1 (the isotropic allocation).
    """
    r, m, P = H.r, scenario.M, scenario.P
    betas = np.array([1.0]) if r == m else _beta_grid(extra=r / m)

    def powers(beta):
        p = np.empty((beta.size, m))
        p[:, :r] = (beta * P / r)[:, None]
        if m > r:
            p[:, r:] = ((1.0 - beta) * P / (m - r))[:, None]
        return p

    return _split_sweep(H, scenario, betas, powers, "ep")


def power_split_sem(H: ChannelMatrix, scenario: Scenario) -> BetaSweep:
    """Strongest eigenmode transmission: beta*P on the dominant subchannel,
    the rest spread equally over the other M-1."""
    m, P = scenario.M, scenario.P
    betas = _beta_grid(extra=1.0 / m)

    def powers(beta):
        p = np.empty((beta.size, m))
        p[:, 0] = beta * P
        p[:, 1:] = ((1.0 - beta) * P / (m - 1))[:, None]
        return p

    return _split_sweep(H, scenario, betas, powers, "sem")


def best_at_crb(points, crb_limit: float) -> CRPoint | None:
    """Highest-rate point whose CRB does not exceed ``crb_limit``.

    Of several points with the highest rate, the first one listed wins.
    """
    k, = best_indices([pt.crb for pt in points], [pt.rate for pt in points],
                      [crb_limit]).tolist()
    return points[k] if k >= 0 else None


def best_indices(crb, rate, crb_limits) -> np.ndarray:
    """For each of ``crb_limits``, the index of the highest-rate point whose
    CRB does not exceed it, or -1; of several with the highest rate, the
    lowest index wins.  ``crb`` and ``rate`` hold one value per point.

    The points are sorted by CRB once and ranked by (rate, lower index); a
    running maximum of the rank along the CRB order gives the winner among
    every CRB prefix, and one binary search finds each limit's prefix.
    """
    crb = np.asarray(crb, dtype=float)
    n = crb.size
    by_crb = np.argsort(crb, kind="stable")
    by_rank = np.lexsort((-np.arange(n), np.asarray(rate, dtype=float)))
    rank = np.empty(n, dtype=int)
    rank[by_rank] = np.arange(n)
    prefix_best = np.append(-1, by_rank[np.maximum.accumulate(rank[by_crb])])
    limits = np.asarray(crb_limits, dtype=float) * (1.0 + _CRB_LIMIT_RTOL)
    return prefix_best[np.searchsorted(crb[by_crb], limits, side="right")]
