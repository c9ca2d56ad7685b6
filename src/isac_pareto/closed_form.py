"""Closed-form endpoint solutions of the CRB-rate region.

Water-filling rate maximization, isotropic CRB minimization, the power
threshold below which the rate-maximizing covariance loses full rank, and
the large-power two-block power split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import EIG_FLOOR_REL, LN2, CRPoint, crb_from_powers, rate_from_powers
from .scenario import ChannelMatrix, Scenario

__all__ = [
    "PowerAllocation",
    "waterfill",
    "p0_threshold",
    "rate_max_point",
    "crb_min_point",
    "asymptotic_allocation",
]


@dataclass
class PowerAllocation:
    """A per-subchannel power vector with dual variables and diagnostics.

    ``mu`` and ``v`` are the multipliers of the CRB-budget and power
    constraints (``nan`` when a producer has no meaningful duals).
    """

    p: np.ndarray
    mu: float = math.nan
    v: float = math.nan
    iterations: int = 0
    kkt_residual: float = math.nan
    duality_gap: float = math.nan


def waterfill(lambdas2, sigma_c2: float, P: float, m: int | None = None) -> PowerAllocation:
    """Rate-maximizing power allocation over parallel channels.

    Solves max sum log2(1 + lambda_i^2 p_i / sigma_c2) s.t. sum p_i = P by
    the exact sorted-threshold procedure: p_i = max(nu - sigma_c2/lambda_i^2, 0)
    with the water level nu chosen so the powers sum to P.

    Parameters
    ----------
    lambdas2 : squared channel gains, all positive.
    sigma_c2 : receiver noise variance.
    P : total power.
    m : optional length to zero-pad the returned vector to.

    Returns a :class:`PowerAllocation` with ``mu`` = 0 and ``v`` =
    1/(nu ln 2), the multiplier of the power constraint, from which the
    water level is nu = 1/(v ln 2).
    """
    lam2 = np.asarray(lambdas2, dtype=float)
    if lam2.size == 0:
        raise ValueError("waterfill needs at least one channel")
    if np.any(lam2 <= 0.0):
        raise ValueError("waterfill requires strictly positive channel gains")
    if P <= 0.0:
        raise ValueError(f"total power must be positive, got {P}")
    order = np.argsort(lam2)[::-1]
    noise = sigma_c2 / lam2[order]        # ascending since lam2 is descending
    prefix = np.cumsum(noise)
    k_active = 1
    for k in range(1, noise.size + 1):
        if (P + prefix[k - 1]) / k > noise[k - 1]:
            k_active = k
    nu = (P + prefix[k_active - 1]) / k_active
    p_sorted = np.zeros_like(noise)
    p_sorted[:k_active] = nu - noise[:k_active]
    p = np.zeros(lam2.size)
    p[order] = p_sorted
    if m is not None:
        if m < lam2.size:
            raise ValueError(f"m={m} is shorter than the channel vector")
        p = np.concatenate([p, np.zeros(m - lam2.size)])
    residual = abs(float(p.sum()) - P)
    return PowerAllocation(
        p=p,
        mu=0.0,
        v=1.0 / (nu * LN2),
        iterations=0,
        kkt_residual=residual,
        duality_gap=0.0,
    )


def p0_threshold(lambdas2, sigma_c2: float) -> float:
    """Power below or at which water-filling leaves the weakest channel dry.

    Equals sum_{i<M} (sigma_c2/lambda_min^2 - sigma_c2/lambda_i^2).  Requires
    a full set of strictly positive gains; rate maximization yields a
    full-rank covariance iff P strictly exceeds this threshold.
    """
    lam2 = np.asarray(lambdas2, dtype=float)
    if lam2.size == 0:
        raise ValueError("empty channel gain vector")
    if np.any(lam2 <= 0.0):
        raise ValueError("threshold is defined only for a full-column-rank channel")
    worst = float(lam2.min())
    return float(np.sum(sigma_c2 / worst - sigma_c2 / lam2))


def rate_max_point(H: ChannelMatrix, scenario: Scenario) -> tuple[PowerAllocation, CRPoint]:
    """Rate-maximization endpoint: the water-filling allocation and its C-R pair.

    The CRB coordinate is infinite when a water-filled subchannel is dry,
    i.e. its power is at or below ``EIG_FLOOR_REL * P/M``, as when the
    channel rank is below M or P does not clear :func:`p0_threshold`.  This
    is the one rule that decides whether a sweep's grid is capped;
    elsewhere the closed-form CRB is exact.
    """
    wf = waterfill(H.lambdas2, scenario.sigma_c2, scenario.P, m=scenario.M)
    if wf.p.min() <= EIG_FLOOR_REL * scenario.P / scenario.M:
        crb = math.inf
    else:
        crb = crb_from_powers(wf.p, scenario.sigma_s2, scenario.Ns, scenario.L)
    rate_val = rate_from_powers(H.lambdas2, wf.p, scenario.sigma_c2)
    return wf, CRPoint(crb=crb, rate=rate_val)


def crb_min_point(H: ChannelMatrix, scenario: Scenario) -> tuple[PowerAllocation, CRPoint]:
    """CRB-minimization endpoint: the equal split P/M and its C-R pair.

    Its covariance is (P/M) I in any basis.  The minimum CRB has the closed
    form sigma_s2*Ns*M^2/(P*L).
    """
    m, P = scenario.M, scenario.P
    uniform = PowerAllocation(p=np.full(m, P / m))
    crb = scenario.sigma_s2 * scenario.Ns * m * m / (P * scenario.L)
    rate_val = rate_from_powers(H.lambdas2, uniform.p, scenario.sigma_c2)
    return uniform, CRPoint(crb=crb, rate=rate_val)


def asymptotic_allocation(r: int, m: int, P: float, gamma_tilde: float) -> PowerAllocation:
    """Large-power optimal split between communication and sensing subchannels.

    The M - r sensing subchannels take (M-r)/gamma_tilde each, consuming the
    whole trace-inverse budget; the remaining power is spread equally over
    the r communication subchannels.  Valid for r < M; the full-rank case is
    the plain water-filling limit instead.
    """
    if not 0 < r < m:
        raise ValueError(f"need 0 < r < m, got r={r}, m={m}")
    if gamma_tilde <= 0.0:
        raise ValueError(f"trace-inverse budget must be positive, got {gamma_tilde}")
    sensing = (m - r) / gamma_tilde
    comm_total = P - (m - r) ** 2 / gamma_tilde
    if comm_total <= 0.0:
        raise ValueError(
            f"power {P} cannot cover the sensing floor {(m - r) ** 2 / gamma_tilde}"
        )
    p = np.empty(m)
    p[:r] = comm_total / r
    p[r:] = sensing
    return PowerAllocation(p=p, kkt_residual=0.0)
