"""Closed-form endpoint solutions of the CRB-rate region.

Water-filling rate maximization, solved in units of P by the one
water-filling routine that the solver shares, isotropic CRB minimization,
the power threshold below which the rate-maximizing covariance loses full
rank, and the large-power two-block power split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import EIG_FLOOR_REL, INV_LN2, CRPoint, crb_from_powers, rate_from_powers
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


def _waterfill_unit(gs, P: float):
    """Water-filling of power 1 over the gains ``gs`` in units of P
    (lambda^2 P / sigma_c2), strongest first: the powers, v with the level at
    1/(v ln 2), and the number n of wet subchannels, the first n.  Wet powers
    come from the floors 1/g as offsets to the lowest, so that the power 1 is
    not lost against floors far above it.  A gain of 0 is dry; no gain, or
    all 0, as when every gain times ``P`` underflows, raises ``ValueError``.
    """
    if not (gs and gs[0] > 0.0):
        raise ValueError(f"every channel gain times P = {P:g} underflows to 0, "
                         f"so no CRB threshold above the minimum can be searched")
    floors = [1.0 / g if g > 0.0 else math.inf for g in gs]
    n, total = 1, 1.0 + floors[0]
    while n < len(floors) and total > n * floors[n]:
        total += floors[n]
        n += 1
    offsets = [x - floors[0] for x in floors[1:n]]
    level = (1.0 + sum(offsets)) / n
    q = [level] + [level - x for x in offsets] + [0.0] * (len(gs) - n)
    return q, INV_LN2 * n / total, n


def waterfill(lambdas2, sigma_c2: float, P: float, m: int | None = None) -> PowerAllocation:
    """Rate-maximizing power allocation over parallel channels.

    Solves max sum log2(1 + lambda_i^2 p_i / sigma_c2) s.t. sum p_i = P by
    :func:`_waterfill_unit` in units of P: p_i = max(nu - sigma_c2/lambda_i^2, 0)
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
    if m is not None and m < lam2.size:
        raise ValueError(f"m={m} is shorter than the channel vector")
    order = np.argsort(-lam2)
    q, v, _ = _waterfill_unit((lam2[order] / sigma_c2 * P).tolist(), P)
    p = np.zeros(lam2.size if m is None else m)
    p[order] = P * np.asarray(q)
    residual = abs(float(p.sum()) - P)
    return PowerAllocation(
        p=p,
        mu=0.0,
        v=v / P,
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


def _check_gains(H: ChannelMatrix, scenario: Scenario) -> None:
    """Raise ``ValueError`` if the gains of ``H`` in units of P,
    lambda^2 P / sigma_c2, overflow."""
    if H.r and not math.isfinite(float(H.lambdas2[0]) / scenario.sigma_c2 * scenario.P):
        raise ValueError(f"channel gains times P / sigma_c2 overflow at P = {scenario.P:g}, "
                         f"sigma_c2 = {scenario.sigma_c2:g}")


def rate_max_point(H: ChannelMatrix, scenario: Scenario) -> tuple[PowerAllocation, CRPoint]:
    """Rate-maximization endpoint: the water-filling allocation and its C-R pair.

    The CRB coordinate is infinite when a water-filled subchannel is dry,
    i.e. its power is at or below ``EIG_FLOOR_REL * P/M``, as when the
    channel rank is below M or P does not clear :func:`p0_threshold`.  This
    is the one rule that decides whether a sweep's grid is capped;
    elsewhere the closed-form CRB is exact.  Gains that overflow in units of
    P raise ``ValueError`` (:func:`_check_gains`).
    """
    _check_gains(H, scenario)
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
    form sigma_s2*Ns*M^2/(P*L).  Gains that overflow in units of P raise
    ``ValueError`` (:func:`_check_gains`).
    """
    _check_gains(H, scenario)
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
