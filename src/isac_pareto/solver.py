"""CRB-constrained rate maximization.

The problem is diagonalized by the channel SVD, reduced to a power
allocation over communication and dedicated sensing subchannels, and solved
through its Lagrange dual.  For multipliers (mu, v) each communication
subchannel takes the unique positive root of its stationarity equation,
found by a monotone Newton iteration (see :func:`cubic_stationary_root`),
and each sensing subchannel takes sqrt(mu/v); these powers form a family of
water-filling solutions, monotone in both multipliers.  The dual pair is
found by one search on a log scale, started from the equal split: for fixed
mu the power budget fixes v*(mu), and mu is then set by the CRB budget
along v*(mu).  Each pass evaluates the powers once and takes one
safeguarded Newton step, in log v until v*(mu) is found and then in log mu.

The search has two forms with the same iteration and arithmetic:
:func:`solve_p1` runs it in scalar Python for one budget, and a frontier
sweep runs it for all of its budgets at once over numpy arrays
(:func:`_lockstep_dual`).  Both judge their result by the same KKT
certificate, and a lane that fails it is left to :func:`solve_p1`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .closed_form import PowerAllocation, waterfill
from .metrics import (
    LN2,
    CRPoint,
    TransmitCovariance,
    assemble_covariance,
    crb_from_trace_budget,
    crb_trace,
    rate,
    trace_budget,
)
from .scenario import ChannelMatrix, Scenario

__all__ = [
    "InactiveChannelError",
    "SolveReport",
    "feasibility_check",
    "cubic_stationary_root",
    "stationarity_residual",
    "sensing_power",
    "inner_allocation",
    "solve_p1",
]

INV_LN2 = 1.0 / LN2
_EPS = sys.float_info.epsilon

# The dual search stops once |log(sum 1/p / gamma_tilde)| is at most this;
# each inner solve for v*(mu) once |log(sum p / P)| is at most this.
_DUAL_TOL = 1e-13
_INNER_TOL = 1e-14
# Largest Newton step in log mu or log v.
_MAX_LOG_STEP = 7.0
# Tolerance of the KKT certificate, and the budget of power-map evaluations
# of one dual search.
_KKT_TOL = 1e-9
_MAX_DUAL_ITERS = 2000


class InactiveChannelError(ValueError):
    """The stationarity equation has no positive root: with a zero CRB
    multiplier the water level sits below this channel's noise floor."""


@dataclass
class SolveReport:
    """Outcome of one CRB-constrained solve.

    ``status`` is one of ``optimal``, ``infeasible`` or ``iteration_limit``.
    ``optimal`` always carries a passing KKT certificate;
    ``iteration_limit`` means the dual search spent its _MAX_DUAL_ITERS
    power-map evaluations, ended on a math error, or stopped short of the
    certificate.  On non-optimal statuses the remaining fields carry the
    best-effort iterate (or ``None`` when infeasible).
    ``allocation.iterations`` counts the evaluations of the inner power
    map.
    """

    allocation: PowerAllocation | None
    Q: TransmitCovariance | None
    achieved: CRPoint | None
    status: str
    gamma_tilde: float = math.nan


def feasibility_check(m: int, P: float, gamma_tilde: float, rtol: float = 1e-12) -> bool:
    """True iff the trace-inverse budget is achievable: gamma_tilde >= M^2/P.

    The minimum of sum 1/p_i under sum p_i <= P is M^2/P, attained by the
    equal allocation, so anything below that is infeasible.  A hair of
    relative tolerance absorbs round-trip conversion error.
    """
    if m < 1 or P <= 0.0:
        raise ValueError("need m >= 1 and P > 0")
    return gamma_tilde >= (m * m / P) * (1.0 - rtol)


def sensing_power(mu: float, v: float) -> float:
    """Stationary power of a dedicated sensing subchannel: sqrt(mu / v)."""
    if mu < 0 or v <= 0:
        raise ValueError("need mu >= 0 and v > 0")
    return math.sqrt(mu / v)


def stationarity_residual(p: float, lambda2_over_sigma2: float, mu: float, v: float) -> float:
    """Derivative of the per-channel Lagrangian at power p (zero at optimum)."""
    g = lambda2_over_sigma2
    res = INV_LN2 * g / (1.0 + g * p) - v
    if mu != 0.0:
        res += mu / (p * p)
    return res


def cubic_stationary_root(lambda2_over_sigma2: float, mu: float, v: float) -> float:
    """Unique positive power solving the per-subchannel stationarity equation
    f(p) = g/((1 + g p) ln 2) + mu/p^2 - v = 0, with g the noise-normalized
    channel gain (cleared of denominators, a cubic in p).

    For mu = 0 this degenerates to the water-filling form
    1/(v ln 2) - sigma_c2/lambda^2 and raises :class:`InactiveChannelError`
    when that is non-positive.  For mu > 0, f is convex and strictly
    decreasing on p > 0, and at p0 = max(sqrt(mu/v), water-filling power)
    one of its terms alone equals v, so f(p0) >= 0.  Newton from p0 thus
    rises monotonically to the root; it stops when the next iterate no
    longer rises.  This is the iteration of :func:`_power_map_lanes`, with
    the same arithmetic, so both return the same root.
    """
    g = lambda2_over_sigma2
    if g <= 0.0:
        raise ValueError(f"channel gain must be positive, got {g}")
    if v <= 0.0:
        raise ValueError(f"power multiplier must be positive, got {v}")
    if mu < 0.0:
        raise ValueError(f"CRB multiplier must be non-negative, got {mu}")
    if mu == 0.0:
        x = INV_LN2 / v - 1.0 / g
        if x <= 0.0:
            raise InactiveChannelError(
                f"water level {INV_LN2 / v} below noise floor {1.0 / g}"
            )
        return x
    p = max(math.sqrt(mu / v), INV_LN2 / v - 1.0 / g)
    for _ in range(200):
        gp1 = g * p + 1.0
        comm = INV_LN2 * g / gp1
        sens = mu / (p * p)
        f = comm + sens - v
        q = f / (comm * g / gp1 + sens * 2.0 / p) + p  # the Newton iterate
        if not q > p:
            break
        p = q
    return p


def _inner_powers(gs: list[float], m: int, mu: float, v: float) -> list[float]:
    # Lagrangian maximizer at (mu, v); plain floats on the hot path.
    p = [0.0] * m
    for i, g in enumerate(gs):
        if mu > 0.0:
            p[i] = cubic_stationary_root(g, mu, v)
        else:
            x = INV_LN2 / v - 1.0 / g
            p[i] = x if x > 0.0 else 0.0
    r = len(gs)
    if m > r:
        ps = math.sqrt(mu / v)
        for i in range(r, m):
            p[i] = ps
    return p


def inner_allocation(lambdas2, m: int, sigma_c2: float, mu: float, v: float) -> np.ndarray:
    """Maximizer of the Lagrangian at multipliers (mu, v), length m.

    Communication subchannels solve the cubic stationarity equation; the
    m - r dedicated sensing subchannels all take sqrt(mu/v).  With mu = 0
    (only allowed for a full-rank channel) this is exactly water-filling at
    level 1/(v ln 2), including dry channels at zero.
    """
    lam2 = np.asarray(lambdas2, dtype=float)
    if v <= 0.0:
        raise ValueError("power multiplier must be positive")
    if lam2.size < m and mu <= 0.0:
        raise ValueError("rank-deficient channels need a positive CRB multiplier")
    gs = [float(x) / sigma_c2 for x in lam2]
    return np.asarray(_inner_powers(gs, m, mu, v))


def _dual_value(gs, p, mu, v, gamma_tilde, P):
    R = 0.0
    S = 0.0
    for g, x in zip(gs, p):
        R += math.log1p(g * x)
    R *= INV_LN2
    for x in p:
        S += x
    if mu > 0.0:
        cinv = 0.0
        for x in p:
            if x <= 0.0:
                return math.inf
            cinv += 1.0 / x
        return R - mu * (cinv - gamma_tilde) - v * (S - P)
    return R - v * (S - P)


def _power_map(gs, m, mu, v):
    """Inner powers at (mu, v) > 0, their sum S and trace inverse C, and the
    partial derivatives of S and C in mu and v.

    The derivatives follow from the stationarity equations by implicit
    differentiation: dp/dv = 1/f'(p) and dp/dmu = -1/(p^2 f'(p)).
    """
    p = _inner_powers(gs, m, mu, v)
    S = C = S_mu = S_v = C_mu = C_v = 0.0
    for g, x in zip(gs, p):
        gx1 = 1.0 + g * x
        inv2 = 1.0 / (x * x)
        fp = -INV_LN2 * g * g / (gx1 * gx1) - 2.0 * mu * inv2 / x
        dp_dv = 1.0 / fp
        dp_dmu = -inv2 * dp_dv
        S += x
        C += 1.0 / x
        S_mu += dp_dmu
        S_v += dp_dv
        C_mu -= inv2 * dp_dmu
        C_v -= inv2 * dp_dv
    k = m - len(gs)
    if k:
        ps = p[-1]
        S += k * ps
        C += k / ps
        S_mu += 0.5 * k * ps / mu
        S_v -= 0.5 * k * ps / v
        C_mu -= 0.5 * k / (mu * ps)
        C_v += 0.5 * k / (v * ps)
    return p, S, C, S_mu, S_v, C_mu, C_v


def _newton_step(x, val, step, lo, hi, tol):
    """One safeguarded Newton step on a strictly decreasing function of x,
    whose value at x is ``val`` and whose proposed step is ``step``.

    x joins the bracket [lo, hi] of the sign changes seen so far.  A step
    that points away from the root is replaced by a full capped step
    towards it, steps are capped at _MAX_LOG_STEP, and a next x outside the
    bracket is replaced by the bracket's midpoint.  Returns whether the
    search stopped (|val| <= tol, or the bracket or the step has shrunk to a
    few ulps of x), the next x and the updated bracket.
    """
    if val > 0.0:
        lo = x
    else:
        hi = x
    ulps = 4.0 * _EPS * max(1.0, abs(x))
    if not step * val > 0.0:
        step = math.copysign(_MAX_LOG_STEP, val)
    step = max(-_MAX_LOG_STEP, min(_MAX_LOG_STEP, step))
    done = abs(val) <= tol or hi - lo <= ulps or abs(step) <= ulps
    nx = x + step
    return done, (nx if lo < nx < hi else 0.5 * (lo + hi)), lo, hi


def _equal_split_duals(gs, m, P):
    # the multipliers the dual searches start from: v averages the rate
    # slopes at the equal split, whose sensing law fixes mu/v = (P/m)^2
    v0 = INV_LN2 * sum(g / (1.0 + g * P / m) for g in gs) / m
    return v0 * (P / m) ** 2, v0


def _solve_dual(gs, m, gamma_tilde, P):
    """Dual pair with both constraints tight, by log-scale Newton from the
    equal split: the scalar form of :func:`_lockstep_dual`.

    Each pass evaluates the power map once and takes one Newton step in
    log v on the power budget.  Once that inner search stops, the pass takes
    a step in log mu on the CRB budget instead, moves log v along the
    tangent d log v* / d log mu and opens a new log v bracket.  A math error
    ends the search unconverged.

    Returns (mu, v, powers, evaluations, converged); the powers belong to
    the last evaluated (mu, v), or are ``None`` if nothing was evaluated.
    """
    c_min = m * m / P
    mu0, v0 = _equal_split_duals(gs, m, P)
    t, x = math.log(mu0), math.log(v0)  # log mu, log v
    t_lo = x_lo = -math.inf
    t_hi = x_hi = math.inf
    evals = 0
    last = None  # (mu, v, _power_map output) of the latest evaluation
    converged = False
    try:
        while evals < _MAX_DUAL_ITERS:
            evals += 1
            mu, v = math.exp(t), math.exp(x)
            last = (mu, v, _power_map(gs, m, mu, v))
            _, S, C, S_mu, S_v, C_mu, C_v = last[2]
            # inner search: log(S / P) in log v
            F = math.log(S / P)
            inner_done, x_next, x_lo, x_hi = _newton_step(
                x, F, -F * S / (v * S_v), x_lo, x_hi, _INNER_TOL)
            if not inner_done:
                x = x_next
                continue
            # outer search along v*(mu): log(C / gamma_tilde) decides
            # convergence; the step acts on log((C - c_min) / (gamma_tilde -
            # c_min)) instead, which is close to linear in log mu both for
            # loose CRB budgets and near the equal-split boundary
            dv_dmu = -S_mu / S_v
            excess = C - c_min
            step = math.nan
            if excess > 0.0:
                slope = mu * (C_mu + C_v * dv_dmu) / excess
                step = -math.log(excess / (gamma_tilde - c_min)) / slope
            converged, t_next, t_lo, t_hi = _newton_step(
                t, math.log(C / gamma_tilde), step, t_lo, t_hi, _DUAL_TOL)
            if converged:
                break
            x += mu * dv_dmu / v * (t_next - t)
            x_lo, x_hi = -math.inf, math.inf
            t = t_next
    except (ArithmeticError, ValueError):
        pass  # unconverged, with the last completed evaluation
    if last is None:
        return math.nan, math.nan, None, evals, False
    mu, v, (p, *_) = last
    return mu, v, p, evals, converged


def _certify(gs, m, p, mu, v, gamma_tilde, P):
    """KKT certificate for a candidate (p, mu, v) at tolerance _KKT_TOL.

    Returns (ok, residual, relative_duality_gap).  The residual is the worst
    over stationarity, the sensing-power law, primal feasibility overshoot
    and complementary slackness.
    """
    r = len(gs)
    stat = 0.0
    for g, x in zip(gs, p[:r]):
        if x > 0.0:
            stat = max(stat, abs(stationarity_residual(x, g, mu, v)))
        else:
            # a dry channel is only consistent with mu = 0 and a water level
            # below its floor
            stat = max(stat, mu, max(0.0, INV_LN2 * g - v))
    sens = 0.0
    if m > r:
        ps = math.sqrt(mu / v) if (mu >= 0.0 and v > 0.0) else math.inf
        sens = max(abs(x - ps) for x in p[r:])
    ssum = float(sum(p))
    cinv = sum(1.0 / x for x in p) if all(x > 0.0 for x in p) else math.inf
    over_p = max(0.0, ssum - P)
    over_c = max(0.0, cinv - gamma_tilde) if math.isfinite(cinv) else math.inf
    comp_c = mu * abs(cinv - gamma_tilde) if math.isfinite(cinv) else math.inf
    comp_p = v * abs(ssum - P)
    gval = _dual_value(gs, p, mu, v, gamma_tilde, P)
    rate_val = INV_LN2 * sum(math.log1p(g * x) for g, x in zip(gs, p))
    gap_rel = abs(gval - rate_val) / max(1.0, abs(rate_val))
    slack_scale = _KKT_TOL * max(1.0, gamma_tilde, P)
    residual = max(stat, sens, over_p, over_c, comp_c, comp_p)
    ok = (
        stat <= _KKT_TOL
        and sens <= _KKT_TOL
        and over_p <= _KKT_TOL * max(1.0, P)
        and over_c <= _KKT_TOL * max(1.0, gamma_tilde)
        and comp_c <= slack_scale
        and comp_p <= slack_scale
        and gap_rel <= 1e-8
    )
    return ok, residual, gap_rel


def _solution_paths(H: ChannelMatrix, scenario: Scenario, gamma_tildes):
    """The path :func:`solve_p1` takes for each trace-inverse budget, and the
    water-filling allocation of a full-rank channel (``None`` otherwise).

    A path is ``infeasible``; ``boundary``, a budget at the minimum M^2/P,
    met only by the equal split; ``waterfill``, where the water-filling of a
    full-rank channel already meets the budget; or ``dual``, where both
    constraints are tight.
    """
    m, P = scenario.M, scenario.P
    wf = None
    wf_trace_inv = math.inf
    if H.r == m:
        wf = waterfill(H.lambdas2, scenario.sigma_c2, P, m=m)
        if np.all(wf.p > 0.0):
            wf_trace_inv = float((1.0 / wf.p).sum())
    paths = []
    for gamma_tilde in gamma_tildes:
        if not feasibility_check(m, P, gamma_tilde):
            paths.append("infeasible")
        elif gamma_tilde <= (m * m / P) * (1.0 + 1e-12):
            paths.append("boundary")
        elif wf_trace_inv <= gamma_tilde * (1.0 + 4e-12):
            paths.append("waterfill")
        else:
            paths.append("dual")
    return paths, wf


def _power_map_lanes(g: np.ndarray, k: int, mu: np.ndarray, v: np.ndarray):
    """:func:`_power_map` for each lane of the (n,) arrays mu, v > 0, with
    g the r communication gains and k = m - r sensing subchannels.

    Each stationary root is the monotone Newton iteration of
    :func:`cubic_stationary_root`, run for all lanes and subchannels at once
    until no iterate rises any more; a root that has stopped rising stays
    put.  Returns the (n, m) powers and the (n,) arrays S, C, S_mu, S_v,
    C_mu, C_v.
    """
    # (n, r) operands throughout: same-shape arithmetic is faster than
    # broadcasting at these sizes
    n, r = mu.size, g.size
    G = g[None, :].repeat(n, axis=0)
    A = INV_LN2 * G
    MU = mu.repeat(r).reshape(n, r)
    V = v.repeat(r).reshape(n, r)
    p = np.maximum(np.sqrt(MU / V), INV_LN2 / V - 1.0 / G)
    for _ in range(200):
        gp1 = G * p
        gp1 += 1.0
        comm = A / gp1
        sens = MU / (p * p)
        f = comm + sens
        f -= V
        comm *= G
        comm /= gp1
        sens *= 2.0
        sens /= p
        comm += sens  # -f'(p)
        f /= comm
        f += p  # the Newton iterate
        if not (f > p).any():
            break
        p = np.maximum(p, f)
    gx1 = 1.0 + G * p
    inv2 = 1.0 / (p * p)
    dp_dv = 1.0 / (-A * G / (gx1 * gx1) - 2.0 * MU * inv2 / p)
    dp_dmu = -inv2 * dp_dv
    ps = np.sqrt(mu / v)
    powers = np.empty((n, r + k))
    powers[:, :r] = p
    powers[:, r:] = ps[:, None]
    S = p.sum(axis=1) + k * ps
    C = (1.0 / p).sum(axis=1) + k / ps
    S_mu = dp_dmu.sum(axis=1) + 0.5 * k * ps / mu
    S_v = dp_dv.sum(axis=1) - 0.5 * k * ps / v
    C_mu = -(inv2 * dp_dmu).sum(axis=1) - 0.5 * k / (mu * ps)
    C_v = -(inv2 * dp_dv).sum(axis=1) + 0.5 * k / (v * ps)
    return powers, S, C, S_mu, S_v, C_mu, C_v


def _newton_lanes(x, val, step, lo, hi, tol):
    """:func:`_newton_step` for each lane: returns the lanes that stopped,
    the next x and the updated bracket."""
    done = np.abs(val) <= tol
    up = val > 0.0
    lo = np.where(up, x, lo)
    hi = np.where(up, hi, x)
    ulps = 4.0 * _EPS * np.maximum(1.0, np.abs(x))
    step = np.where(step * val > 0.0, step, np.copysign(_MAX_LOG_STEP, val))
    step = np.clip(step, -_MAX_LOG_STEP, _MAX_LOG_STEP)
    done |= (hi - lo <= ulps) | (np.abs(step) <= ulps)
    nx = x + step
    return done, np.where((lo < nx) & (nx < hi), nx, 0.5 * (lo + hi)), lo, hi


def _lockstep_dual(H: ChannelMatrix, scenario: Scenario, gamma_tildes):
    """The dual search of :func:`solve_p1` for many budgets of one channel
    at once.

    Each budget on the ``dual`` path (see :func:`_solution_paths`) is one
    lane.  All lanes start from the equal split and run the passes of
    :func:`_solve_dual` in lockstep over numpy arrays: each pass evaluates
    the power map once for every live lane, and each lane keeps its own
    brackets on log mu and log v, its own tangent step and its own budget
    of _MAX_DUAL_ITERS evaluations.  A lane whose values turn non-finite
    stops unconverged.  Every converged lane is then judged by
    :func:`_certify`.

    Returns one entry per budget, ``None`` off the dual path and else the
    lane's :class:`PowerAllocation`, whose ``iterations`` counts its
    power-map evaluations; and a boolean array that is True where the lane
    converged and passed the certificate.
    """
    paths, _ = _solution_paths(H, scenario, gamma_tildes)
    lanes = [i for i, path in enumerate(paths) if path == "dual"]
    allocs: list[PowerAllocation | None] = [None] * len(paths)
    certified = np.zeros(len(paths), dtype=bool)
    if not lanes:
        return allocs, certified
    m, P = scenario.M, scenario.P
    gs = [float(x) / scenario.sigma_c2 for x in H.lambdas2]
    g, k = np.asarray(gs), m - len(gs)
    gt = np.asarray(gamma_tildes, dtype=float)[lanes]
    n = gt.size
    c_min = m * m / P
    mu0, v0 = _equal_split_duals(gs, m, P)
    t = np.full(n, math.log(mu0))  # log mu
    x = np.full(n, math.log(v0))   # log v
    t_lo, t_hi = np.full(n, -np.inf), np.full(n, np.inf)
    x_lo, x_hi = t_lo.copy(), t_hi.copy()
    evals = np.zeros(n, dtype=int)
    live = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    p = np.full((n, m), np.nan)
    mu, v = np.full(n, np.nan), np.full(n, np.nan)
    with np.errstate(all="ignore"):
        while True:
            live &= evals < _MAX_DUAL_ITERS
            i = np.flatnonzero(live)
            if i.size == 0:
                break
            evals[i] += 1
            mu_i, v_i, t_i, x_i, gt_i = np.exp(t[i]), np.exp(x[i]), t[i], x[i], gt[i]
            p[i], S, C, S_mu, S_v, C_mu, C_v = _power_map_lanes(g, k, mu_i, v_i)
            mu[i], v[i] = mu_i, v_i
            finite = np.isfinite(S + C + S_mu + S_v + C_mu + C_v)
            # inner search: log(S / P) in log v
            F = np.log(S / P)
            inner_done, x_next, x_lo_i, x_hi_i = _newton_lanes(
                x_i, F, -F * S / (v_i * S_v), x_lo[i], x_hi[i], _INNER_TOL)
            # outer search along v*(mu), as in _solve_dual
            dv_dmu = -S_mu / S_v
            excess = C - c_min
            slope = mu_i * (C_mu + C_v * dv_dmu) / excess
            step = np.where(excess > 0.0, -np.log(excess / (gt_i - c_min)) / slope, np.nan)
            outer_done, t_next, t_lo_i, t_hi_i = _newton_lanes(
                t_i, np.log(C / gt_i), step, t_lo[i], t_hi[i], _DUAL_TOL)
            # a lane with v*(mu) solved takes its outer step, moving log v
            # along the tangent d log v* / d log mu and opening a new inner
            # bracket; any other lane takes its inner step
            t[i] = np.where(inner_done, t_next, t_i)
            t_lo[i] = np.where(inner_done, t_lo_i, t_lo[i])
            t_hi[i] = np.where(inner_done, t_hi_i, t_hi[i])
            x[i] = np.where(inner_done, x_i + mu_i * dv_dmu / v_i * (t_next - t_i), x_next)
            x_lo[i] = np.where(inner_done, -np.inf, x_lo_i)
            x_hi[i] = np.where(inner_done, np.inf, x_hi_i)
            stop = inner_done & outer_done
            converged[i[stop & finite]] = True
            live[i[stop | ~finite]] = False
    for j, lane in enumerate(lanes):
        mu_j, v_j = float(mu[j]), float(v[j])
        ok, res, gap = False, math.nan, math.nan
        if converged[j]:
            ok, res, gap = _certify(gs, m, p[j].tolist(), mu_j, v_j, float(gt[j]), P)
        allocs[lane] = PowerAllocation(p=p[j], mu=mu_j, v=v_j, iterations=int(evals[j]),
                                       kkt_residual=res, duality_gap=gap)
        certified[lane] = ok
    return allocs, certified


def solve_p1(
    H: ChannelMatrix,
    scenario: Scenario,
    gamma: float | None = None,
    *,
    gamma_tilde: float | None = None,
) -> SolveReport:
    """Maximize the rate subject to CRB(Q) <= gamma and tr(Q) <= P.

    Exactly one of ``gamma`` (a CRB threshold) or ``gamma_tilde`` (the
    equivalent budget on tr(Q^-1)) must be given.  The channel rank and
    gains are those of ``H`` (``H.r`` and ``H.lambdas2``); a rank-0 channel
    raises ``ValueError``.

    Solution path:

    * infeasible budget -> status ``infeasible``;
    * budget exactly at the minimum M^2/P -> the unique feasible point, the
      equal allocation (the dual is degenerate there, so no multipliers are
      reported);
    * full-rank channel whose water-filling already satisfies the CRB
      budget -> water-filling with a zero CRB multiplier;
    * otherwise both constraints are tight.  The dual pair is found by
      :func:`_solve_dual`, Newton steps in log v on the power budget and in
      log mu on the CRB budget from the equal split, each kept in a
      sign-change bracket and capped.  The result is then certified against
      the KKT conditions: ``optimal`` is only reported with a passing
      certificate, and a search that spends its _MAX_DUAL_ITERS power-map
      evaluations gives ``iteration_limit``.
    """
    if (gamma is None) == (gamma_tilde is None):
        raise ValueError("give exactly one of gamma or gamma_tilde")
    m, P, s2 = scenario.M, scenario.P, scenario.sigma_c2
    if H.shape != (scenario.Nc, scenario.M):
        raise ValueError(f"channel shape {H.shape} does not match scenario")
    if H.r == 0:
        raise ValueError("channel has rank 0: there is no communication subchannel")
    if gamma_tilde is None:
        gamma_tilde = trace_budget(gamma, scenario.sigma_s2, scenario.Ns, scenario.L)
    else:
        gamma = crb_from_trace_budget(gamma_tilde, scenario.sigma_s2, scenario.Ns, scenario.L)

    gs = [float(x) / s2 for x in H.lambdas2]
    (path,), wf = _solution_paths(H, scenario, [gamma_tilde])

    if path == "infeasible":
        return SolveReport(None, None, None, "infeasible", gamma_tilde=gamma_tilde)

    if path == "boundary":
        # unique feasible point; optimal by the AM-HM equality condition
        p = np.full(m, P / m)
        alloc = PowerAllocation(p=p, mu=math.nan, v=math.nan, iterations=0,
                                kkt_residual=0.0, duality_gap=0.0)
        return _finish(alloc, H, scenario, gamma, gamma_tilde, "optimal")

    if path == "waterfill":
        ok, res, gap = _certify(gs, m, list(wf.p), 0.0, wf.v, gamma_tilde, P)
        alloc = PowerAllocation(p=wf.p, mu=0.0, v=wf.v, water_level=wf.water_level,
                                iterations=0, kkt_residual=res, duality_gap=gap)
        return _finish(alloc, H, scenario, gamma, gamma_tilde,
                       "optimal" if ok else "iteration_limit")

    mu, v, p, evals, converged = _solve_dual(gs, m, gamma_tilde, P)
    if p is None:
        return SolveReport(None, None, None, "iteration_limit", gamma_tilde=gamma_tilde)
    ok, res, gap = _certify(gs, m, p, mu, v, gamma_tilde, P)
    status = "optimal" if (converged and ok) else "iteration_limit"
    alloc = PowerAllocation(p=np.asarray(p), mu=mu, v=v, iterations=evals,
                            kkt_residual=res, duality_gap=gap)
    return _finish(alloc, H, scenario, gamma, gamma_tilde, status)


def _finish(alloc: PowerAllocation, H: ChannelMatrix, scenario: Scenario,
            gamma: float, gamma_tilde: float, status: str) -> SolveReport:
    Q = assemble_covariance(H.Vc, alloc.p, budget=scenario.P)
    achieved = CRPoint(
        crb=crb_trace(Q, scenario.sigma_s2, scenario.Ns, scenario.L),
        rate=rate(Q, H, scenario.sigma_c2),
        gamma_target=gamma,
        scheme="optimal",
    )
    return SolveReport(allocation=alloc, Q=Q, achieved=achieved, status=status,
                       gamma_tilde=gamma_tilde)
