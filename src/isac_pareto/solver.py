"""CRB-constrained rate maximization.

The problem is diagonalized by the channel SVD, reduced to a power
allocation over communication and dedicated sensing subchannels, and solved
through its Lagrange dual.  For multipliers (mu, v) each communication
subchannel takes the unique positive root of its stationarity equation,
found by a monotone Newton iteration (see :func:`cubic_stationary_root`),
and each sensing subchannel takes sqrt(mu/v); these powers form a family of
water-filling solutions, monotone in both multipliers.  The dual pair is
found by one search on a log scale in units of P, started from the equal
split: for fixed mu the power budget fixes v*(mu), and mu is then set by
the CRB budget along v*(mu).  Each pass evaluates the powers once and takes
one safeguarded Newton step of the joint 2x2 system in (log mu, log v), in
its Schur form: the CRB residual is predicted to first order at the end of
the inner Newton step in log v, and once the power-budget residual is small
against that prediction (an inexact Newton step) the pass moves log mu on
it and log v by the inner step plus the tangent of v*(mu); until then it
takes the inner step alone.  Only measured residuals move the brackets.

One routine, :func:`_solve_budgets`, decides each budget's path
(infeasible, the equal-split boundary, water-filling or the dual search)
and judges every candidate, water-filling and dual, by the same KKT
certificate in one loop; :func:`solve_p1` calls it for one budget and a
frontier sweep for all of its budgets.  The search has two forms with the
same iteration and arithmetic, chosen by the number of budgets on the
dual path: scalar Python, one budget at a time (:func:`_solve_dual`),
below a measured crossover, and all budgets at once over numpy arrays
(:func:`_lockstep_dual`) from it on.
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
    crb_trace,
    rate,
    trace_budget,
)
from .scenario import ChannelMatrix, Scenario

__all__ = [
    "SolveReport",
    "feasibility_check",
    "at_equal_split",
    "cubic_stationary_root",
    "stationarity_residual",
    "solve_p1",
]

INV_LN2 = 1.0 / LN2
_EPS = sys.float_info.epsilon

# The dual search stops once |log(sum 1/p / gamma_tilde)| is at most this;
# each inner solve for v*(mu) once |log(sum p / P)| is at most this.
_DUAL_TOL = 1e-13
_INNER_TOL = 1e-14
# A pass steps in log mu before the inner search has stopped once
# |log(sum p / P)| is at most this fraction of the outer residual.
_INNER_FRACTION = 0.1
# Largest Newton step in log mu or log v.
_MAX_LOG_STEP = 7.0
# Tolerance of the KKT certificate, and the budget of power-map evaluations
# of one dual search.
_KKT_TOL = 1e-9
_MAX_DUAL_ITERS = 2000
# Relative slack below M^2/P that still counts as a feasible budget, and on
# either side of M^2/P that counts as the equal-split budget.
_FEASIBILITY_RTOL = 1e-12
# Fewest dual-path budgets that _solve_budgets hands to the lockstep search
# (see its docstring for the measurement).
_LOCKSTEP_MIN_BUDGETS = 24


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


def feasibility_check(m: int, P: float, gamma_tilde: float) -> bool:
    """True iff the trace-inverse budget is achievable: gamma_tilde >= M^2/P.

    The minimum of sum 1/p_i under sum p_i <= P is M^2/P, attained by the
    equal allocation, so anything below that is infeasible.  A hair of
    relative tolerance, _FEASIBILITY_RTOL, absorbs round-trip conversion
    error.
    """
    if m < 1 or P <= 0.0:
        raise ValueError("need m >= 1 and P > 0")
    return gamma_tilde >= (m * m / P) * (1.0 - _FEASIBILITY_RTOL)


def at_equal_split(m: int, P: float, gamma_tilde: float) -> bool:
    """True iff the trace-inverse budget is the minimum M^2/P to within
    _FEASIBILITY_RTOL relative on either side, where the equal split P/M is
    the only feasible point."""
    c_min = m * m / P
    return c_min * (1.0 - _FEASIBILITY_RTOL) <= gamma_tilde <= c_min * (1.0 + _FEASIBILITY_RTOL)


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

    Needs mu > 0; at mu = 0 the power is the water-filling one,
    max(1/(v ln 2) - 1/g, 0), which :func:`waterfill` gives.
    For mu > 0, f is convex and strictly decreasing on p > 0, and at
    p0 = max(sqrt(mu/v), water-filling power) one of its terms alone equals
    v, so f(p0) >= 0.  Newton from p0 thus rises monotonically to the root;
    it stops when the next iterate no longer rises.  This is the iteration
    of :func:`_power_map_lanes`, with the same arithmetic, so both return
    the same root.
    """
    g = lambda2_over_sigma2
    if g <= 0.0:
        raise ValueError(f"channel gain must be positive, got {g}")
    if v <= 0.0:
        raise ValueError(f"power multiplier must be positive, got {v}")
    if mu <= 0.0:
        raise ValueError(f"CRB multiplier must be positive, got {mu}")
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


def _power_map(gs, m, mu, v):
    """Inner powers at (mu, v) > 0, their sum S and trace inverse C, and the
    partial derivatives of S and C in mu and v.

    Each communication subchannel takes its stationary root
    (:func:`cubic_stationary_root`) and each of the m - r sensing
    subchannels sqrt(mu/v).  The derivatives follow from the stationarity
    equations by implicit differentiation: dp/dv = 1/f'(p) and
    dp/dmu = -1/(p^2 f'(p)).
    """
    p = [cubic_stationary_root(g, mu, v) for g in gs]
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
        ps = math.sqrt(mu / v)
        p += [ps] * k
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

    The caller keeps the bracket [lo, hi] of measured sign changes.  A step
    that points away from the root is replaced by a full capped step
    towards it, steps are capped at _MAX_LOG_STEP, and a next x outside the
    bracket is replaced by the bracket's midpoint.  Returns whether the
    search stopped (|val| <= tol, or the bracket or the step has shrunk to a
    few ulps of x) and the next x.
    """
    ulps = 4.0 * _EPS * max(1.0, abs(x))
    if not step * val > 0.0:
        step = math.copysign(_MAX_LOG_STEP, val)
    step = max(-_MAX_LOG_STEP, min(_MAX_LOG_STEP, step))
    done = abs(val) <= tol or hi - lo <= ulps or abs(step) <= ulps
    nx = x + step
    return done, (nx if lo < nx < hi else 0.5 * (lo + hi))


def _equal_split_duals(gs, m):
    # log mu and log v, in units of P, that the dual searches start from: v
    # averages the rate slopes at the equal split 1/m, whose sensing law
    # fixes mu/v = 1/m^2
    x0 = math.log(INV_LN2 * sum(g / (1.0 + g / m) for g in gs) / m)
    return x0 - 2.0 * math.log(m), x0


def _solve_dual(gs, m, gamma_tilde):
    """Dual pair with both constraints tight, by log-scale Newton in units of
    P from the equal split: the scalar form of :func:`_lockstep_dual`.

    Each pass evaluates the power map once.  It computes the inner Newton
    step dx_in in log v on the power budget residual F = log S, and the
    outer residual on the curve v*(mu) to first order,
    G = log(C / gamma_tilde) + (v C_v / C) dx_in, with dx_in = 0 once the
    inner search has stopped: the Schur complement of the joint 2x2 Newton
    system in (log mu, log v).  Once the inner search has stopped, or
    |F| <= _INNER_FRACTION |G|, the pass takes a step in log mu: G decides
    the stop test, and the predicted trace inverse C exp((v C_v / C) dx_in)
    the step.  Only a measured G, with the inner search stopped, moves the
    log mu bracket: near p0 a predicted G can have the wrong sign.  It then
    moves log v by dx_in plus the tangent d log v* / d log mu and opens a
    new log v bracket.  Otherwise, and whenever the outer search has stopped
    before the inner one, the pass takes the inner step.  The search has
    converged when both have stopped.  A math error ends it unconverged.

    Returns (mu, v, powers, evaluations, converged); the powers belong to
    the last evaluated (mu, v), or are ``None`` if nothing was evaluated.
    """
    c_min = m * m
    t, x = _equal_split_duals(gs, m)  # log mu, log v
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
            # inner search: log S in log v
            F = math.log(S)
            dx_in = -F * S / (v * S_v)
            x_lo, x_hi = (x, x_hi) if F > 0.0 else (x_lo, x)
            inner_done, x_next = _newton_step(x, F, dx_in, x_lo, x_hi, _INNER_TOL)
            if inner_done:
                dx_in = 0.0
            # outer search along v*(mu), on log(C / gamma_tilde) after the
            # inner step to first order; the step acts on the excess
            # log((C - c_min) / (gamma_tilde - c_min)) instead, which is close
            # to linear in log mu both for loose CRB budgets and near the
            # equal-split boundary
            c_v = v * C_v / C
            G = math.log(C / gamma_tilde) + c_v * dx_in
            if inner_done or abs(F) <= _INNER_FRACTION * abs(G):
                dv_dmu = -S_mu / S_v
                excess = C * math.exp(c_v * dx_in) - c_min
                step = math.nan
                if excess > 0.0:
                    slope = mu * (C_mu + C_v * dv_dmu) / excess
                    step = -math.log(excess / (gamma_tilde - c_min)) / slope
                if inner_done:  # G is measured
                    t_lo, t_hi = (t, t_hi) if G > 0.0 else (t_lo, t)
                outer_done, t_next = _newton_step(t, G, step, t_lo, t_hi, _DUAL_TOL)
                if outer_done and inner_done:
                    converged = True
                    break
                if not outer_done:
                    x = x + dx_in + mu * dv_dmu / v * (t_next - t)
                    x_lo, x_hi = -math.inf, math.inf
                    t = t_next
                    continue
            x = x_next
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
    and complementary slackness; the duality gap is that of the Lagrangian
    at (p, mu, v), built from the same rate, power sum and trace inverse,
    against the rate.
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
    # written so that an infinite budget, met with mu = 0, leaves no inf - inf
    over_c = 0.0 if cinv <= gamma_tilde else cinv - gamma_tilde
    comp_c = 0.0 if mu == 0.0 else mu * abs(cinv - gamma_tilde)
    comp_p = v * abs(ssum - P)
    rate_val = INV_LN2 * sum(math.log1p(g * x) for g, x in zip(gs, p))
    # the Lagrangian at (p, mu, v), without its CRB term at mu = 0, where the
    # budget may be infinite
    crb_term = mu * (cinv - gamma_tilde) if mu > 0.0 else 0.0
    lagrangian = rate_val - crb_term - v * (ssum - P)
    gap_rel = abs(lagrangian - rate_val) / max(1.0, abs(rate_val))
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
    """:func:`_newton_step` for each lane: returns the lanes that stopped
    and the next x."""
    ulps = 4.0 * _EPS * np.maximum(1.0, np.abs(x))
    step = np.where(step * val > 0.0, step, np.copysign(_MAX_LOG_STEP, val))
    step = np.clip(step, -_MAX_LOG_STEP, _MAX_LOG_STEP)
    done = (np.abs(val) <= tol) | (hi - lo <= ulps) | (np.abs(step) <= ulps)
    nx = x + step
    return done, np.where((lo < nx) & (nx < hi), nx, 0.5 * (lo + hi))


def _lockstep_dual(gs, m, gamma_tildes):
    """:func:`_solve_dual` for many budgets of one channel at once.

    Each budget is one lane.  All lanes start from the equal split and run
    the passes of :func:`_solve_dual` in lockstep over numpy arrays: each
    pass evaluates the power map once for every live lane, and each lane
    keeps its own brackets on log mu and log v, chooses between the inner
    and the outer step by the rule of :func:`_solve_dual`, and has its own
    budget of _MAX_DUAL_ITERS evaluations.  Both steps are computed for
    every lane and each lane keeps the one it chose, with the arithmetic of
    the scalar form but for numpy's exp and log, at times an ulp off math's;
    so a lane takes the evaluations of that form unless the search is that
    sensitive, as just above p0.  Non-finite values stop a lane unconverged.

    The state arrays hold the live lanes only: on a pass where some lanes
    stop, their results are written out and every state array is compacted
    to the lanes left.  All live lanes have made the same number of
    evaluations, so one counter serves them all.

    Returns the (n,) arrays mu and v, the (n, m) powers of each lane's last
    evaluation, the (n,) evaluation counts and the (n,) converged flags.
    """
    g, k = np.asarray(gs), m - len(gs)
    gt = np.asarray(gamma_tildes, dtype=float)
    n = gt.size
    c_min = m * m
    t0, x0 = _equal_split_duals(gs, m)
    mu_out, v_out = np.full(n, np.nan), np.full(n, np.nan)
    p_out = np.full((n, m), np.nan)
    evals_out = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    # state of the live lanes: their indices, log mu, log v and brackets
    lane = np.arange(n)
    t = np.full(n, t0)
    x = np.full(n, x0)
    t_lo, t_hi = np.full(n, -np.inf), np.full(n, np.inf)
    x_lo, x_hi = t_lo.copy(), t_hi.copy()
    evals = 0
    with np.errstate(all="ignore"):
        while lane.size and evals < _MAX_DUAL_ITERS:
            evals += 1
            mu, v = np.exp(t), np.exp(x)
            p, S, C, S_mu, S_v, C_mu, C_v = _power_map_lanes(g, k, mu, v)
            finite = np.isfinite(S + C + S_mu + S_v + C_mu + C_v)
            # inner search: log S in log v
            F = np.log(S)
            dx_in = -F * S / (v * S_v)
            up = F > 0.0
            x_lo = np.where(up, x, x_lo)
            x_hi = np.where(up, x_hi, x)
            inner_done, x_next = _newton_lanes(x, F, dx_in, x_lo, x_hi, _INNER_TOL)
            dx_in = np.where(inner_done, 0.0, dx_in)
            # outer search along v*(mu), as in _solve_dual
            c_v = v * C_v / C
            G = np.log(C / gt) + c_v * dx_in
            dv_dmu = -S_mu / S_v
            excess = C * np.exp(c_v * dx_in) - c_min
            slope = mu * (C_mu + C_v * dv_dmu) / excess
            step = np.where(excess > 0.0, -np.log(excess / (gt - c_min)) / slope, np.nan)
            up = G > 0.0  # only a measured G moves the bracket
            t_lo = np.where(inner_done & up, t, t_lo)
            t_hi = np.where(inner_done & ~up, t, t_hi)
            outer_done, t_next = _newton_lanes(t, G, step, t_lo, t_hi, _DUAL_TOL)
            # a lane whose inner search has stopped, or whose inner residual
            # is small against the outer one while the outer search goes on,
            # takes its outer step: log v moves by the inner step plus the
            # tangent d log v* / d log mu and opens a new inner bracket; any
            # other lane takes its inner step
            outer = inner_done | ((np.abs(F) <= _INNER_FRACTION * np.abs(G)) & ~outer_done)
            x = np.where(outer, x + dx_in + mu * dv_dmu / v * (t_next - t), x_next)
            t = np.where(outer, t_next, t)
            x_lo = np.where(outer, -np.inf, x_lo)
            x_hi = np.where(outer, np.inf, x_hi)
            stop = inner_done & outer_done
            done = stop | ~finite | (evals == _MAX_DUAL_ITERS)
            if done.any():
                j = lane[done]
                mu_out[j], v_out[j], p_out[j] = mu[done], v[done], p[done]
                evals_out[j] = evals
                converged[j] = stop[done] & finite[done]
                keep = ~done
                lane, gt, t, x = lane[keep], gt[keep], t[keep], x[keep]
                t_lo, t_hi, x_lo, x_hi = t_lo[keep], t_hi[keep], x_lo[keep], x_hi[keep]
    return mu_out, v_out, p_out, evals_out, converged


def _check_channel(H: ChannelMatrix, scenario: Scenario) -> None:
    """Raise ``ValueError`` unless ``H`` is an Nc x M channel of positive rank."""
    if H.shape != (scenario.Nc, scenario.M):
        raise ValueError(f"channel shape {H.shape} does not match scenario")
    if H.r == 0:
        raise ValueError("channel has rank 0: there is no communication subchannel")


def _solve_budgets(H: ChannelMatrix, scenario: Scenario, gamma_tildes):
    """Solve the CRB-constrained problem for each trace-inverse budget of one
    channel; returns one (allocation, status) pair per budget, with
    allocation ``None`` when there is none to report, and whether the
    lockstep form searched the budgets on the dual path.

    Each budget takes one of four paths:

    * below the minimum M^2/P -> ``infeasible``;
    * at the minimum -> the unique feasible point, the equal split, optimal
      by the AM-HM equality condition (the dual is degenerate there, so no
      multipliers are reported);
    * a full-rank channel whose water-filling already meets the budget ->
      water-filling with a zero CRB multiplier;
    * otherwise both constraints are tight and the dual pair is searched
      for in units of P (gains g P, budgets gamma_tilde P, power 1, mapped
      back by p = P q, mu = P mu' and v = v' / P): by one scalar
      :func:`_solve_dual` per budget when there are fewer than
      _LOCKSTEP_MIN_BUDGETS such budgets, else by one :func:`_lockstep_dual`
      over all of them, whose output is mapped back over whole arrays.

    One loop then judges every candidate, water-filling and dual alike, in
    the original units: one with finite powers gets :func:`_certify`, and it
    is ``optimal`` if and only if it converged and passed.  A search that
    spends its _MAX_DUAL_ITERS evaluations, ends on a math error or misses
    the certificate gives ``iteration_limit``.

    A lockstep batch costs about as many passes as its slowest lane takes
    evaluations, and each pass has a fixed numpy overhead, so it only beats
    n scalar searches for large n.  Measured per stress link (mean over the
    first 60 of ``tests/battery.stress_links``), with n budgets log-spaced
    from M^2/P (1 + 1e-6) to the smaller of 1e3 M^2/P and just below the
    water-filling load, all on the dual path, each the best of nine runs
    interleaved over n and both forms (Python 3.11, numpy 2.4, 2 vCPUs):

    ====  ===========  =============  ===============
     n    scalar (ms)  lockstep (ms)  lockstep passes
    ====  ===========  =============  ===============
     2        0.45          2.85           13.7
     8        1.64          3.15           14.6
     12       2.44          3.35           14.7
     16       3.24          3.49           14.7
     20       4.02          3.59           14.7
     24       4.83          3.65           14.7
     28       5.58          3.75           14.8
     32       6.39          3.87           14.9
     50      10.03          4.30           15.0
    ====  ===========  =============  ===============

    So the two forms break even between 16 and 20 budgets.
    _LOCKSTEP_MIN_BUDGETS stays at 24, the crossover measured when a batch
    took about 25 passes; from 17 to 23 budgets the scalar form costs at
    most about 1 ms more per channel.
    """
    m, P = scenario.M, scenario.P
    gs = [float(x) / scenario.sigma_c2 for x in H.lambdas2]
    wf = None
    wf_trace_inv = math.inf
    if H.r == m:
        wf = waterfill(H.lambdas2, scenario.sigma_c2, P, m=m)
        if np.all(wf.p > 0.0):
            wf_trace_inv = float((1.0 / wf.p).sum())
    # iteration_limit with no allocation until a search evaluates the budget
    out: list[tuple[PowerAllocation | None, str]] = [(None, "iteration_limit")] * len(gamma_tildes)
    # one candidate per budget: (index, mu, v, powers, the powers as a list
    # if all are finite, else None, evaluations, converged)
    found = []
    dual = []  # indices of the budgets with both constraints tight
    for j, gamma_tilde in enumerate(gamma_tildes):
        if not feasibility_check(m, P, gamma_tilde):
            out[j] = (None, "infeasible")
        elif at_equal_split(m, P, gamma_tilde):
            out[j] = (PowerAllocation(p=np.full(m, P / m), mu=math.nan, v=math.nan,
                                      iterations=0, kkt_residual=0.0, duality_gap=0.0),
                      "optimal")
        elif wf is not None and wf_trace_inv <= gamma_tilde * (1.0 + 4e-12):
            found.append((j, 0.0, wf.v, wf.p, _finite_list(wf.p), 0, True))
        else:
            dual.append(j)
    gs_P, gts_P = [g * P for g in gs], [gamma_tildes[j] * P for j in dual]
    lockstep = len(dual) >= _LOCKSTEP_MIN_BUDGETS
    if lockstep:
        mu, v, q, evals, converged = _lockstep_dual(gs_P, m, gts_P)
        p = P * q
        lists = [x if ok else None
                 for x, ok in zip(p.tolist(), np.isfinite(p).all(axis=1).tolist())]
        found += zip(dual, (P * mu).tolist(), (v / P).tolist(), p, lists,
                     evals.tolist(), converged.tolist())
    else:
        for j, gt in zip(dual, gts_P):
            mu, v, q, evals, converged = _solve_dual(gs_P, m, gt)
            # a search that evaluated nothing leaves its budget at iteration_limit
            if q is not None:
                p = P * np.asarray(q)
                found.append((j, P * mu, v / P, p, _finite_list(p), evals, converged))
    for j, mu, v, p, p_list, evals, converged in found:
        ok, res, gap = False, math.nan, math.nan
        if p_list is not None:
            ok, res, gap = _certify(gs, m, p_list, mu, v, gamma_tildes[j], P)
        out[j] = (PowerAllocation(p=p, mu=mu, v=v, iterations=evals,
                                  kkt_residual=res, duality_gap=gap),
                  "optimal" if converged and ok else "iteration_limit")
    return out, lockstep


def _finite_list(p: np.ndarray) -> list[float] | None:
    return p.tolist() if np.isfinite(p).all() else None


def solve_p1(H: ChannelMatrix, scenario: Scenario, gamma: float) -> SolveReport:
    """Maximize the rate subject to CRB(Q) <= gamma and tr(Q) <= P.

    ``gamma`` is a CRB threshold; :func:`~isac_pareto.metrics.crb_from_trace_budget`
    converts a budget on tr(Q^-1) into one.  The channel rank and gains are
    those of ``H`` (``H.r`` and ``H.lambdas2``).  A channel whose shape is
    not Nc x M, a rank-0 channel, a NaN threshold, and a threshold whose
    trace budget is infinite on a rank-deficient channel raise
    ``ValueError``.

    The budget takes the path :func:`_solve_budgets` gives it: status
    ``infeasible`` below the minimum M^2/P; the equal split at it;
    water-filling with a zero CRB multiplier when that already meets the
    budget; and otherwise the scalar dual search :func:`_solve_dual`,
    Newton steps in log v on the power budget and in log mu on the CRB
    budget from the equal split, each kept in a sign-change bracket and
    capped.  ``optimal`` is only reported with a passing KKT certificate,
    and a search that spends its _MAX_DUAL_ITERS power-map evaluations
    gives ``iteration_limit``.
    """
    _check_channel(H, scenario)
    m = scenario.M
    gamma_tilde = trace_budget(gamma, scenario.sigma_s2, scenario.Ns, scenario.L)
    if math.isnan(gamma_tilde):
        raise ValueError("gamma is NaN")
    if gamma_tilde == math.inf and H.r < m:
        raise ValueError(f"gamma = {gamma} leaves the CRB unbounded on a rank-{H.r} channel "
                         f"with M = {m}, where the sensing subchannels then have no optimal power")

    ((alloc, status),), _ = _solve_budgets(H, scenario, [gamma_tilde])
    if alloc is None:
        return SolveReport(None, None, None, status, gamma_tilde=gamma_tilde)
    return _finish(alloc, H, scenario, gamma_tilde, status)


def _finish(alloc: PowerAllocation, H: ChannelMatrix, scenario: Scenario,
            gamma_tilde: float, status: str) -> SolveReport:
    Q = assemble_covariance(H.Vc, alloc.p)
    achieved = CRPoint(crb=crb_trace(Q.Q, scenario.sigma_s2, scenario.Ns, scenario.L),
                       rate=rate(Q.Q, H.H, scenario.sigma_c2))
    return SolveReport(allocation=alloc, Q=Q, achieved=achieved, status=status,
                       gamma_tilde=gamma_tilde)
