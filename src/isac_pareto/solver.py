"""CRB-constrained rate maximization.

The problem is diagonalized by the channel SVD, reduced to a power
allocation over communication and dedicated sensing subchannels, and solved
through its Lagrange dual.  For multipliers (mu, v) each communication
subchannel takes the unique positive root of its stationarity equation,
found by one bracketed, safeguarded Newton iteration (see
:func:`cubic_stationary_root`), and each sensing subchannel takes
sqrt(mu/v); these powers form a family of water-filling solutions,
monotone in both multipliers.  The dual pair is
found by one nested search on a log scale: for fixed mu the power budget
fixes v*(mu), and mu is then set by the CRB budget along v*(mu).  Both are
safeguarded Newton iterations on the tight constraints.  The search starts
from the equal split, or, inside a frontier sweep, from the multipliers of
the neighbouring threshold (see :func:`_warm_start`).
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
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
    "SolverSettings",
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


class InactiveChannelError(ValueError):
    """The stationarity equation has no positive root: with a zero CRB
    multiplier the water level sits below this channel's noise floor."""


@dataclass
class SolverSettings:
    """``max_dual_iters`` bounds the evaluations of the inner power map over
    the whole dual search."""

    kkt_tol: float = 1e-9
    max_dual_iters: int = 2000

    def __post_init__(self) -> None:
        if self.kkt_tol <= 0:
            raise ValueError("KKT tolerance must be positive")
        if self.max_dual_iters < 1:
            raise ValueError("iteration budget must be positive")


@dataclass
class SolveReport:
    """Outcome of one CRB-constrained solve.

    ``status`` is one of ``optimal``, ``infeasible`` or ``iteration_limit``.
    ``optimal`` always carries a passing KKT certificate;
    ``iteration_limit`` means the dual search ran out of its budget or
    stopped short of the certificate.  On non-optimal statuses the
    remaining fields carry the best-effort iterate (or ``None`` when
    infeasible).  ``allocation.iterations`` counts the evaluations of the
    inner power map, those of a discarded warm-started search included.
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
    decreasing on p > 0, and its root lies in the bracket
    [max(sqrt(mu/v), water-filling power), zero of 1/(p ln 2) + mu/p^2 - v]:
    at the lower end one term of f alone equals v, and the upper end's
    function bounds f from above.  A Newton iteration starts at the lower
    end, where a step never overshoots; a step that leaves the bracket of
    the sign changes seen so far is replaced by the bracket's geometric
    midpoint.  It
    stops when f is exactly zero, the bracket has shrunk to a few ulps, or a
    step no longer moves p, and returns the evaluated point with the
    smallest |f|.
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
    lo = max(math.sqrt(mu / v), INV_LN2 / v - 1.0 / g)
    hi = (INV_LN2 + math.sqrt(INV_LN2 * INV_LN2 + 4.0 * mu * v)) / (2.0 * v)
    p = best = lo
    best_f = math.inf
    for _ in range(200):
        gp1 = 1.0 + g * p
        comm = INV_LN2 * g / gp1
        sens = mu / (p * p)
        f = comm + sens - v
        # near a root at large v, |f| is a few ulps of v and the last
        # iterate need not be the most accurate one
        if abs(f) < best_f:
            best, best_f = p, abs(f)
        if f > 0.0:
            lo = p
        elif f < 0.0:
            hi = p
        else:
            break
        if hi - lo <= 4.0 * _EPS * hi:
            break
        q = p + f / (comm * g / gp1 + 2.0 * sens / p)
        if q == p:
            break
        p = q if lo < q < hi else math.sqrt(lo * hi)
    return best


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


def _log_newton(residual, x: float, tol: float) -> float:
    """Root of a strictly decreasing function of x by safeguarded Newton.

    ``residual(x)`` returns the function value and a proposed Newton step.
    Steps are capped at _MAX_LOG_STEP.  A step that points away from the
    root is replaced by a full capped step towards it, and one that leaves
    the bracket of the sign changes seen so far by the bracket's midpoint.
    Stops when |value| <= tol, or when the bracket or the step has shrunk
    to a few ulps of x.  The returned x is always the last one evaluated.
    """
    lo, hi = -math.inf, math.inf
    while True:
        val, step = residual(x)
        if abs(val) <= tol:
            return x
        if val > 0.0:
            lo = x
        else:
            hi = x
        ulps = 4.0 * _EPS * max(1.0, abs(x))
        if hi - lo <= ulps:
            return x
        if not step * val > 0.0:
            step = math.copysign(_MAX_LOG_STEP, val)
        step = max(-_MAX_LOG_STEP, min(_MAX_LOG_STEP, step))
        if abs(step) <= ulps:
            return x
        nx = x + step
        x = nx if lo < nx < hi else 0.5 * (lo + hi)


class _BudgetExhausted(Exception):
    pass


def _solve_dual(gs, m, gamma_tilde, P, budget, start=None):
    """Dual pair with both constraints tight, by nested log-scale Newton.

    The search starts from ``start`` = (mu, v) when given, else from the
    equal split.  Returns (mu, v, powers, evaluations, converged); the
    powers belong to the last evaluated (mu, v), or are ``None`` if nothing
    was evaluated.
    """
    evals = 0
    last = None  # (mu, v, _power_map output) of the latest evaluation
    c_min = m * m / P

    def power_residual(mu, x):
        # log(S / P) at v = e^x, and its Newton step in x
        nonlocal evals, last
        if evals >= budget:
            raise _BudgetExhausted
        evals += 1
        v = math.exp(x)
        last = (mu, v, _power_map(gs, m, mu, v))
        _, S, _, _, S_v, _, _ = last[2]
        F = math.log(S / P)
        return F, -F * S / (v * S_v)

    if start is None:
        # the equal split, whose sensing law fixes mu/v = (P/m)^2
        v0 = INV_LN2 * sum(g / (1.0 + g * P / m) for g in gs) / m
        mu0 = v0 * (P / m) ** 2
    else:
        mu0, v0 = start
    log_v = math.log(v0)
    tangent = None  # (log mu, d log v* / d log mu) at the previous mu

    def crb_residual(t):
        # log(C / gamma_tilde) along v*(mu) decides convergence; the Newton
        # step acts on log((C - c_min) / (gamma_tilde - c_min)) instead,
        # which is close to linear in log mu both for loose CRB budgets and
        # near the equal-split boundary
        nonlocal log_v, tangent
        mu = math.exp(t)
        if tangent is not None:
            log_v += tangent[1] * (t - tangent[0])
        log_v = _log_newton(lambda x: power_residual(mu, x), log_v, _INNER_TOL)
        _, v, (_, S, C, S_mu, S_v, C_mu, C_v) = last
        dv_dmu = -S_mu / S_v
        tangent = (t, mu * dv_dmu / v)
        excess = C - c_min
        step = math.nan
        if excess > 0.0:
            slope = mu * (C_mu + C_v * dv_dmu) / excess
            step = -math.log(excess / (gamma_tilde - c_min)) / slope
        return math.log(C / gamma_tilde), step

    converged = False
    try:
        _log_newton(crb_residual, math.log(mu0), _DUAL_TOL)
        converged = True
    except (_BudgetExhausted, ArithmeticError, ValueError):
        pass
    if last is None:
        return math.nan, math.nan, None, evals, False
    mu, v, (p, *_) = last
    return mu, v, p, evals, converged


def _certify(gs, m, p, mu, v, gamma_tilde, P, kkt_tol):
    """KKT certificate for a candidate (p, mu, v).

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
    slack_scale = kkt_tol * max(1.0, gamma_tilde, P)
    residual = max(stat, sens, over_p, over_c, comp_c, comp_p)
    ok = (
        stat <= kkt_tol
        and sens <= kkt_tol
        and over_p <= kkt_tol * max(1.0, P)
        and over_c <= kkt_tol * max(1.0, gamma_tilde)
        and comp_c <= slack_scale
        and comp_p <= slack_scale
        and gap_rel <= 1e-8
    )
    return ok, residual, gap_rel


# (mu, v) that the dual searches of solve_p1 start from; set by _warm_start
_DUAL_START: ContextVar[tuple[float, float] | None] = ContextVar("dual_start", default=None)


@contextmanager
def _warm_start(start: tuple[float, float] | None):
    """Start the dual search of every :func:`solve_p1` in the block from
    ``start`` = (mu, v) instead of the equal split (``None``: equal split).

    A frontier sweep passes the multipliers of the previous threshold.  The
    power budget alone fixes v*(mu), whatever the CRB budget, so the search
    resumes on the previous v*(mu) curve and only has to move mu.  A
    warm-started search that ends without a passing certificate is
    discarded and the solve starts again from the equal split, so a warm
    start never costs a certified result; each search has the full
    ``settings.max_dual_iters`` budget.
    """
    token = _DUAL_START.set(start)
    try:
        yield
    finally:
        _DUAL_START.reset(token)


def solve_p1(
    H: ChannelMatrix,
    scenario: Scenario,
    gamma: float | None = None,
    settings: SolverSettings | None = None,
    *,
    gamma_tilde: float | None = None,
) -> SolveReport:
    """Maximize the rate subject to CRB(Q) <= gamma and tr(Q) <= P.

    Exactly one of ``gamma`` (a CRB threshold) or ``gamma_tilde`` (the
    equivalent budget on tr(Q^-1)) must be given.  The channel rank and
    gains are those of ``H`` (``H.r`` and ``H.lambdas2``).

    Solution path:

    * infeasible budget -> status ``infeasible``;
    * budget exactly at the minimum M^2/P -> the unique feasible point, the
      equal allocation (the dual is degenerate there, so no multipliers are
      reported);
    * full-rank channel whose water-filling already satisfies the CRB
      budget -> water-filling with a zero CRB multiplier;
    * otherwise both constraints are tight.  The dual pair is found by a
      Newton search in log mu on the CRB budget, each step solving the
      power budget for v*(mu) by a Newton search in log v; both searches
      keep a sign-change bracket and cap their steps.  The result is then
      certified against the KKT conditions: ``optimal`` is only reported
      with a passing certificate, and an exhausted
      ``settings.max_dual_iters`` budget gives ``iteration_limit``.
    """
    if settings is None:
        settings = SolverSettings()
    if (gamma is None) == (gamma_tilde is None):
        raise ValueError("give exactly one of gamma or gamma_tilde")
    m, P, s2 = scenario.M, scenario.P, scenario.sigma_c2
    if H.shape != (scenario.Nc, scenario.M):
        raise ValueError(f"channel shape {H.shape} does not match scenario")
    if gamma_tilde is None:
        gamma_tilde = trace_budget(gamma, scenario.sigma_s2, scenario.Ns, scenario.L)
    else:
        gamma = crb_from_trace_budget(gamma_tilde, scenario.sigma_s2, scenario.Ns, scenario.L)

    lam2 = H.lambdas2
    gs = [float(x) / s2 for x in lam2]

    if not feasibility_check(m, P, gamma_tilde):
        return SolveReport(None, None, None, "infeasible", gamma_tilde=gamma_tilde)

    min_trace_inv = m * m / P
    if gamma_tilde <= min_trace_inv * (1.0 + 1e-12):
        # unique feasible point; optimal by the AM-HM equality condition
        p = np.full(m, P / m)
        alloc = PowerAllocation(p=p, mu=math.nan, v=math.nan, iterations=0,
                                kkt_residual=0.0, duality_gap=0.0)
        return _finish(alloc, H, scenario, gamma, gamma_tilde, "optimal")

    if H.r == m:
        wf = waterfill(lam2, s2, P, m=m)
        if np.all(wf.p > 0.0):
            trace_inv = float((1.0 / wf.p).sum())
            if trace_inv <= gamma_tilde * (1.0 + 4e-12):
                ok, res, gap = _certify(gs, m, list(wf.p), 0.0, wf.v, gamma_tilde, P,
                                        settings.kkt_tol)
                alloc = PowerAllocation(p=wf.p, mu=0.0, v=wf.v,
                                        water_level=wf.water_level, iterations=0,
                                        kkt_residual=res, duality_gap=gap)
                return _finish(alloc, H, scenario, gamma, gamma_tilde,
                               "optimal" if ok else "iteration_limit")

    # a warm-started search stands only with a certificate; else a cold one runs
    start = _DUAL_START.get()
    evals = 0
    for first in ([None] if start is None else [start, None]):
        mu, v, p, spent, converged = _solve_dual(gs, m, gamma_tilde, P,
                                                 settings.max_dual_iters, first)
        evals += spent
        if p is None:
            continue
        ok, res, gap = _certify(gs, m, p, mu, v, gamma_tilde, P, settings.kkt_tol)
        if converged and ok:
            break
    if p is None:
        return SolveReport(None, None, None, "iteration_limit", gamma_tilde=gamma_tilde)
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
