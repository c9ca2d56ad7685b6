"""CRB-constrained rate maximization.

The problem is diagonalized by the channel SVD, reduced to a power
allocation over communication and dedicated sensing subchannels, and solved
through its Lagrange dual.  For multipliers (mu, v) each communication
subchannel takes the unique positive root of its stationarity equation,
found by a monotone Newton iteration (see :func:`cubic_stationary_root`),
and each sensing subchannel takes sqrt(mu/v); these powers form a family of
water-filling solutions, monotone in both multipliers.  The dual pair is
found by one search on a log scale in units of P: for fixed mu the power
budget fixes v*(mu), and mu is then set by the CRB budget along v*(mu).
The search carries the multipliers and the communication powers only; the
sensing subchannels enter its sums through sqrt(mu/v), and their powers are
formed once, from the multipliers in the original units.
Each budget's search starts on the C-R boundary of a two-group surrogate
of the channel, which is explicit: two groups of equal subchannels, fitted
in closed form to the channel's one water-filling in units of P, which the
water-filling path shares, and scaled to the dual pair's asymptote at the
equal split (:func:`_ends`, :func:`_dual_start`).  Each pass evaluates
once the powers, their sum and trace inverse, and those two's
log-derivatives (mu d/dmu and v d/dv), the only derivatives the search
uses.  It takes one safeguarded
Newton step of the joint 2x2 system in (log mu, log v), in its Schur form:
the CRB residual G is predicted to first order at the end of the inner
Newton step in log v, and once the power-budget residual F is small against
that prediction, |F| min(1, |F|) <= _INNER_FRACTION |G| (an inexact Newton
step, whose forcing test is on F^2 near the root, as the prediction is off
by O(F^2) there), the pass moves log mu on it and log v by the inner step
plus the tangent of v*(mu); until then it takes the inner step alone.  Only
measured residuals move the brackets.  A budget so loose that the CRB
multiplier in units of P would leave the normal float range is rejected
before any search (:func:`_ends`).  A search that converges
onto a point over the CRB budget, as just above p0, is finished on the
feasible end of its log mu bracket: the search's own evaluation there.

One routine, :func:`_solve_budgets`, decides each budget's path
(infeasible, the equal-split boundary, water-filling or the dual search)
and judges every candidate, water-filling and dual, by the same KKT
certificate in one loop, each dual candidate an evaluation that its
search handed back, and evaluates nothing itself; :func:`solve_p1` calls
it for one budget and a frontier sweep for all of its budgets.  It
converts into units of P once, on entry, where a subchannel whose gain
underflows to 0 is searched as a dedicated sensing subchannel, and every
candidate back once, just before its certificate; that conversion gives
each dedicated sensing subchannel the power sqrt(mu/v) that the
certificate checks.  One driver, :func:`_dual_searches`, runs every
channel's searches together, pass by pass; each search (:class:`_Search`)
keeps its own next multipliers and evaluation count, and its pass is one
step (:meth:`_Search.step`), with every exp and log from :func:`_exp` and
:func:`_log`, on the values of one of two power maps: scalar Python, once
per search (:func:`_power_map`), or numpy, once per pass over all live
searches (:func:`_power_map_lanes`), the only call made in numpy's error
state, so that a pass whose numpy map divides by zero falls back to the
scalar map, which raises there.  The two maps share their arithmetic: the
Newton iterate of the stationary root (:func:`_root_iterate`), the root's
1/p^2 and log-derivatives (:func:`_root_derivatives`) and the sums' terms
of the sensing subchannels (:func:`_add_sensing`) are each written once,
with + - * / alone, which round alike on floats and on numpy arrays.  Each
map keeps only its root's start (``max`` or ``np.where``), its stop test
and the order in which it adds the subchannels, the same in both.  So
either map gives the same numbers, bit for bit, and the number of budgets
on the dual path chooses between them, at a measured crossover, for speed
alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import PowerAllocation, _check_gains, _waterfill_unit
from .metrics import (
    INV_LN2,
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
    "SolveReport",
    "ThresholdTooLooseError",
    "feasibility_check",
    "at_equal_split",
    "cubic_stationary_root",
    "stationarity_residual",
    "solve_p1",
]

_EPS = sys.float_info.epsilon

# The dual search stops once |log(sum 1/p / gamma_tilde)| is at most this;
# each inner solve for v*(mu) once |log(sum p / P)| is at most this.
_DUAL_TOL = 1e-13
_INNER_TOL = 1e-14
# A pass steps in log mu before the inner search has stopped once
# |F| min(1, |F|) is at most this fraction of |G|, with F = log(sum p / P)
# and G the outer residual predicted at the end of the inner step.  G is
# exact to first order in that step, which is about F in size, so near the
# root the test is on F^2; from |F| = 1 on it is a fixed ratio.
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
# Fewest dual-path budgets of one channel whose searches _solve_budgets has
# evaluated by the lanes power map; `python tests/battery.py crossover`
# measures the break-even of the two maps.
_LOCKSTEP_MIN_BUDGETS = 14


class ThresholdTooLooseError(ValueError):
    """A CRB threshold on the dual search's path above the largest one the
    search can reach at this power (see :func:`_solve_budgets`)."""


@dataclass
class SolveReport:
    """Outcome of one CRB-constrained solve.

    ``status`` is one of ``optimal``, ``infeasible`` or ``iteration_limit``.
    ``optimal`` always carries a passing KKT certificate;
    ``iteration_limit`` means the dual search spent its _MAX_DUAL_ITERS
    power-map evaluations, ended on a math error or a non-finite
    evaluation, or stopped short of the certificate.  On non-optimal
    statuses the remaining fields carry the best-effort iterate (or
    ``None`` when infeasible).
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


def _root_iterate(a, g, mu, v, p):
    """The Newton iterate p + f(p) / -f'(p) of the stationarity equation
    f(p) = a/(1 + g p) + mu/p^2 - v, with a = g / ln 2, which the caller
    forms once per root.

    This and :func:`_root_derivatives` and :func:`_add_sensing` are the
    arithmetic that both power maps share.  Each takes Python floats or
    numpy arrays of one shape and uses + - * / alone, which IEEE 754 rounds
    correctly, so an array's element gets the float's value bit for bit.
    New arithmetic of the maps goes into these helpers.
    """
    gp1 = g * p + 1.0
    comm = a / gp1
    sens = mu / (p * p)
    return (comm + sens - v) / (comm * (g / gp1) + sens * 2.0 / p) + p


def _root_derivatives(g, mu, v, p):
    """1/p^2 and the log-derivatives mu dp/dmu and v dp/dv of the stationary
    root p, by implicit differentiation of f(p) = 0: with d = -f'(p),
    mu dp/dmu = (mu/p^2)/d and v dp/dv = -v/d."""
    h = g / (1.0 + g * p)
    inv2 = 1.0 / (p * p)
    d = INV_LN2 * h * h + 2.0 * mu * inv2 / p
    return inv2, mu * inv2 / d, -v / d


def _add_sensing(sums, k, ps):
    """The sums (S, C, S_t, S_x, C_t, C_x) of :func:`_power_map` with k
    sensing subchannels of power ps = sqrt(mu/v) added: each adds ps to S
    and 1/ps to C, and since mu dps/dmu = ps/2 = -v dps/dv, half of those to
    the log-derivatives, with the signs of ps and 1/ps.  With k = 0 the sums
    are returned as they are, and ps, which may then be 0, is not read."""
    if not k:
        return sums
    S, C, S_t, S_x, C_t, C_x = sums
    return (S + k * ps, C + k / ps, S_t + 0.5 * k * ps, S_x - 0.5 * k * ps,
            C_t - 0.5 * k / ps, C_x + 0.5 * k / ps)


def cubic_stationary_root(lambda2_over_sigma2: float, mu: float, v: float) -> float:
    """Unique positive power solving the per-subchannel stationarity equation
    f(p) = g/((1 + g p) ln 2) + mu/p^2 - v = 0, with g the noise-normalized
    channel gain (cleared of denominators, a cubic in p).

    Needs mu > 0; at mu = 0 the power is the water-filling one,
    max(1/(v ln 2) - 1/g, 0), which :func:`waterfill` gives.
    For mu > 0, f is convex and strictly decreasing on p > 0, and at
    p0 = max(sqrt(mu/v), water-filling power) one of its terms alone equals
    v, so f(p0) >= 0.  Newton from p0 thus rises monotonically to the root;
    it stops when the next iterate no longer rises.  The iterate is
    :func:`_root_iterate`, which :func:`_power_map_lanes` takes too; this
    root keeps only its start and its stop test, each the lanes map's on one
    lane, so both return the same root.  It is the scalar map's root.
    """
    g = lambda2_over_sigma2
    if g <= 0.0:
        raise ValueError(f"channel gain must be positive, got {g}")
    if v <= 0.0:
        raise ValueError(f"power multiplier must be positive, got {v}")
    if mu <= 0.0:
        raise ValueError(f"CRB multiplier must be positive, got {mu}")
    a, p, wf = INV_LN2 * g, math.sqrt(mu / v), INV_LN2 / v - 1.0 / g
    p = wf if wf > p else p  # max(p, wf), as _power_map_lanes takes it
    for _ in range(200):
        q = _root_iterate(a, g, mu, v, p)
        if not q > p:
            break
        p = q
    return p


def _power_map(gs, m, mu, v):
    """Powers of the r = len(gs) communication subchannels at (mu, v) > 0,
    the sum S and trace inverse C of all m powers, and the derivatives of S
    and C in t = log mu and x = log v that the searches step on:
    S_t = mu dS/dmu, S_x = v dS/dv, and likewise C_t and C_x.

    Each communication subchannel takes its stationary root
    (:func:`cubic_stationary_root`), and its derivatives follow by implicit
    differentiation (:func:`_root_derivatives`); the sums add the
    subchannels in their order, from 0.0.  Each of the m - r sensing
    subchannels takes sqrt(mu/v), which enters S, C and their derivatives
    (:func:`_add_sensing`) but is not returned: :func:`_solve_budgets`
    forms it once, in the original units.  The arithmetic is that of
    :func:`_power_map_lanes`, shared through those helpers.
    """
    p = [cubic_stationary_root(g, mu, v) for g in gs]
    S = C = S_t = S_x = C_t = C_x = 0.0
    for g, x in zip(gs, p):
        inv2, dp_dt, dp_dx = _root_derivatives(g, mu, v, x)
        S += x
        C += 1.0 / x
        S_t += dp_dt
        S_x += dp_dx
        C_t -= inv2 * dp_dt
        C_x -= inv2 * dp_dx
    return p, *_add_sensing((S, C, S_t, S_x, C_t, C_x), m - len(gs), math.sqrt(mu / v))


def _exp(x):
    """math.exp(x) where that is a positive finite float, else NaN.

    The dual search takes every exp and log from this kernel and
    :func:`_log`, one search at a time, with either power map: IEEE 754
    rounds +, -, *, / and sqrt correctly, but not exp and log, whose last
    digits differ between libm and numpy's own loops.  A NaN multiplier
    ends a search on its last evaluation, and a NaN in the excess of its
    outer step leaves it the capped step of :func:`_newton_step`.
    """
    try:
        y = math.exp(x)
    except OverflowError:
        return math.nan
    return y if 0.0 < y < math.inf else math.nan


def _log(x):
    """math.log(x) where x > 0, else NaN; see :func:`_exp`.  A NaN log of
    the power sum ends a search on that evaluation."""
    return math.log(x) if x > 0.0 else math.nan


def _newton_step(x, val, step, lo, hi, tol):
    """One safeguarded Newton step on a strictly decreasing function of x,
    whose value at x is ``val`` and whose proposed step is ``step``.

    The caller keeps the bracket [lo, hi] of measured sign changes.  A step
    that points away from the root is replaced by a full capped step
    towards it, steps are capped at _MAX_LOG_STEP, and a next x outside the
    bracket is replaced by the bracket's midpoint, with an infinite end
    taken at _MAX_LOG_STEP from x.  Returns whether the search stopped
    (|val| <= tol, or the bracket or the step has shrunk to a few ulps of
    x) and the next x.
    """
    # max(1.0, |x|) and the clamp of the step, by comparisons, which pick
    # what max() and min() pick, NaN included; step is no NaN here
    ax = abs(x)
    ulps = 4.0 * _EPS * (ax if ax > 1.0 else 1.0)
    if not step * val > 0.0:
        step = math.copysign(_MAX_LOG_STEP, val)
    if step > _MAX_LOG_STEP:
        step = _MAX_LOG_STEP
    elif step < -_MAX_LOG_STEP:
        step = -_MAX_LOG_STEP
    done = abs(val) <= tol or hi - lo <= ulps or abs(step) <= ulps
    nx = x + step
    if not lo < nx < hi:
        nx = 0.5 * ((x - _MAX_LOG_STEP if lo == -math.inf else lo)
                    + (x + _MAX_LOG_STEP if hi == math.inf else hi))
    return done, nx


class _Ends(NamedTuple):
    """What the dual search's start and its searchable limit need to know of
    one channel, in units of P (positive gains gs, power 1); see
    :func:`_ends`."""

    b_bar: float  # near the equal split v is about mu m^2 + b_bar
    v_wf: float  # for loose budgets v tends to the water level v_wf
    groups: tuple[int, float, int, float] | None  # the surrogate (n_a, f_a, n_b, f_b)
    lam: float  # its mu times lam, and its excess times eta, are the channel's
    eta: float
    limit: float  # largest searchable budget


def _slope(p, f):
    """Rate slope 1/((p + f) ln 2) at power p of a subchannel of floor f = 1/g
    (0 for a sensing subchannel, f = inf)."""
    return 0.0 if f == math.inf else INV_LN2 / (p + f)


def _two_groups(n_a, n_b, excess):
    """Powers p_a >= p_b of n_a and n_b subchannels that share power 1 with
    trace inverse (n_a + n_b)^2 + excess, and their gap p_a - p_b: the
    smaller root of n_a^2 / (1 - n_b p_b) + n_b / p_b = (n_a + n_b)^2 +
    excess, written without cancellation near the equal split or overflow
    for loose budgets."""
    root = math.sqrt(excess) * math.sqrt(4.0 * n_a * n_b + excess)
    den = 2.0 * n_b * (n_a + n_b) + excess + root
    p_b = 2.0 * n_b / den
    gap = (excess + root) / (n_a * den)
    return p_b + gap, p_b, gap


def _ends(gs, m, wf):
    """The two-group surrogate of the channel that the dual search starts
    from, and the largest trace-inverse budget up to which the search needs
    no CRB multiplier mu' below the normal float range, all in units of P
    (positive gains gs, power 1, and m - len(gs) sensing subchannels), from
    ``wf``, the :func:`~.closed_form._waterfill_unit` of gs.  The surrogate
    is scaled to the asymptote of the dual pair at the tight end of the C-R
    boundary.

    The tight end: about the equal split 1/m the stationarity equations give
    p_i - 1/m = (b_i - b_bar) / (2 mu' m^3) to first order in 1/mu', with
    b_i = g_i / ((1 + g_i/m) ln 2) the rate slope at 1/m (0 on a sensing
    subchannel) and b_bar their mean, so v' = mu' m^2 + b_bar and the
    excess C - m^2 = m^3 sum (p_i - 1/m)^2 = a / mu'^2, with
    a = sum (b_i - b_bar)^2 / (4 m^3).  The series holds only close to the
    equal split: at 1.5 x CRB_min a / mu'^2 is 5 to 200 times the excess.

    The surrogate: on two groups of equal subchannels the boundary is
    explicit (see :func:`_dual_start`).  Group a has the n wet subchannels
    of the water-filling, and their mean floor 1/g as its floor, so that its
    water level is the channel's, v_wf.  If some subchannels are dry, group
    b has them, with the floor that gives it the dry ones' mean sqrt(e),
    e = v_wf - g / ln 2 (e = v_wf on a sensing subchannel): for loose
    budgets both trace inverses then grow as d / sqrt(mu'), d the dry ones'
    sum sqrt(e).  Dry subchannels near the water level give group b a
    finite floor, and with it the cube-root law
    1/p = (g^2 / (mu' ln 2))^(1/3) of a just-dry subchannel, which holds
    long before the sensing law 1/p = sqrt(e / mu').  If every subchannel
    is wet, the excess tends to the finite c_wet - m^2 as mu' falls to 0,
    c_wet the water-filling's trace inverse; group b is then the weakest
    subchannel alone, group a the others with their mean floor, and group
    b's floor the one at which the surrogate water-fills to trace inverse
    c_wet.  The channel's mu' is lam times the surrogate's and its excess
    eta times the surrogate's: lam gives the surrogate the tight constant a,
    and eta keeps its d (eta = lam^(-1/2)) or its c_wet (eta = 1).

    The limit: at the smallest normal mu' each dry 1/p is at least
    max(sqrt(e / mu'), (g^2 / (mu' ln 2))^(1/3)), and the trace inverse at
    least the sum of these; no budget up to that sum needs a subnormal mu'.
    A full-rank channel that water-fills every subchannel has no dry one:
    its budgets above the water-filling load take that path instead.  A
    strongest gain whose inverse overflows leaves the bound undefined, and
    the largest float stands then too.  A non-finite step of the fit leaves
    the surrogate undefined (``None``).
    """
    big = sys.float_info.max
    b = [INV_LN2 * g / (1.0 + g / m) for g in gs]
    b_bar = sum(b) / m
    a = sum([(x - b_bar) * (x - b_bar) for x in b]) + (m - len(gs)) * b_bar * b_bar
    a /= 4.0 * m ** 3
    q, v, n = wf
    floors = [1.0 / g for g in gs]
    # the square and cube roots of the smallest normal float, taken apart so
    # that no ratio to it overflows
    root2, root3 = math.sqrt(sys.float_info.min), sys.float_info.min ** (1.0 / 3.0)
    d = (m - len(gs)) * math.sqrt(v)
    limit = d / root2
    for x in floors[n:]:
        sqrt_e = math.sqrt(max(v - INV_LN2 / x, 0.0))
        d += sqrt_e
        limit += max(sqrt_e / root2, (INV_LN2 / (x * x)) ** (1.0 / 3.0) / root3)
    limit = limit if 0.0 < limit < big else big
    groups, lam, eta = None, math.nan, math.nan
    try:
        if n < m:
            n_a, n_b = n, m - n
            f_a = sum(floors[:n]) / n_a
            e_b = (d / n_b) ** 2
            f_b = INV_LN2 / (v - e_b) if v > e_b else math.inf
        else:
            n_a, n_b = m - 1, 1
            f_a = sum(floors[:-1]) / n_a
            q_a, q_b, _ = _two_groups(n_a, n_b, sum([1.0 / x for x in q]) - m * m)
            f_b = q_a + f_a - q_b
        a_s = n_a * n_b * (_slope(1.0 / m, f_a) - _slope(1.0 / m, f_b)) ** 2 / (4.0 * m ** 4)
        lam = (a / a_s) ** (2.0 / 3.0 if n < m else 0.5)
        eta = lam ** -0.5 if n < m else 1.0
        if math.isfinite(f_a + lam + eta):
            groups = (n_a, f_a, n_b, f_b)
    except (ArithmeticError, ValueError):
        pass
    return _Ends(b_bar, v, groups, lam, eta, limit)


def _dual_start(ends, m, gamma_tilde):
    """log mu and log v, in units of P, that the dual search starts from for
    the budget gamma_tilde > m^2, from the two-group surrogate of
    :func:`_ends`.

    On n_a and n_b subchannels of floors f_a and f_b with powers p_a and p_b,
    n_a p_a + n_b p_b = 1, the trace inverse n_a / p_a + n_b / p_b fixes the
    powers by a quadratic (:func:`_two_groups`), and the two stationarity
    equations b(p) p^2 + mu = v p^2 are then linear in (mu, v):
    v = (b_a p_a^2 - b_b p_b^2) / (p_a^2 - p_b^2) and mu = (v - b_b) p_b^2.
    The surrogate is solved for the budget's excess over m^2 divided by eta,
    and its mu times lam is the start.  log v is that of
    mu m^2 + s b_bar + (1 - s) v_wf, with s = p_b / p_a, which runs from 1 at
    the equal split, where v is about mu m^2 + b_bar, to 0 where group b
    runs dry.  This is the one start.  Without a surrogate, or if its
    arithmetic is not finite, the search starts from the equal split
    instead: v averages the rate slopes there and the sensing law fixes
    mu/v = 1/m^2.
    """
    c_min = m * m
    b_bar, v_wf, groups, lam, eta, _ = ends
    try:
        if groups is not None:
            n_a, f_a, n_b, f_b = groups
            p_a, p_b, gap = _two_groups(n_a, n_b, (gamma_tilde - c_min) / eta)
            b_a, b_b = _slope(p_a, f_a), _slope(p_b, f_b)
            v = (b_a * p_a * p_a - b_b * p_b * p_b) / (gap * (p_a + p_b))
            t = math.log(lam * (v - b_b)) + 2.0 * math.log(p_b)
            s = p_b / p_a
            x = math.log(math.exp(t) * c_min + s * b_bar + (1.0 - s) * v_wf)
            if math.isfinite(t + x):
                return t, x
    except (ArithmeticError, ValueError):
        pass
    x = math.log(b_bar)
    return x - 2.0 * math.log(m), x


class _Search:
    """One budget's dual search in units of P: log mu and log v (t and x) and
    their brackets, the latest evaluation and the one at the feasible end of
    the log mu bracket, each (mu, v, powers), mu = exp(t) (``None`` until it
    is taken for the current t), the multipliers ``mu_v`` of its next
    evaluation, ``None`` once it has stopped, and the evaluations ``evals``
    it has made.  It starts from :func:`_dual_start`; :meth:`step`
    is its pass, and the driver, :func:`_dual_searches`, only evaluates a
    power map at ``mu_v``, counts the evaluation and sets the ``mu_v`` that
    the pass returns."""

    __slots__ = ("gamma_tilde", "c_min", "t", "x", "t_lo", "t_hi", "x_lo", "x_hi",
                 "last", "at_t_hi", "converged", "mu", "mu_v", "evals")

    def __init__(self, ends, m, gamma_tilde):
        self.gamma_tilde, self.c_min = gamma_tilde, m * m
        self.t, self.x = _dual_start(ends, m, gamma_tilde)
        self.t_lo = self.x_lo = -math.inf
        self.t_hi = self.x_hi = math.inf
        self.last = self.at_t_hi = self.mu = None
        self.converged = False
        self.mu_v, self.evals = self.multipliers(), 0

    def multipliers(self):
        """(mu, v) of the next evaluation, from :func:`_exp`, or ``None`` where
        either is NaN: the search then ends unconverged, on its last
        evaluation.  exp(t) is taken once per value of t."""
        mu = self.mu
        if mu is None:
            mu = self.mu = _exp(self.t)
        v = _exp(self.x)
        return None if math.isnan(mu + v) else (mu, v)

    def step(self, mu_v, values):
        """One pass on ``values``, the evaluation (p, S, C, S_t, S_x, C_t,
        C_x) of a power map at ``mu_v`` = (mu, v), the ``evals``-th; returns
        the multipliers of the next evaluation (:meth:`multipliers`), or
        ``None`` once the search has stopped, converged or not, or has spent
        its _MAX_DUAL_ITERS evaluations.

        The pass computes the inner Newton step dx_in in log v on the power
        budget residual F = log S, and the outer residual on the curve v*(mu)
        to first order, G = log(C / gamma_tilde) + (C_x / C) dx_in, with
        dx_in = 0 once the inner search has stopped: the Schur complement of
        the joint 2x2 Newton system in (log mu, log v), whose entries are the
        log-derivatives that the power map returns.  Once the inner search
        has stopped, or |F| min(1, |F|) <= _INNER_FRACTION |G|, the pass
        takes a step in log mu: G decides the stop test, and the predicted
        trace inverse C exp((C_x / C) dx_in) the step.  The forcing test of
        an inexact Newton step (Dembo, Eisenstat & Steihaug, 1982) would
        compare |F| itself with |G|; but G is exact to first order in dx_in,
        which is about F in size, so its error is O(F^2), and once |F| < 1
        the test is on F^2.  Far from the root it is the fixed ratio.  So
        the pass after an outer step, where |F| is still most of |G| but both
        are small, need not spend an evaluation on the inner step alone.
        Only a measured G, with the inner search stopped, moves the log mu
        bracket: near p0 a predicted G can have the wrong sign.  The outer
        step moves log v by dx_in plus the tangent d log v* / d log mu and
        opens a new log v bracket.  Otherwise, and whenever the outer search
        has stopped before the inner one, the pass takes the inner step.
        The search has converged when both have stopped.  It stops
        unconverged where log S (:func:`_log`), C or a derivative is not
        finite, and a ZeroDivisionError of the pass stops it so in the
        caller; either way on this evaluation.
        """
        mu, v = mu_v
        p, S, C, S_t, S_x, C_t, C_x = values
        self.last = (mu, v, p)
        # inner search: log S in log v
        F = _log(S)
        if not math.isfinite(F + C + S_t + S_x + C_t + C_x):
            return None
        x = self.x
        dx_in = -F * S / S_x
        if F > 0.0:
            self.x_lo = x
        else:
            self.x_hi = x
        inner_done, x_next = _newton_step(x, F, dx_in, self.x_lo, self.x_hi, _INNER_TOL)
        if inner_done:
            dx_in = 0.0
        # outer search along v*(mu), on log(C / gamma_tilde) after the inner
        # step to first order; the step acts on the excess
        # log((C - c_min) / (gamma_tilde - c_min)) instead, which is close to
        # linear in log mu both for loose CRB budgets and near the
        # equal-split boundary
        c_v = C_x / C
        G = _log(C / self.gamma_tilde) + c_v * dx_in
        abs_f = abs(F)
        # min(1.0, |F|) by a comparison, which picks what min() picks
        if inner_done or abs_f * (abs_f if abs_f < 1.0 else 1.0) <= _INNER_FRACTION * abs(G):
            t = self.t
            dx_dt = -S_t / S_x  # d log v* / d log mu
            excess = C * _exp(c_v * dx_in) - self.c_min
            step = math.nan
            if excess > 0.0:
                slope = (C_t + C_x * dx_dt) / excess
                step = -_log(excess / (self.gamma_tilde - self.c_min)) / slope
            if inner_done:  # G is measured
                if G > 0.0:
                    self.t_lo = t
                else:
                    self.t_hi, self.at_t_hi = t, self.last
            outer_done, t_next = _newton_step(t, G, step, self.t_lo, self.t_hi, _DUAL_TOL)
            if outer_done and inner_done:
                self.converged = True
                return None
            if not outer_done:
                x_next = x + dx_in + dx_dt * (t_next - t)
                self.x_lo, self.x_hi = -math.inf, math.inf
                self.t, self.mu = t_next, None
        self.x = x_next
        return self.multipliers() if self.evals < _MAX_DUAL_ITERS else None

    def result(self):
        """(candidates, evals, converged), as :func:`_dual_searches` hands
        it back: the candidates are the last evaluation and, if the search
        measured one, the one at the feasible end of its log mu bracket,
        where C <= gamma_tilde; there is none if nothing was evaluated."""
        return [c for c in (self.last, self.at_t_hi) if c is not None], self.evals, self.converged


def _certify(gs, m, p, mu, v, gamma_tilde, P):
    """KKT certificate for a candidate (p, mu, v) at tolerance _KKT_TOL.

    Returns (ok, residual, relative_duality_gap).  The residual is the worst
    over stationarity (:func:`stationarity_residual` on each communication
    subchannel), the sensing-power law, primal feasibility overshoot and
    complementary slackness; the duality gap is that of the Lagrangian at
    (p, mu, v), built from the same rate, power sum and trace inverse,
    against the rate.  One pass over p forms each subchannel's terms; the
    power sum, trace inverse and rate are then the builtin ``sum`` of those
    terms in subchannel order.
    """
    r = len(gs)
    stat = 0.0
    inv, logs = [], []  # each positive power's 1/p; each communication log1p(g p)
    for g, x in zip(gs, p):
        gx = g * x
        if x > 0.0:
            # |stationarity_residual(x, g, mu, v)|, written out
            res = INV_LN2 * g / (1.0 + gx) - v
            if mu != 0.0:
                res += mu / (x * x)
            res = abs(res)
            if res > stat:
                stat = res
            inv.append(1.0 / x)
        else:
            # a dry channel is only consistent with mu = 0 and a water level
            # below its floor
            stat = max(stat, mu, max(0.0, INV_LN2 * g - v))
        logs.append(math.log1p(gx))
    sens = 0.0
    if m > r:
        ps = math.sqrt(mu / v) if (mu >= 0.0 and v > 0.0) else math.inf
        sens = max([abs(x - ps) for x in p[r:]])
        inv += [1.0 / x for x in p[r:] if x > 0.0]
    ssum = float(sum(p))
    cinv = sum(inv) if len(inv) == m else math.inf
    over_p = max(0.0, ssum - P)
    # written so that an infinite budget, met with mu = 0, leaves no inf - inf
    over_c = 0.0 if cinv <= gamma_tilde else cinv - gamma_tilde
    comp_c = 0.0 if mu == 0.0 else mu * abs(cinv - gamma_tilde)
    comp_p = v * abs(ssum - P)
    rate_val = INV_LN2 * sum(logs)
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
    g the r communication gains and k = m - r sensing subchannels; each lane
    gets that map's values bit for bit, as both take their arithmetic from
    :func:`_root_iterate`, :func:`_root_derivatives` and
    :func:`_add_sensing`.

    What this map keeps of its own: each stationary root starts where
    :func:`cubic_stationary_root` starts, through ``np.where``, and the
    iteration runs for all subchannels and lanes at once until no iterate
    rises any more, a root that has stopped rising staying put.  The sums
    add the subchannels in their order, as :func:`_power_map` does: a
    running sum down the first axis, where numpy's ``sum`` would add one
    lane's terms pairwise.  Returns the (r, n) communication powers and the
    (n,) arrays S, C and the log-derivatives S_t, S_x, C_t and C_x, whose
    sums include the k sensing subchannels' sqrt(mu/v).
    """
    # (r, n) operands throughout: same-shape arithmetic is faster than
    # broadcasting at these sizes
    n, r = mu.size, g.size
    G = g[:, None].repeat(n, axis=1)
    A = INV_LN2 * G
    MU = mu[None, :].repeat(r, axis=0)
    V = v[None, :].repeat(r, axis=0)
    p = np.sqrt(MU / V)
    wf = INV_LN2 / V - 1.0 / G
    p = np.where(wf > p, wf, p)
    for _ in range(200):
        q = _root_iterate(A, G, MU, V, p)
        rises = q > p
        if not rises.any():
            break
        p = np.where(rises, q, p)
    inv2, dp_dt, dp_dx = _root_derivatives(G, MU, V, p)
    S, C, S_t, S_x = (np.add.accumulate(a)[-1] for a in (p, 1.0 / p, dp_dt, dp_dx))
    # subtracted from 0.0, as _power_map subtracts them, down to a zero's sign
    C_t, C_x = (0.0 - np.add.accumulate(inv2 * a)[-1] for a in (dp_dt, dp_dx))
    return p, *_add_sensing((S, C, S_t, S_x, C_t, C_x), k, np.sqrt(mu / v))


def _dual_searches(gs, m, gamma_tildes, ends, lanes):
    """One dual search per budget of one channel, each a :class:`_Search`
    from the start :func:`_dual_start` gives with the channel's
    :func:`_ends`, with its own budget of _MAX_DUAL_ITERS evaluations.

    The searches run pass by pass over the live ones, those whose next
    multipliers ``mu_v`` are set.  Each pass evaluates the power map at each
    live search's ``mu_v``, and then counts each search's evaluation and sets
    its next ``mu_v`` to what its pass :meth:`_Search.step` on its own values
    returns.  With ``lanes`` the pass evaluates
    :func:`_power_map_lanes` once over all live searches; without it,
    :func:`_power_map` once per search.  The two maps have the same
    arithmetic, so each search hands back the same numbers, bit for bit,
    whichever map evaluates it.  Where they part is a division by zero:
    Python raises ZeroDivisionError, while numpy only sets its divide flag
    (or, for 0/0, its invalid flag) and carries an inf or NaN on.  So the
    :func:`_power_map_lanes` call, the only numpy arithmetic of a pass, runs
    with both flags raising FloatingPointError, a pass that raises it is
    evaluated by :func:`_power_map` instead, lane by lane, and a search
    whose map divides by zero ends there with either map; an invalid
    operation that is no division gives a NaN in both maps, and costs that
    pass only time.  The scalar map runs outside numpy's error state, and
    so does not pay for setting it.

    A search ends unconverged where its next multipliers are NaN, on its
    last evaluation; where its pass stops it unconverged, on that
    evaluation; and where its power map or its pass divides by zero, on
    the last evaluation it completed.

    Returns one (candidates, evaluations, converged) per budget.  The
    candidates are up to two evaluations, each (mu, v, powers) with the
    len(gs) communication powers just as the power map returned them (see
    :meth:`_Search.result`).
    """
    g, k = np.asarray(gs) if lanes else None, m - len(gs)
    searches = [_Search(ends, m, b) for b in gamma_tildes]
    live = [search for search in searches if search.mu_v is not None]
    while live:
        values = None
        if lanes:
            mu, v = zip(*[search.mu_v for search in live])
            try:
                with np.errstate(all="ignore", divide="raise", invalid="raise"):
                    p, *sums = _power_map_lanes(g, k, np.array(mu), np.array(v))
                values = zip(p.T.tolist(), *[a.tolist() for a in sums])
            except FloatingPointError:
                pass  # evaluated by _power_map, which raises where it divides by zero
        for search in live:
            mu_v = search.mu_v
            search.evals += 1
            try:
                search.mu_v = search.step(mu_v, _power_map(gs, m, *mu_v) if values is None
                                          else next(values))
            except ZeroDivisionError:
                search.mu_v = None
        live = [search for search in live if search.mu_v is not None]
    return [search.result() for search in searches]


def _check_channel(H: ChannelMatrix, scenario: Scenario) -> None:
    """Raise ``ValueError`` unless ``H`` is an Nc x M channel of positive rank
    whose gains in units of P, lambda^2 P / sigma_c2, are finite."""
    if H.shape != (scenario.Nc, scenario.M):
        raise ValueError(f"channel shape {H.shape} does not match scenario")
    if H.r == 0:
        raise ValueError("channel has rank 0: there is no communication subchannel")
    _check_gains(H, scenario)


def _solve_budgets(H: ChannelMatrix, scenario: Scenario, gamma_tildes):
    """Solve the CRB-constrained problem for each trace-inverse budget of one
    channel; returns one (allocation, status) pair per budget, with
    allocation ``None`` when there is none to report, and whether the lanes
    power map evaluated the searches of the budgets on the dual path.

    Everything above the minimum is decided and searched in units of P:
    the gains g P that stay positive there (any other subchannel is searched
    as a dedicated sensing subchannel), budgets gamma_tilde P and power 1.
    Each budget takes one of four paths:

    * below the minimum M^2/P -> ``infeasible``;
    * at the minimum -> the unique feasible point, the equal split, optimal
      by the AM-HM equality condition (the dual is degenerate there, so no
      multipliers are reported);
    * a channel with M positive gains in units of P whose water-filling
      already meets the budget -> water-filling with a zero CRB multiplier,
      from the channel's one :func:`~.closed_form._waterfill_unit`, which
      :func:`_ends` shares;
    * otherwise both constraints are tight and the dual pair is searched
      for, by one :func:`_dual_searches` over all such budgets, whose
      searches the scalar power map evaluates when there are fewer than
      _LOCKSTEP_MIN_BUDGETS of them and the lanes map otherwise.  A budget
      above the searchable limit of :func:`_ends`, where the search would
      need a subnormal mu', or whose value in units of P overflows, raises
      :class:`ThresholdTooLooseError` naming the loosest CRB threshold (or
      saying that its trace budget overflows, where that budget is
      infinite) and the largest searchable one, or, if that limit is at or
      below the minimum M^2, a plain ``ValueError`` naming P and sigma_c2,
      at which no threshold above the minimum can be searched; the
      water-filling raises a ``ValueError`` naming P if no gain stays
      positive in units of P.  No search runs for any budget then.

    One loop then judges every candidate, water-filling and dual alike,
    and evaluates nothing: the water-filling is one candidate, and each
    search hands back the evaluations it ends on (see :func:`_dual_searches`).
    Each is mapped back by the one conversion p = P q, mu = P mu' and
    v = v' / P.  The same conversion gives each dedicated sensing
    subchannel sqrt(mu / v) of the converted multipliers, the very
    expression the certificate checks, or inf where v is not positive, as a
    search stopped by a non-finite evaluation can leave v' = 0.  Each
    candidate is judged in the original units: one with finite powers
    gets :func:`_certify`, and it is ``optimal`` if and only if it converged
    and passed.  A converged search whose last evaluation fails with the
    trace inverse over its budget has its evaluation at the feasible end of
    its log mu bracket, if it measured one, converted and judged instead,
    with no evaluation added.  A search that spends its _MAX_DUAL_ITERS
    evaluations, ends on a math error or a non-finite evaluation, or misses
    the certificate gives ``iteration_limit``.

    The lanes map costs a fixed numpy overhead per pass, and a batch takes
    about as many passes as its slowest search takes evaluations, so it
    pays only for many budgets; ``python tests/battery.py crossover``
    measures where it starts to, which sets _LOCKSTEP_MIN_BUDGETS.  The two
    maps give the same numbers, bit for bit, so the constant chooses a speed
    and never a result.
    """
    m, P = scenario.M, scenario.P
    gs = [float(x) / scenario.sigma_c2 for x in H.lambdas2]
    # the gains that stay positive in units of P; any other subchannel is
    # searched as a dedicated sensing subchannel
    gs_P = [x for x in (g * P for g in gs) if x > 0.0]
    wf = None  # the channel's water-filling, made by the first budget that needs it
    # iteration_limit with no allocation until a search evaluates the budget
    out: list[tuple[PowerAllocation | None, str]] = [(None, "iteration_limit")] * len(gamma_tildes)
    # each searched budget, in units of P: (index, (the candidates its path
    # evaluated as (mu', v', powers), evaluations, converged))
    found = []
    dual, gts_P = [], []  # the budgets with both constraints tight
    for j, gamma_tilde in enumerate(gamma_tildes):
        if not feasibility_check(m, P, gamma_tilde):
            out[j] = (None, "infeasible")
        elif at_equal_split(m, P, gamma_tilde):
            out[j] = (PowerAllocation(p=np.full(m, P / m), mu=math.nan, v=math.nan,
                                      iterations=0, kkt_residual=0.0, duality_gap=0.0),
                      "optimal")
        else:
            if wf is None:
                wf = _waterfill_unit(gs_P, P)
                # its trace inverse, NaN where it leaves a subchannel dry, so
                # that no budget takes the path, not even one that overflows
                wf_load = (sum([1.0 / x for x in wf[0]]) if len(gs_P) == m and min(wf[0]) > 0.0
                           else math.nan)
            gt_P = float(gamma_tilde) * P
            if wf_load <= gt_P * (1.0 + 4e-12):
                found.append((j, ([(0.0, wf[1], wf[0])], 0, True)))
            else:
                dual.append(j)
                gts_P.append(gt_P)
    lockstep = len(dual) >= _LOCKSTEP_MIN_BUDGETS
    if dual:
        ends = _ends(gs_P, m, wf)
        if max(gts_P) > ends.limit:
            if ends.limit <= m * m:
                raise ValueError(f"no CRB threshold above the minimum can be searched at "
                                 f"P = {P:g} and sigma_c2 = {scenario.sigma_c2:g}")
            crb, crb_limit = (crb_from_trace_budget(x, scenario.sigma_s2, scenario.Ns, scenario.L)
                              for x in (max(gamma_tildes[j] for j in dual), ends.limit / P))
            # a finite threshold whose trace budget overflows maps back to inf
            loosest = (f"CRB threshold {crb:.6g}" if crb < math.inf
                       else "a CRB threshold whose trace budget overflows")
            raise ThresholdTooLooseError(f"{loosest} is too loose to search at P = {P:g}: "
                                         f"thresholds above {crb_limit:.6g} cannot be searched")
        found += zip(dual, _dual_searches(gs_P, m, gts_P, ends, lockstep))
    # a search that evaluated nothing has no candidate, and leaves its budget
    # at iteration_limit
    k = m - len(gs_P)  # the dedicated sensing subchannels
    for j, (candidates, evals, converged) in found:
        gamma_tilde = gamma_tildes[j]
        for mu, v, q in candidates:
            # the one conversion out of units of P, into budget j's candidate,
            # where each dedicated sensing subchannel takes sqrt(mu / v)
            p, mu_j, v_j = [P * x for x in q], P * mu, v / P
            if k:
                p += [math.sqrt(mu_j / v_j) if v_j > 0.0 else math.inf] * k
            ok, res, gap = False, math.nan, math.nan
            if all(map(math.isfinite, p)):
                ok, res, gap = _certify(gs, m, p, mu_j, v_j, gamma_tilde, P)
            out[j] = (PowerAllocation(p=np.array(p), mu=mu_j, v=v_j, iterations=evals,
                                      kkt_residual=res, duality_gap=gap),
                      "optimal" if converged and ok else "iteration_limit")
            # just above p0, C can move by more than _KKT_TOL between
            # neighbouring floats of log mu, so a converged last evaluation
            # may sit over the budget; the search's own evaluation at the
            # feasible end of its log mu bracket is then the candidate
            if not (converged and not ok and sum(1.0 / x for x in p) > gamma_tilde):
                break
    return out, lockstep


def solve_p1(H: ChannelMatrix, scenario: Scenario, gamma: float) -> SolveReport:
    """Maximize the rate subject to CRB(Q) <= gamma and tr(Q) <= P.

    ``gamma`` is a CRB threshold; :func:`~isac_pareto.metrics.crb_from_trace_budget`
    converts a budget on tr(Q^-1) into one.  The channel rank and gains are
    those of ``H`` (``H.r`` and ``H.lambdas2``).  A channel whose shape is
    not Nc x M, a rank-0 channel, one whose gains overflow in units of P
    (lambda^2 P / sigma_c2), a NaN threshold, a threshold whose trace
    budget is infinite on a rank-deficient channel, and one on the dual
    path too loose to search (:class:`ThresholdTooLooseError`) or on a
    channel whose gains all underflow in units of P (see
    :func:`_solve_budgets`) raise ``ValueError``.

    The budget takes the path :func:`_solve_budgets` gives it: status
    ``infeasible`` below the minimum M^2/P; the equal split at it;
    water-filling with a zero CRB multiplier when that already meets the
    budget; and otherwise the dual search of :func:`_dual_searches` with
    the scalar power map, Newton steps in log v on the power budget and in
    log mu on the CRB budget from the boundary of the channel's two-group
    surrogate, each kept in a sign-change bracket and capped.  ``optimal``
    is only reported with a passing KKT certificate, and a search that
    spends its _MAX_DUAL_ITERS power-map evaluations gives
    ``iteration_limit``.
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
