"""Independent verification machinery for the CRB-constrained solver.

Deliberately shares no numerical method with the main solver and uses no
derivative.  The dual is minimized from its values alone by two nested
log-grid shrinks: h(mu) = min_v D(mu, v) is convex, since partial
minimization keeps convexity, so a shrink over 16 mu values is exact, and
each h value comes from an inner shrink over 16 v values.  Inner stationary
points come from bisection (no cubic formula).  Each bisection starts from
a closed-form bracket of its root, so it spends no steps narrowing a
generic window.  Each inner shrink starts from the closed-form window of
v*(mu) = argmin_v D(mu, v), narrowed by the v* already found: the
stationary powers rise with mu and fall with v, and v* is where they sum to
P, so v* is nondecreasing in mu and lies between the v* of the nearest mu
evaluated either side.  A narrowed window whose argmin lands on an edge it
narrowed may have missed v*, and that shrink starts again from the
closed-form window.  Tiny instances are
additionally brute-forced on a primal simplex grid, whose best point is
then zoomed on the tight constraint surface.

The cost is numpy's per-call overhead on small arrays, so each pass is made
wide: a 16-point window narrows 7.5x per step where an 8-point one narrows
3.5x, and an inner step evaluates one 16 x 16 block of (mu, v) points.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import PowerAllocation
from .metrics import LN2
from .solver import at_equal_split, feasibility_check

__all__ = [
    "oracle_dual_grid",
    "oracle_primal_grid",
    "sample_feasible_covariance",
]

INV_LN2 = 1.0 / LN2


def _check_instance(r: int, m: int, P: float, gamma_tilde: float) -> None:
    if r == 0:
        raise ValueError("channel has rank 0: there is no communication subchannel")
    if r > m:
        raise ValueError(f"more channel gains ({r}) than antennas ({m})")
    if not math.isfinite(gamma_tilde):
        raise ValueError(f"gamma_tilde must be finite, got {gamma_tilde}")
    if not feasibility_check(m, P, gamma_tilde):
        raise ValueError(f"budget {gamma_tilde} below the minimum {m * m / P}")


def _dual_box(gs: np.ndarray, P: float, gamma_tilde: float) -> float:
    """Upper edge of the starting mu window; a window whose argmin lands on
    an edge moves on its own."""
    return 10.0 * (INV_LN2 * float(np.max(gs)) + P * gamma_tilde)


# relative margin by which every closed-form bracket is widened: far above
# the rounding of the few operations that compute it, and far below the
# 1e-6 log step at which a shrink stops
_BRACKET_RTOL = 1e-9


def _root_bracket(gs: np.ndarray, MU: np.ndarray, V: np.ndarray):
    """Closed-form bracket [lo, hi] of each stationary power at each (mu, v).

    The stationarity residual f(p) = g / ((1 + g p) ln2) + mu / p^2 - v
    decreases in p.  Each of its positive terms alone reaches v at one of
    sqrt(mu / v) and 1 / (v ln2) - 1 / g, so f >= 0 at the larger of the
    two; lo is that, or 0 if both are negative.  f(p) < 1 / (p ln2) +
    mu / p^2 - v, whose positive zero bounds the root from above; on a dry
    channel, v > g / ln2, so does sqrt(mu / (v - g / ln2)), as f(p) <
    g / ln2 + mu / p^2 - v; hi is the smaller.  A dry channel at mu = 0,
    where f < 0 for all p > 0, gets lo = hi = 0, its stationary power.
    Both ends move outward by _BRACKET_RTOL.  Returns two (n_points, r)
    matrices.
    """
    G = gs[None, :]
    MUc = MU[:, None]
    Vc = V[:, None]
    shade = 1.0 - _BRACKET_RTOL
    lo = np.maximum(np.sqrt(MUc / Vc) * shade, (INV_LN2 * shade) / Vc - 1.0 / G)
    hi = (INV_LN2 + np.sqrt(INV_LN2 * INV_LN2 + 4.0 * MUc * Vc)) / (2.0 * shade * Vc)
    dry = Vc * shade - INV_LN2 * G
    with np.errstate(divide="ignore", invalid="ignore"):
        hi_dry = np.where(dry > 0.0, np.sqrt(MUc / dry) / shade, np.inf)
    return np.maximum(lo, 0.0), np.minimum(hi, hi_dry)


def _bisect_comm_powers(gs: np.ndarray, MU: np.ndarray, V: np.ndarray, iters: int = 32) -> np.ndarray:
    """Stationary powers of all communication subchannels at each (mu, v).

    Vectorized bisection of the monotone-decreasing stationarity residual f
    from the bracket of :func:`_root_bracket`; returns an (n_points, r)
    matrix.  A subchannel's Lagrangian term is concave in p with slope f,
    |f| <= v on the bracket, and the bracket is at most about 1 / (v ln2)
    wide.  So n halvings leave the term within 2^-(n+1) / ln2 bits of its
    maximum whatever the size of the root: 1.7e-10 at the default 32.  That
    bound is loose where the root is interior, as the term is stationary
    there and its error is of the order of the squared relative error of p.
    On the dual grids of the oracle tests, the benchmark and a seeded
    250-draw random probe, the bracket is at most about 2^18 times the
    root, and 32 halvings give every dual value to within 2e-14 relative of
    its 200-halving value.  That is the rounding of the dual value itself
    where it is worst: there v sum(p) and mu gamma_tilde are 20 times the
    value and cancel.  Final powers take 200 halvings.
    """
    inv_g = 1.0 / gs[None, :]
    MUc = MU[:, None]
    Vc = V[:, None]
    lo, hi = _root_bracket(gs, MU, V)
    w = hi - lo
    # a dry channel at mu = 0 has lo = hi = 0, where mu / mid^2 is 0 / 0 and
    # the comparison below is False
    with np.errstate(invalid="ignore"):
        for _ in range(iters):
            w *= 0.5
            mid = lo + w
            # f(mid) > 0, with f = (1 / ln2) / (1 / g + mid) + mu / mid^2 - v
            pos = INV_LN2 / (inv_g + mid) + MUc / (mid * mid) > Vc
            np.copyto(lo, mid, where=pos)
    return lo + 0.5 * w


def _grid_values(gs, m, MU, V, gamma_tilde, P):
    """Dual function at each of the flattened (mu, v) points.

    mu = 0 is a legal boundary point of the dual domain: the sensing powers
    and any dry communication channels sit at zero there and contribute
    nothing to the Lagrangian, so the mu term drops out.
    """
    r = gs.size
    comm = _bisect_comm_powers(gs, MU, V)
    rate_part = np.log1p(gs[None, :] * comm).sum(axis=1) * INV_LN2
    ssum = comm.sum(axis=1)
    if m > r:
        ps = np.sqrt(MU / V)
        ssum = ssum + (m - r) * ps
    vals = rate_part - V * (ssum - P)
    pos = MU > 0.0
    if np.any(pos):
        with np.errstate(divide="ignore"):
            cinv = (1.0 / comm[pos]).sum(axis=1)
        if m > r:
            cinv = cinv + (m - r) / np.sqrt(MU[pos] / V[pos])
        vals[pos] -= MU[pos] * (cinv - gamma_tilde)
    return vals


def _repair_feasible(p: np.ndarray, m: int, P: float, gamma_tilde: float) -> np.ndarray:
    """Project each row of an (n, m) stack of near-feasible allocations onto
    the power face and inside the trace-inverse budget.

    Scaling onto sum(p) = P is always done (scaling up strictly lowers the
    trace-inverse load, scaling down is needed for feasibility); a remaining
    budget violation is removed by blending toward the uniform point, which
    lands the row on the tight budget surface.  The blend weight is bisected
    to 2^-60, far inside the 1e-15 margin it is then given.
    """
    q = np.clip(p, 1e-300, None)
    q = q * (P / q.sum(axis=1, keepdims=True))
    over = (1.0 / q).sum(axis=1, keepdims=True) > gamma_tilde
    if not np.any(over):
        return q
    to_uniform = P / m - q
    lo = np.zeros_like(over, dtype=float)
    hi = np.ones_like(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fits = (1.0 / (q + mid * to_uniform)).sum(axis=1, keepdims=True) <= gamma_tilde
        lo, hi = np.where(fits, lo, mid), np.where(fits, mid, hi)
    theta = np.where(over, np.minimum(1.0, hi * (1.0 + 1e-12) + 1e-15), 0.0)
    return q + theta * to_uniform


# points per window of a log-grid shrink, and its stopping rule: a window
# narrows until its grid step is at most _SHRINK_TOL in log scale, or for at
# most _SHRINK_STEPS evaluations.  Much below 1e-8 the argmin picks would be
# rounding noise.  Of 8, 12, 16 and 24 points, 16 ran the dual grid
# fastest: the median of 9 runs over 29 instances took 3.9, 2.9, 2.4 and
# 3.0 s (Python 3.11, numpy 2.4, 2 vCPUs).
_SHRINK_POINTS = 16
_SHRINK_TOL = 1e-6
_SHRINK_STEPS = 60


def _log_shrink(values, lo: np.ndarray, hi: np.ndarray):
    """Minimize a unimodal function of x > 0 per row by a log-grid shrink.

    ``values`` maps an (n, _SHRINK_POINTS) array of points, one row per
    problem, to their values; ``lo`` and ``hi`` are the (n,) starting
    windows.  An interior argmin narrows its row's window to one grid step
    either side, which is exact for a unimodal function; an edge argmin
    re-centres the window on that edge at the same width.  Exact values of
    a unimodal function never send a re-centred window back to the opposite
    edge, so such a bounce is rounding noise on a flat stretch and narrows
    the window instead.  Only a narrowing shrinks the step, so a window that
    reaches the tolerance brackets the minimum; its argmin, even on an
    edge, is then within one step of it.  That needs a starting window wider
    than the tolerance or holding the minimum: a narrower one stops at its
    first evaluation, wherever the minimum is.  A window whose values are
    all equal holds no more information and stops too.  A row that does
    neither in _SHRINK_STEPS evaluations raises ``RuntimeError``.  Returns
    the argmin, its value, and -1 / +1 / 0 as it lies on the low edge, the
    high edge or inside its last window, per row.
    """
    unit = np.linspace(0.0, 1.0, _SHRINK_POINTS)
    t_lo, t_hi = np.log(lo), np.log(hi)
    rows = np.arange(t_lo.size)
    done = np.zeros(t_lo.size, dtype=bool)
    side = np.zeros(t_lo.size)  # -1 / +1 after a re-centre on the low / high edge
    for _ in range(_SHRINK_STEPS):
        t = t_lo[:, None] + (t_hi - t_lo)[:, None] * unit
        x = np.exp(t)
        vals = values(x)
        k = np.argmin(vals, axis=1)
        step = (t_hi - t_lo) / (_SHRINK_POINTS - 1)
        done |= (step <= _SHRINK_TOL) | (vals.min(axis=1) == vals.max(axis=1))
        if np.all(done):
            break
        edge = np.where(k == 0, -1.0, np.where(k == _SHRINK_POINTS - 1, 1.0, 0.0))
        narrow = (edge == 0.0) | (edge * side < 0.0)
        side = np.where(narrow, 0.0, edge)
        reach = np.where(narrow, step, 0.5 * (t_hi - t_lo))
        tk = t[rows, k]
        t_lo = np.where(done, t_lo, tk - reach)
        t_hi = np.where(done, t_hi, tk + reach)
    else:
        raise RuntimeError(f"{int(np.sum(~done))} of {done.size} log-grid shrinks did not "
                           f"converge in {_SHRINK_STEPS} steps")
    return x[rows, k], vals[rows, k], np.where(k == 0, -1, np.where(k == _SHRINK_POINTS - 1, 1, 0))


def _v_window(gs: np.ndarray, m: int, P: float, mu: np.ndarray):
    """Closed-form window [lo, hi] of v*(mu) = argmin_v D(mu, v) for each
    entry of the 1-D array mu >= 0.

    D is convex in v with slope P minus the sum of the powers, and every
    power falls as v grows, so v* is where the powers sum to P.  At (mu, v)
    each of the m powers is at least sqrt(mu / v), the r communication
    powers sum to at least r / (v ln2) - sum(1 / g), and each is at most
    1 / (v ln2) + sqrt(mu / v) (see :func:`_root_bracket`).  Hence v* is at
    least max(mu m^2 / P^2, r / (ln2 (P + sum(1 / g)))), and at most the v
    that solves r / (v ln2) + m sqrt(mu / v) = P, a quadratic in
    1 / sqrt(v).  Both ends move outward by _BRACKET_RTOL.
    """
    wet = gs.size * INV_LN2
    lo = np.maximum(mu * (m * m / (P * P)), wet / (P + float((1.0 / gs).sum())))
    hi = ((m * np.sqrt(mu) + np.sqrt(m * m * mu + 4.0 * wet * P)) / (2.0 * P)) ** 2
    return lo * (1.0 - _BRACKET_RTOL), hi * (1.0 + _BRACKET_RTOL)


def _warm_v_window(seen_mu: np.ndarray, seen_v: np.ndarray, mu: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray):
    """Narrow the closed-form windows [lo, hi] of v*(mu) by the v* already
    found at the mu values ``seen_mu`` (sorted, with v* ``seen_v``).

    As v*(mu) is nondecreasing in mu, it lies between the v* of the nearest
    seen mu at or below and at or above it.  Each found v* is within one
    shrink step of the true one, so each end moves outward by two steps,
    2 _SHRINK_TOL in log scale.  A row with no seen mu on one side keeps
    that closed-form end, and one whose ends cross keeps both.
    """
    # a v* of 0 below every mu and of inf above it stands for none
    seen_mu = np.concatenate(([-np.inf], seen_mu, [np.inf]))
    seen_v = np.concatenate(([0.0], seen_v, [np.inf]))
    widen = math.exp(2.0 * _SHRINK_TOL)
    w_lo = np.maximum(lo, seen_v[np.searchsorted(seen_mu, mu, side="right") - 1] / widen)
    w_hi = np.minimum(hi, seen_v[np.searchsorted(seen_mu, mu, side="left")] * widen)
    crossed = w_lo >= w_hi
    return np.where(crossed, lo, w_lo), np.where(crossed, hi, w_hi)


def oracle_dual_grid(lambdas2, m: int, sigma_c2: float, P: float,
                     gamma_tilde: float) -> PowerAllocation:
    """Reference solution of the power allocation by nested dual shrinks.

    An outer log-grid shrink over 16 mu values minimizes h(mu) = min_v
    D(mu, v); each h value comes from an inner log-grid shrink over 16 v
    values, run for all 16 mu values at once, so each inner step evaluates
    the dual on one 16 x 16 block.  The outer shrink starts from [1e-12,
    ``_dual_box``] and both stop at a log step of 1e-6.  The stationary
    powers rise with mu and fall with v, and v*(mu) = argmin_v D(mu, v) is
    where they sum to P, so v*(mu) is nondecreasing in mu.  Each inner
    shrink therefore starts from the closed-form window of :func:`_v_window`
    narrowed by :func:`_warm_v_window` to the v* found at the nearest mu
    evaluated below and above, so once the mu window is small most inner
    shrinks take one step.  A row whose argmin
    lands on an edge that narrowing moved is shrunk again from the
    closed-form window; it is never accepted.  The mu = 0 face, which a log
    axis cannot reach, is an explicit candidate compared by h that wins
    ties, and its window is narrowed by the same rule.  The powers at the
    best (mu, v) are repaired onto the feasible set.  A non-finite or
    infeasible ``gamma_tilde`` raises ``ValueError``.
    """
    lam2 = np.asarray(lambdas2, dtype=float)
    r = lam2.size
    _check_instance(r, m, P, gamma_tilde)
    if at_equal_split(m, P, gamma_tilde):
        return PowerAllocation(p=np.full(m, P / m), iterations=0,
                               kkt_residual=0.0, duality_gap=0.0)
    gs = lam2 / sigma_c2
    box = _dual_box(gs, P, gamma_tilde)
    evals = 0
    seen_mu = seen_v = np.empty(0)  # every (mu, v*) found so far, sorted by mu

    def shrink(mu, lo, hi):
        def block(V):
            nonlocal evals
            MU = np.broadcast_to(mu[:, None], V.shape)
            vals = _grid_values(gs, m, MU.ravel(), V.ravel(), gamma_tilde, P)
            evals += V.size
            return vals.reshape(V.shape)

        return _log_shrink(block, lo, hi)

    def v_shrink(mu):
        # v*(mu) and h(mu) for each entry of the 1-D array mu
        nonlocal seen_mu, seen_v
        lo, hi = _v_window(gs, m, P, mu)
        w_lo, w_hi = _warm_v_window(seen_mu, seen_v, mu, lo, hi)
        v, h, edge = shrink(mu, w_lo, w_hi)
        # a warm window that misses v* may stop at once with its argmin on
        # an edge it narrowed; such a row starts again from the closed-form
        # window, whose own edges bound v*
        miss = ((edge < 0) & (w_lo != lo)) | ((edge > 0) & (w_hi != hi))
        if np.any(miss):
            v[miss], h[miss], _ = shrink(mu[miss], lo[miss], hi[miss])
        seen_mu = np.concatenate((seen_mu, mu))
        seen_v = np.concatenate((seen_v, v))
        order = np.argsort(seen_mu, kind="stable")
        seen_mu, seen_v = seen_mu[order], seen_v[order]
        return v, h

    (mu_best,), _, _ = _log_shrink(lambda MU: v_shrink(MU[0])[1][None, :],
                                   np.array([1e-12]), np.array([box]))
    mus = np.array([0.0, mu_best])
    vs, hs = v_shrink(mus)
    k = int(np.argmin(hs))
    mu_arr, v_arr = mus[k:k + 1], vs[k:k + 1]
    mu_star, v_star = float(mu_arr[0]), float(v_arr[0])

    p = np.empty(m)
    p[:r] = _bisect_comm_powers(gs, mu_arr, v_arr, iters=200)[0]
    if m > r:
        p[r:] = math.sqrt(mu_star / v_star)
    gval = float(_grid_values(gs, m, mu_arr, v_arr, gamma_tilde, P)[0])
    p_feas = _repair_feasible(p[None, :], m, P, gamma_tilde)[0]
    rate_val = float(np.log1p(gs * p_feas[:r]).sum() * INV_LN2)
    residual = max(0.0, float(p_feas.sum()) - P,
                   float((1.0 / p_feas).sum()) - gamma_tilde)
    return PowerAllocation(p=p_feas, mu=mu_star, v=v_star,
                           iterations=evals, kkt_residual=residual,
                           duality_gap=gval - rate_val)


def _tuples(axis: np.ndarray, m: int) -> np.ndarray:
    """All m-tuples of ``axis`` values, one per row."""
    return np.stack([a.ravel() for a in np.meshgrid(*[axis] * m, indexing="ij")], axis=1)


def _simplex_indices(n: int, m: int) -> np.ndarray:
    """The rows (i_1, ..., i_m) of indices into an n-point axis with
    sum(i_j + 1) <= n, in lexicographic order, i.e. in the order of
    :func:`_tuples`.  Built one axis at a time; 32-bit indices suffice for
    the grids :func:`oracle_primal_grid` allows, and halve the memory."""
    idx = np.zeros((1, 0), dtype=np.int32)
    left = np.array([n], dtype=np.int32)  # what each row's i + 1 may still sum to
    for d in range(m):
        # a row takes i + 1 = 1 .. left - (axes still to fill) on this axis
        counts = np.maximum(left - (m - 1 - d), 0)
        rows = np.repeat(np.arange(left.size, dtype=np.int32), counts)
        i = np.arange(rows.size, dtype=np.int32) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.column_stack([idx[rows], i])
        if d < m - 1:
            left = left[rows] - (i + 1)
    return idx


def _simplex_grid(P: float, m: int, steps: int, gamma_tilde: float):
    """The points of the uniform grid P k / steps, k = 1..steps per axis,
    that meet sum(p) <= P and sum(1 / p) <= gamma_tilde, each up to a
    relative 1e-12, in the lexicographic order of :func:`_tuples`; also
    returns how many passed the first test.

    Only the index tuples whose k sum to at most ``steps`` are built
    (:func:`_simplex_indices`): a larger sum is over P by at least
    P / steps, far beyond rounding, so the whole steps^m cube never is.
    """
    pts = np.linspace(P / steps, P, steps)[_simplex_indices(steps, m)]
    mask = pts.sum(axis=1) <= P * (1.0 + 1e-12)
    pts = pts[mask]
    mask = (1.0 / pts).sum(axis=1) <= gamma_tilde * (1.0 + 1e-12)
    return pts[mask], int(mask.size)


def oracle_primal_grid(lambdas2, m: int, sigma_c2: float, P: float,
                       gamma_tilde: float, steps: int) -> PowerAllocation:
    """Brute-force primal solution for m <= 3.

    Enumerates the points of a uniform grid that lie in the simplex
    sum(p) <= P (:func:`_simplex_grid`, which never builds the whole cube)
    and filters them by the trace-inverse budget.  The best point is then
    zoomed: each pass evaluates a 9^m box around the incumbent, every
    candidate scaled onto sum(p) = P and, if over the budget, blended
    toward uniform onto the tight budget surface; the incumbent stays a
    candidate.  The box half-width starts at 4P/steps and halves down to
    1e-10 P.
    """
    if m > 3:
        raise ValueError("primal grid search is limited to m <= 3")
    if steps < 2:
        raise ValueError("need at least two grid steps")
    if steps ** m > 2 * 10 ** 7:
        raise ValueError("grid would be too large; lower steps")
    lam2 = np.asarray(lambdas2, dtype=float)
    r = lam2.size
    _check_instance(r, m, P, gamma_tilde)
    gs = lam2 / sigma_c2

    def rates(pts):
        return np.log1p(pts[:, :r] * gs[None, :]).sum(axis=1) * INV_LN2

    pts, evaluated = _simplex_grid(P, m, steps, gamma_tilde)
    uniform = np.full((1, m), P / m)
    pts = np.vstack([pts, uniform]) if pts.size else uniform
    best = pts[int(np.argmax(rates(pts)))]

    box = _tuples(np.linspace(-1.0, 1.0, 9), m)
    half = 4.0 * P / steps
    while half > 1e-10 * P:
        cand = best + half * box
        cand = _repair_feasible(cand[np.all(cand > 0.0, axis=1)], m, P, gamma_tilde)
        cand = np.vstack([best[None, :], cand])
        evaluated += cand.shape[0]
        best = cand[int(np.argmax(rates(cand)))]
        half *= 0.5
    residual = max(0.0, float(best.sum()) - P, float((1.0 / best).sum()) - gamma_tilde)
    return PowerAllocation(p=best, iterations=evaluated, kkt_residual=residual)


def _haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr)
    return q * (d / np.abs(d))


def sample_feasible_covariance(m: int, P: float, gamma_tilde: float,
                               rng: np.random.Generator) -> np.ndarray:
    """Random (generally non-diagonal) Hermitian PD matrix satisfying both
    the power and the trace-inverse constraints.

    A random diagonal with full power is blended toward uniform until its
    trace-inverse fits the budget, then rotated by a Haar unitary; rotation
    changes neither constraint value.
    """
    if not gamma_tilde > m * m / P:
        raise ValueError("need a strictly interior trace-inverse budget")
    w = np.exp(0.6 * rng.standard_normal(m))
    d = _repair_feasible((P * w / w.sum())[None, :], m, P, gamma_tilde)[0]
    u = _haar_unitary(m, rng)
    q = (u * d[None, :]) @ u.conj().T
    return 0.5 * (q + q.conj().T)
