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
additionally brute-forced on a primal simplex grid, streamed in blocks of
a fixed number of points so that its memory does not grow with the grid,
whose best point is then zoomed on the tight constraint surface.  Both of
the grid's budget masks are taken on index columns, through per-axis tables
of the grid values and their inverses, and float points are formed only
for the rows that pass; the columns are added in order, as a row sum of
the points adds them, so the grid is the masked cube bit for bit.

The cost is numpy's per-call overhead on small arrays, so each pass is made
wide: a 16-point window narrows 7.5x per step where an 8-point one narrows
3.5x, and an inner step evaluates at most one 16 x 16 block of (mu, v)
points.  Within that, work is not spent twice: a step evaluates only the
rows whose shrink still runs, and the bisection behind every dual value
runs on same-shape operands in buffers it allocates once.  Neither changes
a result.
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

    The halvings run on C-contiguous (n_points, r) operands, the gains and
    multipliers spread out once, and write into buffers allocated once.
    Each element sees the same operations in the same order as where (n, 1)
    operands are broadcast against (1, r) ones, so the powers are those of
    that form bit for bit.
    """
    n, r = MU.size, gs.size
    shape = (n, r)
    inv_g = (1.0 / gs)[None, :].repeat(n, axis=0)
    MUc = MU.repeat(r).reshape(shape)
    Vc = V.repeat(r).reshape(shape)
    lo, hi = _root_bracket(gs, MU, V)
    w = hi - lo
    mid, f, curv = np.empty(shape), np.empty(shape), np.empty(shape)
    pos = np.empty(shape, dtype=bool)
    # a dry channel at mu = 0 has lo = hi = 0, where mu / mid^2 is 0 / 0 and
    # the comparison below is False
    with np.errstate(invalid="ignore"):
        for _ in range(iters):
            w *= 0.5
            np.add(lo, w, out=mid)
            # f(mid) > 0, with f = (1 / ln2) / (1 / g + mid) + mu / mid^2 - v
            np.add(inv_g, mid, out=f)
            np.divide(INV_LN2, f, out=f)
            np.multiply(mid, mid, out=curv)
            np.divide(MUc, curv, out=curv)
            f += curv
            np.greater(f, Vc, out=pos)
            np.putmask(lo, pos, mid)
    return lo + 0.5 * w


def _grid_values(gs, m, MU, V, gamma_tilde, P):
    """Dual function at each of the flattened (mu, v) points.

    mu = 0 is a legal boundary point of the dual domain: the sensing powers
    and any dry communication channels sit at zero there and contribute
    nothing to the Lagrangian, so the mu term drops out.
    """
    r = gs.size
    comm = _bisect_comm_powers(gs, MU, V)
    ssum = np.add.reduce(comm, axis=1)
    # a zero power, at mu = 0 only, has an infinite inverse, which only the
    # rows of mu > 0 use
    with np.errstate(divide="ignore"):
        cinv = np.add.reduce(np.divide(1.0, comm), axis=1)
        if m > r:
            ps = np.sqrt(MU / V)
            ssum += (m - r) * ps
            cinv += (m - r) / ps
    np.multiply(comm, gs, out=comm)
    rate_part = np.add.reduce(np.log1p(comm, out=comm), axis=1) * INV_LN2
    vals = rate_part - V * (ssum - P)
    pos = MU > 0.0
    if pos.all():
        vals -= MU * (cinv - gamma_tilde)
    else:
        vals[pos] -= MU[pos] * (cinv[pos] - gamma_tilde)
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
    over = (1.0 / q).sum(axis=1) > gamma_tilde
    if not np.any(over):
        return q
    # only the rows over the budget are bisected, and then written back
    r = q[over]
    to_uniform = P / m - r
    lo = np.zeros((r.shape[0], 1))
    hi = np.ones_like(lo)
    mid, load = np.empty_like(lo), np.empty_like(lo)
    fits = np.empty(lo.shape, dtype=bool)
    trial = np.empty_like(r)
    for _ in range(60):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        # the trace inverse of r + mid * to_uniform
        np.multiply(mid, to_uniform, out=trial)
        trial += r
        np.divide(1.0, trial, out=trial)
        np.add.reduce(trial, axis=1, keepdims=True, out=load)
        np.less_equal(load, gamma_tilde, out=fits)
        np.putmask(hi, fits, mid)
        np.putmask(lo, np.logical_not(fits, out=fits), mid)
    q[over] = r + np.minimum(1.0, hi * (1.0 + 1e-12) + 1e-15) * to_uniform
    return q


# points per window of a log-grid shrink, and its stopping rule: a window
# narrows until its grid step is at most _SHRINK_TOL in log scale, or for at
# most _SHRINK_STEPS evaluations.  Much below 1e-8 the argmin picks would be
# rounding noise.  Of 8, 12, 16 and 24 points, 16 ran the dual grid
# fastest (the timings are in README.md).
_SHRINK_POINTS = 16
_SHRINK_TOL = 1e-6
_SHRINK_STEPS = 60
# the edge of each argmin of a window: -1 / +1 on its low / high edge, else 0
_EDGE = np.zeros(_SHRINK_POINTS, dtype=int)
_EDGE[0], _EDGE[-1] = -1, 1


def _log_shrink(values, lo: np.ndarray, hi: np.ndarray):
    """Minimize a unimodal function of x > 0 per row by a log-grid shrink.

    ``lo`` and ``hi`` are the (n,) starting windows.  ``values(x, rows)``
    maps a (k, _SHRINK_POINTS) array of points to their values, where
    ``rows`` holds the indices, among the n problems, of the k rows of
    ``x``.  Only the rows still running are passed, so a row that has
    stopped is never evaluated again, and its argmin, value and edge are
    those of the step on which it stopped.

    An interior argmin narrows its row's window to one grid step
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
    n = lo.size
    x_out, val_out, edge_out = np.empty(n), np.empty(n), np.empty(n, dtype=int)
    rows = np.arange(n)  # the rows still running
    t_lo, t_hi = np.log(lo), np.log(hi)
    side = np.zeros(n, dtype=int)  # -1 / +1 after a re-centre on the low / high edge
    for _ in range(_SHRINK_STEPS):
        span = t_hi - t_lo
        t = t_lo[:, None] + span[:, None] * unit
        x = np.exp(t)
        vals = values(x, rows)
        k = np.argmin(vals, axis=1)
        edge = _EDGE[k]
        step = span / (_SHRINK_POINTS - 1)
        done = (step <= _SHRINK_TOL) | (np.minimum.reduce(vals, axis=1)
                                        == np.maximum.reduce(vals, axis=1))
        if np.any(done):
            stop = rows[done]
            x_out[stop], val_out[stop] = x[done, k[done]], vals[done, k[done]]
            edge_out[stop] = edge[done]
            if stop.size == rows.size:
                return x_out, val_out, edge_out
            keep = ~done
            rows, t, k, edge, step, span, t_lo, t_hi, side = (
                a[keep] for a in (rows, t, k, edge, step, span, t_lo, t_hi, side))
        narrow = (edge == 0) | (edge * side < 0)
        side = np.where(narrow, 0, edge)
        reach = np.where(narrow, step, 0.5 * span)
        tk = t[np.arange(rows.size), k]
        t_lo, t_hi = tk - reach, tk + reach
    raise RuntimeError(f"{rows.size} of {n} log-grid shrinks did not "
                       f"converge in {_SHRINK_STEPS} steps")


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
    the dual on one 16 x 16 block, less the rows of the mu values whose
    shrink has stopped.  The outer shrink starts from [1e-12,
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
        def block(V, rows):
            nonlocal evals
            MU = np.repeat(mu[rows], V.shape[1])
            vals = _grid_values(gs, m, MU, V.ravel(), gamma_tilde, P)
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

    (mu_best,), _, _ = _log_shrink(lambda MU, rows: v_shrink(MU[0])[1][None, :],
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


def _simplex_indices(n: int, m: int, lead: np.ndarray) -> list[np.ndarray]:
    """The m index columns of the rows (i_1, ..., i_m) of indices into an
    n-point axis with sum(i_j + 1) <= n and i_1 in ``lead`` (ascending,
    intp), in lexicographic order, i.e. in the order of :func:`_tuples`.
    Built one axis at a time from the leading one, so that a block of
    leading indices costs only its own rows.  The columns are of numpy's
    native index type, which a table lookup takes without a cast."""
    cols = [lead]
    left = n - (lead + 1)  # what each row's i + 1 may still sum to
    for d in range(1, m):
        # a row takes i + 1 = 1 .. left - (axes still to fill) on this axis
        counts = np.maximum(left - (m - 1 - d), 0)
        rows = np.repeat(np.arange(left.size), counts)
        first = np.cumsum(counts) - counts  # where each row's run starts
        i = np.arange(rows.size)
        i -= np.repeat(first, counts)
        cols = [c[rows] for c in cols] + [i]
        if d < m - 1:
            left = left[rows] - (i + 1)
    return cols


# index tuples per block of _simplex_grid, at most, unless one leading index
# alone holds more.  Blocks of 2^13 to 2^16 tuples take the same time, and
# less than one block holding the whole grid, so the size bounds the memory
# of a call at no cost in time (the timings are in README.md).
_GRID_BLOCK_ROWS = 2 ** 15


def _row_sums(table: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """table[i_1] + ... + table[i_m] per row of index columns, added column
    by column from the first, the order in which ``.sum(axis=1)`` adds the
    m <= 3 entries of a row of looked-up values, so that it rounds alike."""
    out = table[cols[0]]
    for col in cols[1:]:
        out += table[col]
    return out


def _grid_block(axis: np.ndarray, inv: np.ndarray, cols: list[np.ndarray],
                P: float, gamma_tilde: float):
    """The grid points of the index columns ``cols`` that meet both budgets
    of :func:`_simplex_grid`, and how many met the first.  Both masks are
    taken on the columns, through the tables ``axis`` and ``inv`` = 1 / axis,
    and points are formed only for the rows that pass both."""
    fits = _row_sums(axis, cols) <= P * (1.0 + 1e-12)
    passed = int(np.count_nonzero(fits))
    fits &= _row_sums(inv, cols) <= gamma_tilde * (1.0 + 1e-12)
    pts = np.empty((int(np.count_nonzero(fits)), len(cols)))
    for j, col in enumerate(cols):
        pts[:, j] = axis[col[fits]]
    return pts, passed


def _simplex_grid(P: float, m: int, steps: int, gamma_tilde: float):
    """The points of the uniform grid P k / steps, k = 1..steps per axis,
    that meet sum(p) <= P and sum(1 / p) <= gamma_tilde, each up to a
    relative 1e-12, in the lexicographic order of :func:`_tuples`.

    Yields them in blocks, each with how many of its points passed the
    first test.  A block is a run of leading indices whose index tuples
    number at most ``_GRID_BLOCK_ROWS``, or one leading index, so memory is
    bounded by the block size (or by the C(steps - 1, m - 1) tuples of the
    first leading index, where that is more) and not by the grid; the
    ``steps ** m`` guard of :func:`oracle_primal_grid` bounds the time.
    Only the index tuples whose k sum to at most ``steps`` are built
    (:func:`_simplex_indices`): a larger sum is over P by at least
    P / steps, far beyond rounding, so the whole steps^m cube never is.

    Both tests are taken on a block's index columns (:func:`_grid_block`):
    the power sum from the table of grid values, the trace inverse from one
    table of their inverses, each added column by column in order
    (:func:`_row_sums`), which is how ``.sum(axis=1)`` adds a row of points,
    so both masks are those of the masked cube bit for bit.  Float points
    are gathered only for the rows that pass both.
    """
    axis = np.linspace(P / steps, P, steps)
    inv = 1.0 / axis
    lead = np.arange(max(steps - m + 1, 0), dtype=np.intp)
    # leading index i heads C(steps - 1 - i, m - 1) index tuples
    size = np.ones(lead.size, dtype=np.int64)
    for j in range(m - 1):
        size = size * (steps - 1 - j - lead) // (j + 1)
    ends = np.cumsum(size)
    start = 0
    while start < lead.size:
        cap = (ends[start - 1] if start else 0) + _GRID_BLOCK_ROWS
        stop = max(start + 1, int(np.searchsorted(ends, cap, side="right")))
        yield _grid_block(axis, inv, _simplex_indices(steps, m, lead[start:stop]),
                          P, gamma_tilde)
        start = stop


def oracle_primal_grid(lambdas2, m: int, sigma_c2: float, P: float,
                       gamma_tilde: float, steps: int) -> PowerAllocation:
    """Brute-force primal solution for m <= 3.

    Enumerates the points of a uniform grid that lie in the simplex
    sum(p) <= P (:func:`_simplex_grid`, which never builds the whole cube)
    and filters them by the trace-inverse budget, one block at a time, so
    memory is bounded by the block size; the ``steps ** m`` guard bounds
    the time, not the memory.  The best point is the first of the greatest
    rate in lexicographic order, with the equal split P / m judged last.
    It is then zoomed: each pass evaluates a 9^m box around the incumbent,
    every candidate scaled onto sum(p) = P and, if over the budget, blended
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
        x = pts[:, :r] * gs[None, :]
        return np.log1p(x, out=x).sum(axis=1) * INV_LN2

    best, top, evaluated = None, None, 0
    for pts, passed in _simplex_grid(P, m, steps, gamma_tilde):
        evaluated += passed
        vals = rates(pts)
        if vals.size:
            k = int(np.argmax(vals))
            # a later block takes over only with a strictly greater rate
            if best is None or vals[k] > top:
                best, top = pts[k].copy(), vals[k]
        del pts, vals  # free this block before the next one is built
    uniform = np.full((1, m), P / m)
    if best is None or rates(uniform)[0] > top:
        best = uniform[0]

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
