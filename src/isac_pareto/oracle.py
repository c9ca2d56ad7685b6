"""Independent verification machinery for the CRB-constrained solver.

Deliberately shares no numerical method with the main solver: the dual is
minimized by exhaustive logarithmic grid search with local refinement (no
Newton search), inner stationary points come from bisection (no cubic formula),
and tiny instances are additionally brute-forced on a primal grid.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import PowerAllocation
from .metrics import LN2
from .solver import feasibility_check

__all__ = [
    "oracle_dual_grid",
    "oracle_primal_grid",
    "sample_feasible_covariance",
]

INV_LN2 = 1.0 / LN2


def _dual_box(gs: np.ndarray, P: float, gamma_tilde: float) -> float:
    """Initial upper edge of the (mu, v) grid; the search expands it whenever
    the incumbent lands on the outer boundary."""
    return 10.0 * (INV_LN2 * float(np.max(gs)) + P * gamma_tilde)


def _bisect_comm_powers(gs: np.ndarray, MU: np.ndarray, V: np.ndarray, iters: int = 100) -> np.ndarray:
    """Stationary powers of all communication subchannels at each (mu, v).

    Vectorized bisection of the monotone-decreasing stationarity residual;
    returns an (n_points, r) matrix.
    """
    n, r = MU.size, gs.size
    if r == 0:
        return np.zeros((n, 0))
    G = gs[None, :]
    MUc = MU[:, None]
    Vc = V[:, None]
    # f(p) <= 1/(p ln2) + mu/p^2 - v, whose positive zero upper-bounds the root
    hi0 = (INV_LN2 + np.sqrt(INV_LN2 * INV_LN2 + 4.0 * MU * V)) / (2.0 * V)
    hi = np.broadcast_to(hi0[:, None], (n, r)).copy()
    lo = np.zeros((n, r))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f = INV_LN2 * G / (1.0 + G * mid) + MUc / (mid * mid) - Vc
        pos = f > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


def _grid_values(gs, m, MU, V, gamma_tilde, P):
    """Dual function over flattened (mu, v) points; returns (values, comm).

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
            cinv = (1.0 / comm[pos]).sum(axis=1) if r else np.zeros(int(pos.sum()))
        if m > r:
            cinv = cinv + (m - r) / np.sqrt(MU[pos] / V[pos])
        vals[pos] -= MU[pos] * (cinv - gamma_tilde)
    return vals, comm


def _repair_feasible(p: np.ndarray, m: int, P: float, gamma_tilde: float) -> np.ndarray:
    """Project a near-feasible allocation onto the power face and inside the
    trace-inverse budget.

    Scaling onto sum(p) = P is always done (scaling up strictly lowers the
    trace-inverse load, scaling down is needed for feasibility); a remaining
    budget violation is removed by blending toward the uniform point.
    """
    q = np.clip(p, 1e-300, None)
    q = q * (P / q.sum())
    if (1.0 / q).sum() <= gamma_tilde:
        return q
    uniform = np.full(m, P / m)
    lo, hi = 0.0, 1.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        blend = (1.0 - mid) * q + mid * uniform
        if (1.0 / blend).sum() <= gamma_tilde:
            hi = mid
        else:
            lo = mid
    theta = min(1.0, hi * (1.0 + 1e-12) + 1e-15)
    return (1.0 - theta) * q + theta * uniform


def oracle_dual_grid(lambdas2, m: int, sigma_c2: float, P: float,
                     gamma_tilde: float, grid_density: int = 60) -> PowerAllocation:
    """Reference solution of the power allocation by dual grid search.

    Evaluates the dual on a ``grid_density`` x ``grid_density`` logarithmic
    (mu, v) grid over an adaptive box, then refines three times, each pass
    shrinking the window tenfold around the incumbent.  The grid expands and
    restarts when the incumbent lands on the outer boundary.
    """
    lam2 = np.asarray(lambdas2, dtype=float)
    r = lam2.size
    if r > m:
        raise ValueError(f"more channel gains ({r}) than antennas ({m})")
    if not feasibility_check(m, P, gamma_tilde):
        raise ValueError(f"budget {gamma_tilde} below the minimum {m * m / P}")
    if gamma_tilde <= (m * m / P) * (1.0 + 1e-12):
        return PowerAllocation(p=np.full(m, P / m), iterations=0,
                               kkt_residual=0.0, duality_gap=0.0)
    gs = lam2 / sigma_c2
    d = int(grid_density)
    if d < 8:
        raise ValueError("grid density too small to refine")

    lo_mu = lo_v = 1e-12
    hi_mu = hi_v = _dual_box(gs, P, gamma_tilde)
    evals = 0

    def eval_grid(mu_ax, v_ax):
        nonlocal evals
        MU, V = [a.ravel() for a in np.meshgrid(mu_ax, v_ax, indexing="ij")]
        vals, _ = _grid_values(gs, m, MU, V, gamma_tilde, P)
        evals += MU.size
        k = int(np.argmin(vals))
        return divmod(k, v_ax.size)

    # the dual minimum may sit on the mu = 0 face (slack CRB budget), which a
    # logarithmic axis cannot reach, so mu = 0 rides along as an extra row
    for _ in range(6):
        mu_ax = np.concatenate([[0.0], np.geomspace(lo_mu, hi_mu, d - 1)])
        v_ax = np.geomspace(lo_v, hi_v, d)
        i, j = eval_grid(mu_ax, v_ax)
        expanded = False
        if i == d - 1:
            hi_mu *= 10.0
            expanded = True
        if j == d - 1:
            hi_v *= 10.0
            expanded = True
        if i == 1:
            lo_mu /= 100.0
            expanded = True
        if j == 0:
            lo_v /= 100.0
            expanded = True
        if not expanded:
            break
    mu_star, v_star = mu_ax[i], v_ax[j]

    span_mu = math.log10(hi_mu) - math.log10(lo_mu)
    span_v = math.log10(hi_v) - math.log10(lo_v)
    for _ in range(3):
        span_mu /= 10.0
        span_v /= 10.0
        center_mu = mu_star if mu_star > 0.0 else lo_mu
        mu_ax = np.concatenate([
            [0.0],
            np.geomspace(center_mu * 10 ** (-span_mu / 2),
                         center_mu * 10 ** (span_mu / 2), d - 1),
        ])
        v_ax = np.geomspace(v_star * 10 ** (-span_v / 2),
                            v_star * 10 ** (span_v / 2), d)
        i, j = eval_grid(mu_ax, v_ax)
        mu_star, v_star = mu_ax[i], v_ax[j]

    # the zoom passes leave the duals at ~1e-4 relative, not enough for the
    # 1e-5 allocation agreement the oracle promises; finish with alternating
    # 1-D ternary descents (the dual is convex per coordinate)
    def dual_at(mu_vals, v_vals):
        nonlocal evals
        mu_arr = np.asarray(mu_vals, dtype=float)
        v_arr = np.asarray(v_vals, dtype=float)
        out, _ = _grid_values(gs, m, mu_arr, v_arr, gamma_tilde, P)
        evals += mu_arr.size
        return out

    span = max(span_mu, span_v) * (d - 1) / 2.0
    for _ in range(3):
        a, b = v_star * 10 ** (-span), v_star * 10 ** (span)
        for _ in range(120):
            m1, m2 = a * (b / a) ** (1 / 3), a * (b / a) ** (2 / 3)
            f1, f2 = dual_at([mu_star, mu_star], [m1, m2])
            if f1 < f2:
                b = m2
            else:
                a = m1
        v_star = math.sqrt(a * b)
        if mu_star > 0.0:
            a, b = mu_star * 10 ** (-span), mu_star * 10 ** (span)
            for _ in range(120):
                m1, m2 = a * (b / a) ** (1 / 3), a * (b / a) ** (2 / 3)
                f1, f2 = dual_at([m1, m2], [v_star, v_star])
                if f1 < f2:
                    b = m2
                else:
                    a = m1
            cand = math.sqrt(a * b)
            f_cand, f_zero = dual_at([cand, 0.0], [v_star, v_star])
            mu_star = cand if f_cand <= f_zero else 0.0

    mu_arr = np.array([mu_star])
    v_arr = np.array([v_star])
    comm = _bisect_comm_powers(gs, mu_arr, v_arr, iters=200)[0]
    p = np.empty(m)
    p[:r] = comm
    if m > r:
        p[r:] = math.sqrt(mu_star / v_star)
    gval = float(_grid_values(gs, m, mu_arr, v_arr, gamma_tilde, P)[0][0])
    p_feas = _repair_feasible(p, m, P, gamma_tilde)
    rate_val = float(np.log1p(gs * p_feas[:r]).sum() * INV_LN2)
    residual = max(0.0, float(p_feas.sum()) - P,
                   float((1.0 / p_feas).sum()) - gamma_tilde)
    return PowerAllocation(p=p_feas, mu=float(mu_star), v=float(v_star),
                           iterations=evals, kkt_residual=residual,
                           duality_gap=gval - rate_val)


def _exchange_interval(pi: float, pj: float, cap: float, eps: float) -> tuple[float, float]:
    # feasible shifts d with 1/(pi+d) + 1/(pj-d) <= cap; an interval around 0
    def load(dd):
        return 1.0 / (pi + dd) + 1.0 / (pj - dd)

    hi_lim = pj - eps
    lo_lim = -pi + eps
    if load(0.0) > cap:
        return 0.0, 0.0
    if load(hi_lim) <= cap:
        hi = hi_lim
    else:
        a, b = 0.0, hi_lim
        for _ in range(80):
            mid = 0.5 * (a + b)
            if load(mid) <= cap:
                a = mid
            else:
                b = mid
        hi = a
    if load(lo_lim) <= cap:
        lo = lo_lim
    else:
        a, b = 0.0, lo_lim
        for _ in range(80):
            mid = 0.5 * (a + b)
            if load(mid) <= cap:
                a = mid
            else:
                b = mid
        lo = a
    return lo, hi


def oracle_primal_grid(lambdas2, m: int, sigma_c2: float, P: float,
                       gamma_tilde: float, steps: int) -> PowerAllocation:
    """Brute-force primal solution for m <= 3.

    Enumerates a uniform grid over the simplex sum(p) <= P, filters it by the
    trace-inverse budget, then polishes the best point with pairwise power
    exchanges (1-D concave line searches along the power face).
    """
    if m > 3:
        raise ValueError("primal grid search is limited to m <= 3")
    if steps < 2:
        raise ValueError("need at least two grid steps")
    if steps ** m > 2 * 10 ** 7:
        raise ValueError("grid would be too large; lower steps")
    lam2 = np.asarray(lambdas2, dtype=float)
    r = lam2.size
    gs = lam2 / sigma_c2
    if not feasibility_check(m, P, gamma_tilde):
        raise ValueError(f"budget {gamma_tilde} below the minimum {m * m / P}")

    axes = [np.linspace(P / steps, P, steps)] * m
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.ravel() for a in mesh], axis=1)
    mask = pts.sum(axis=1) <= P * (1.0 + 1e-12)
    pts = pts[mask]
    mask = (1.0 / pts).sum(axis=1) <= gamma_tilde * (1.0 + 1e-12)
    pts = pts[mask]
    evaluated = int(mask.size)
    uniform = np.full((1, m), P / m)
    pts = np.vstack([pts, uniform]) if pts.size else uniform
    rates = np.log1p(pts[:, :r] * gs[None, :]).sum(axis=1) * INV_LN2
    best = pts[int(np.argmax(rates))].copy()

    def rate_of(p):
        return float(np.log1p(gs * p[:r]).sum() * INV_LN2)

    eps = 1e-12 * P
    for _ in range(8):
        scale = P / best.sum()
        if scale > 1.0:
            # scaling up only relaxes the trace-inverse load
            best = best * scale
        moved = False
        for i in range(m):
            for j in range(m):
                if i == j or (i >= r and j >= r):
                    continue
                rest = sum(1.0 / best[k] for k in range(m) if k not in (i, j))
                cap = gamma_tilde - rest
                if cap <= 0.0:
                    continue
                lo, hi = _exchange_interval(best[i], best[j], cap, eps)
                if hi - lo <= 0.0:
                    continue
                a, b = lo, hi

                def moved_rate(dd, ii=i, jj=j):
                    q = best.copy()
                    q[ii] += dd
                    q[jj] -= dd
                    return rate_of(q)

                for _ in range(90):
                    m1 = a + (b - a) / 3.0
                    m2 = b - (b - a) / 3.0
                    if moved_rate(m1) < moved_rate(m2):
                        a = m1
                    else:
                        b = m2
                d_opt = 0.5 * (a + b)
                if moved_rate(d_opt) > rate_of(best) + 1e-15:
                    best[i] += d_opt
                    best[j] -= d_opt
                    moved = True
        if not moved:
            break
    residual = max(0.0, float(best.sum()) - P, float((1.0 / best).sum()) - gamma_tilde)
    return PowerAllocation(p=best, iterations=evaluated, kkt_residual=residual)


def _haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr)
    return q * (d / np.abs(d))


def sample_feasible_covariance(m: int, P: float, gamma_tilde: float,
                               rng: np.random.Generator, max_tries: int = 16) -> np.ndarray:
    """Random (generally non-diagonal) Hermitian PD matrix satisfying both
    the power and the trace-inverse constraints.

    A random diagonal with full power is blended toward uniform until its
    trace-inverse fits the budget, then rotated by a Haar unitary; rotation
    changes neither constraint value.
    """
    if not gamma_tilde > m * m / P:
        raise ValueError("need a strictly interior trace-inverse budget")
    d = None
    for _ in range(max_tries):
        w = np.exp(0.6 * rng.standard_normal(m))
        cand = P * w / w.sum()
        if (1.0 / cand).sum() <= gamma_tilde:
            d = cand
            break
        uniform = np.full(m, P / m)
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            blend = (1.0 - mid) * cand + mid * uniform
            if (1.0 / blend).sum() <= gamma_tilde:
                hi = mid
            else:
                lo = mid
        blend = (1.0 - hi) * cand + hi * uniform
        if (1.0 / blend).sum() <= gamma_tilde:
            d = blend
            break
    if d is None:
        raise RuntimeError("could not draw a feasible diagonal within the budget")
    u = _haar_unitary(m, rng)
    q = (u * d[None, :]) @ u.conj().T
    return 0.5 * (q + q.conj().T)
