"""Independent output checks for the three benchmark workloads.

Every check recomputes what it needs with numpy and its own arithmetic: its
own SVD of the channel, its own water-filling, its own log-det rate, its own
bisection for the Lagrange dual.  Nothing here calls into ``isac_pareto``.

A check raises :class:`CheckError` when an output is wrong.  Tolerances are
set about ten times above the worst deviation seen on correct outputs (see
README.md), so a wrong answer of any practical size is caught.
"""

from __future__ import annotations

import csv
import math

import numpy as np

LN2 = math.log(2.0)

# optimal-row rates: monotonicity, concavity, dominance and endpoints
RATE_RTOL = 1e-9
# a reported rate against its log-det recomputation from Q, relative
RECOMPUTE_RTOL = 1e-8
# CRB and power overshoot of a solver output, relative
FEAS_RTOL = 1e-7
# |rate - Lagrange dual| of an optimal solve, relative to max(1, rate)
GAP_RTOL = 1e-7
# criterion 5: oracle-vs-solver rate agreement
ORACLE_DUAL_RTOL = 1e-5
ORACLE_PRIMAL_ATOL = 1e-4

# the sweep grid ends here when the frontier has no finite right endpoint
AUTO_CAP_FACTOR = 100.0


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def channel_gains(H: np.ndarray, m: int, sigma_c2: float) -> np.ndarray:
    """Noise-normalized squared singular values of H, zero-padded to m."""
    s = np.linalg.svd(np.asarray(H, dtype=complex), compute_uv=False)
    g = np.zeros(m)
    g[: s.size] = s ** 2 / sigma_c2
    return g


def crb_min(m: int, P: float, sigma_s2: float, Ns: int, L: int) -> float:
    """Minimum CRB, reached by the isotropic covariance (P/M) I."""
    return sigma_s2 * Ns * m * m / (P * L)


def isotropic_rate(gains: np.ndarray, P: float) -> float:
    return float(np.log1p(gains * (P / gains.size)).sum() / LN2)


def own_waterfill(gains: np.ndarray, P: float) -> np.ndarray:
    """Water-filling powers over the positive gains, by bisection on the level."""
    pos = gains > 0.0
    floors = 1.0 / gains[pos]
    lo, hi = 0.0, P + float(floors.max())
    for _ in range(200):
        level = 0.5 * (lo + hi)
        if np.maximum(level - floors, 0.0).sum() > P:
            hi = level
        else:
            lo = level
    p = np.zeros(gains.size)
    p[pos] = np.maximum(0.5 * (lo + hi) - floors, 0.0)
    return p


def check_frontier_csv(path, H: np.ndarray, scenario: dict, n_points: int) -> bool:
    """Check a ``sweep`` CSV against the channel it was made from.

    ``scenario`` holds the config fields M, P, sigma_c2, sigma_s2, Ns, L.
    Returns False when the sweep reported a non-``optimal`` row, True when
    every check passed.
    """
    m, P = scenario["M"], scenario["P"]
    s2s, Ns, L = scenario["sigma_s2"], scenario["Ns"], scenario["L"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_scheme: dict[str, list[dict]] = {}
    for row in rows:
        by_scheme.setdefault(row["scheme"], []).append(row)

    opt = by_scheme.get("optimal", [])
    _require(len(opt) == n_points, f"{len(opt)} optimal rows, expected {n_points}")
    if any(row["status"] != "optimal" for row in opt):
        return False
    opt.sort(key=lambda row: float(row["gamma_target"]))
    gam = np.array([float(row["gamma_target"]) for row in opt])
    crb = np.array([float(row["crb"]) for row in opt])
    rate = np.array([float(row["rate_bps_hz"]) for row in opt])
    _require(bool(np.all(np.isfinite(rate))), "non-finite optimal rate")
    over = crb / gam - 1.0
    _require(bool(np.all(over <= FEAS_RTOL)),
             f"optimal CRB exceeds its threshold by {over.max():.3e} relative")

    tol = RATE_RTOL * max(1.0, float(np.abs(rate).max()))
    drop = rate[:-1] - rate[1:]
    _require(bool(np.all(drop <= tol)),
             f"optimal rate decreases by {drop.max():.3e} as the threshold grows")
    if n_points >= 3:
        w = (gam[1:-1] - gam[:-2]) / (gam[2:] - gam[:-2])
        chord = rate[:-2] + w * (rate[2:] - rate[:-2])
        dent = chord - rate[1:-1]
        _require(bool(np.all(dent <= tol)),
                 f"optimal rate is not concave in the threshold: dent {dent.max():.3e}")

    # endpoints from this module's own SVD
    gains = channel_gains(H, m, scenario["sigma_c2"])
    lo = crb_min(m, P, s2s, Ns, L)
    _require(abs(gam[0] / lo - 1.0) <= RATE_RTOL,
             f"grid starts at {gam[0]!r}, minimum CRB is {lo!r}")
    iso = isotropic_rate(gains, P)
    _require(abs(rate[0] - iso) <= tol,
             f"first-row rate {rate[0]!r} differs from the isotropic rate {iso!r}")
    wf = own_waterfill(gains, P)
    uncapped = bool(wf.min() > 1e-9 * P / m)
    if uncapped:
        wf_rate = float(np.log1p(gains * wf).sum() / LN2)
        wf_crb = s2s * Ns / L * float((1.0 / wf).sum())
        _require(abs(gam[-1] / wf_crb - 1.0) <= RATE_RTOL,
                 f"grid ends at {gam[-1]!r}, water-filling CRB is {wf_crb!r}")
        _require(abs(rate[-1] - wf_rate) <= tol,
                 f"last-row rate {rate[-1]!r} differs from water-filling {wf_rate!r}")
    else:
        _require(abs(gam[-1] / (AUTO_CAP_FACTOR * lo) - 1.0) <= RATE_RTOL,
                 f"capped grid ends at {gam[-1]!r}, not {AUTO_CAP_FACTOR:g}x the minimum")

    # every baseline row sits on or under the frontier at its threshold
    best = dict(zip((row["gamma_target"] for row in opt), rate))
    for scheme in ("ep", "sem", "time_switch"):
        for row in by_scheme.get(scheme, []):
            r = float(row["rate_bps_hz"])
            if not math.isfinite(r):
                continue
            key = row["gamma_target"]
            _require(key in best, f"{scheme} row at threshold {key} has no optimal row")
            _require(r <= best[key] + tol,
                     f"{scheme} rate {r!r} beats the optimal {best[key]!r} at {key}")
            if scheme != "time_switch":
                _require(float(row["crb"]) <= float(key) * (1.0 + FEAS_RTOL),
                         f"{scheme} row CRB exceeds its threshold at {key}")
    return True


def lagrange_dual(gains: np.ndarray, mu: float, v: float, gamma_tilde: float, P: float) -> float:
    """Dual function of max log2 det(I + H Q H^H / sigma_c2) s.t.
    tr(Q^-1) <= gamma_tilde, tr(Q) <= P, at multipliers (mu, v).

    The Lagrangian maximizer is diagonal in the channel eigenbasis, so the
    dual separates over the subchannels: each power maximizes
    log2(1 + g p) - mu/p - v p, found by bisection on its derivative
    g/(ln2 (1 + g p)) + mu/p^2 - v, which decreases in p.
    """
    g = np.asarray(gains, dtype=float)

    def slope(p):
        with np.errstate(divide="ignore"):
            s = g / (LN2 * (1.0 + g * p)) - v
            return s + mu / (p * p) if mu > 0.0 else s

    hi = np.full(g.size, 1.0 / (LN2 * v) + math.sqrt(mu / v) + 1.0)
    while np.any(slope(hi) > 0.0):
        hi = np.where(slope(hi) > 0.0, 2.0 * hi, hi)
    lo = np.zeros(g.size)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = slope(mid) > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    p = 0.5 * (lo + hi)
    if mu == 0.0:
        # without the CRB term a channel below the water level stays dry
        p = np.where(g / LN2 > v, p, 0.0)
    lagr = np.log1p(g * p) / LN2 - v * p
    if mu > 0.0:
        lagr = lagr - mu / p
    return float(lagr.sum()) + mu * gamma_tilde + v * P


def check_solve(H: np.ndarray, scenario: dict, gamma: float, Q: np.ndarray,
                mu: float, v: float, reported_crb: float, reported_rate: float) -> None:
    """Check an ``optimal`` solve from its covariance Q and multipliers (mu, v)."""
    m, P, s2c = scenario["M"], scenario["P"], scenario["sigma_c2"]
    s2s, Ns, L = scenario["sigma_s2"], scenario["Ns"], scenario["L"]
    Q = np.asarray(Q, dtype=complex)
    scale = float(np.linalg.norm(Q))
    _require(float(np.linalg.norm(Q - Q.conj().T)) <= 1e-12 * max(scale, 1e-300),
             "covariance is not Hermitian")
    eigs = np.linalg.eigvalsh(Q)
    _require(float(eigs.min()) > 0.0, "covariance is not positive definite")
    tr = float(np.trace(Q).real)
    _require(tr <= P * (1.0 + FEAS_RTOL), f"trace {tr!r} exceeds the power {P!r}")
    crb = s2s * Ns / L * float((1.0 / eigs).sum())
    _require(crb <= gamma * (1.0 + FEAS_RTOL),
             f"CRB {crb!r} exceeds the threshold {gamma!r}")
    _require(abs(crb - reported_crb) <= FEAS_RTOL * crb,
             f"reported CRB {reported_crb!r}, recomputed {crb!r}")
    Hm = np.asarray(H, dtype=complex)
    W = np.eye(Hm.shape[0]) + Hm @ Q @ Hm.conj().T / s2c
    sign, logdet = np.linalg.slogdet(W)
    _require(sign.real > 0.0, "I + H Q H^H / sigma_c2 is not positive definite")
    rate = float(logdet) / LN2
    _require(abs(rate - reported_rate) <= RECOMPUTE_RTOL * max(1.0, rate),
             f"reported rate {reported_rate!r}, recomputed {rate!r}")

    if math.isnan(mu):
        # a budget at the minimum M^2/P leaves one feasible point, (P/M) I
        _require(float(np.abs(eigs - P / m).max()) <= FEAS_RTOL * P / m,
                 "a solve without multipliers is not the isotropic covariance")
        return
    _require(mu >= 0.0 and v > 0.0, f"multipliers out of range: mu={mu!r}, v={v!r}")
    gamma_tilde = L * gamma / (s2s * Ns)
    dual = lagrange_dual(channel_gains(Hm, m, s2c), mu, v, gamma_tilde, P)
    gap = dual - rate
    tol = GAP_RTOL * max(1.0, abs(rate))
    _require(gap >= -tol, f"rate {rate!r} exceeds the dual bound {dual!r}: infeasible")
    _require(gap <= tol, f"rate {rate!r} is {gap:.3e} below the dual bound {dual!r}")


def check_oracle(gains: np.ndarray, P: float, gamma_tilde: float, p,
                 solver_rate: float, primal: bool) -> None:
    """Check oracle powers for feasibility and their rate against the solver.

    ``gains`` are this module's noise-normalized gains, zero-padded to M; the
    oracle orders its communication powers like the singular values.
    """
    p = np.asarray(p, dtype=float)
    _require(p.shape == gains.shape, f"oracle returned {p.size} powers for {gains.size} antennas")
    _require(bool(np.all(p > 0.0)), "oracle powers are not all positive")
    _require(float(p.sum()) <= P * (1.0 + FEAS_RTOL), "oracle powers exceed the power budget")
    _require(float((1.0 / p).sum()) <= gamma_tilde * (1.0 + FEAS_RTOL),
             "oracle powers exceed the CRB budget")
    rate = float(np.log1p(gains * p).sum() / LN2)
    if primal:
        dev = abs(rate - solver_rate)
        _require(dev <= ORACLE_PRIMAL_ATOL,
                 f"primal-grid rate {rate!r} is {dev:.3e} from the solver's {solver_rate!r}")
    else:
        dev = abs(rate - solver_rate) / max(1.0, solver_rate)
        _require(dev <= ORACLE_DUAL_RTOL,
                 f"dual-grid rate {rate!r} is {dev:.3e} from the solver's {solver_rate!r}")
