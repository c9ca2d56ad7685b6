"""The two link metrics, rate and CRB, in closed form and in matrix form.

Every allocation the library produces is diagonal in the channel
eigenbasis, Q = Vc diag(p) Vc^H, so both metrics come in closed form from
the powers p (:func:`rate_from_powers`, :func:`crb_from_powers`); the
closed-form CRB is exact, infinite only at an exact zero power.  The
matrix forms (:func:`rate`, :func:`crb_trace`), the covariance type and
its assembly from a power vector serve the solver's report and the tests
that check the closed forms against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EIG_FLOOR_REL",
    "TransmitCovariance",
    "CRPoint",
    "rate",
    "crb_trace",
    "rate_from_powers",
    "crb_from_powers",
    "trace_budget",
    "crb_from_trace_budget",
    "assemble_covariance",
]

LN2 = math.log(2.0)
INV_LN2 = 1.0 / LN2

# An eigenvalue of Q at or below EIG_FLOOR_REL * (trace/M) counts as zero,
# which makes the CRB infinite (the target response is not estimable).  It
# is the resolution of crb_trace's eigendecomposition, and the rule by which
# closed_form.rate_max_point calls a water-filled subchannel dry.
EIG_FLOOR_REL = 1e-9


@dataclass
class TransmitCovariance:
    """Hermitian PSD transmit covariance."""

    Q: np.ndarray


@dataclass
class CRPoint:
    """One point of the CRB-rate region.

    ``crb`` may be ``math.inf`` when the covariance is rank deficient.
    """

    crb: float
    rate: float


def rate(Q: np.ndarray, H: np.ndarray, sigma_c2: float) -> float:
    """Achievable rate log2 det(I + H Q H^H / sigma_c2) in bps/Hz, for the
    M x M covariance matrix ``Q`` and the Nc x M channel matrix ``H``.

    H is divided by sqrt(sigma_c2) before the product, so that the product
    stays finite wherever the gains in units of P, lambda^2 P / sigma_c2,
    do, even when lambda^2 P alone overflows."""
    if H.shape[1] != Q.shape[0] or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: H {H.shape}, Q {Q.shape}")
    Hn = H / math.sqrt(sigma_c2)
    W = Hn @ Q @ Hn.conj().T
    eigs = np.linalg.eigvalsh(0.5 * (W + W.conj().T))
    # tiny negative eigenvalues are rounding noise from the PSD product
    eigs = np.clip(eigs, -0.5, None)
    return max(0.0, float(np.log1p(eigs).sum() / LN2))


def crb_trace(Q: np.ndarray, sigma_s2: float, Ns: int, L: int) -> float:
    """Estimation CRB (sigma_s2 * Ns / L) * tr(Q^-1), or ``inf``, for the
    covariance matrix ``Q``.

    Computed from the eigenvalues of Q rather than an explicit inverse.
    Returns ``math.inf`` as soon as any eigenvalue falls at or below the
    relative floor ``EIG_FLOOR_REL * trace/M``: a rank-deficient covariance
    leaves the target response unidentifiable.
    """
    m = Q.shape[0]
    eigs = np.linalg.eigvalsh(0.5 * (Q + Q.conj().T))
    tr = float(eigs.sum())
    floor = EIG_FLOOR_REL * max(tr, 0.0) / m
    if eigs.min() <= floor:
        return math.inf
    return sigma_s2 * Ns / L * float((1.0 / eigs).sum())


def rate_from_powers(lambdas2, p, sigma_c2: float):
    """Rate over parallel subchannels: sum log2(1 + lambda_i^2 p_i / sigma_c2).

    ``p`` may be longer than ``lambdas2``; the extra (sensing) entries do not
    contribute to the rate.  A 2-D ``p`` holds one allocation per row and
    gives an array with one rate per row; a 1-D ``p`` gives a float.  The
    gains are divided by sigma_c2 before they multiply the powers, so that
    lambda^2 p alone may overflow.
    """
    lam2 = np.asarray(lambdas2, dtype=float)
    pw = np.asarray(p, dtype=float)[..., : lam2.size]
    out = np.log1p(lam2 / sigma_c2 * pw).sum(axis=-1) / LN2
    return float(out) if pw.ndim == 1 else out


def crb_from_powers(p, sigma_s2: float, Ns: int, L: int):
    """CRB of a diagonal (eigenbasis) allocation: (sigma_s2 Ns / L) sum 1/p_i.

    Exact: infinite only when some entry of ``p`` is exactly zero.  For
    Q = Vc diag(p) Vc^H it equals :func:`crb_trace` wherever the eigenvalues
    of Q clear that function's floor.  A 2-D ``p`` holds one allocation per
    row and gives an array with one CRB per row; a 1-D ``p`` gives a float.
    """
    pw = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        out = sigma_s2 * Ns / L * (1.0 / pw).sum(axis=-1)
    return float(out) if pw.ndim == 1 else out


def trace_budget(gamma: float, sigma_s2: float, Ns: int, L: int) -> float:
    """Convert a CRB threshold into the budget on tr(Q^-1): L*gamma/(sigma_s2*Ns)."""
    return L * gamma / (sigma_s2 * Ns)


def crb_from_trace_budget(gamma_tilde: float, sigma_s2: float, Ns: int, L: int) -> float:
    """Inverse of :func:`trace_budget`."""
    return sigma_s2 * Ns * gamma_tilde / L


def assemble_covariance(Vc: np.ndarray, p) -> TransmitCovariance:
    """Build Q = Vc diag(p) Vc^H from a per-subchannel power vector."""
    pw = np.asarray(p, dtype=float)
    if Vc.shape[0] != Vc.shape[1] or Vc.shape[0] != pw.size:
        raise ValueError(f"dimension mismatch: Vc {Vc.shape}, p length {pw.size}")
    Q = (Vc * pw[None, :]) @ Vc.conj().T
    Q = 0.5 * (Q + Q.conj().T)
    return TransmitCovariance(Q=Q)
