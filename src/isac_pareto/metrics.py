"""The two link metrics, rate and CRB, in closed form and in matrix form.

Every allocation the library produces is diagonal in the channel
eigenbasis, Q = Vc diag(p) Vc^H, so both metrics come in closed form from
the powers p (:func:`rate_from_powers`, :func:`crb_from_powers`).  The
matrix forms (:func:`rate`, :func:`crb_trace`), the covariance type, its
assembly from a power vector and the rotation into the antenna basis serve
the solver's report and the tests that check the closed forms against them.
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
    "rotate_from_eigenbasis",
    "assemble_covariance",
]

LN2 = math.log(2.0)

# An eigenvalue of Q at or below EIG_FLOOR_REL * (trace/M) counts as zero,
# which makes the CRB infinite (the target response is not estimable).
EIG_FLOOR_REL = 1e-9


@dataclass
class TransmitCovariance:
    """Hermitian PSD transmit covariance with its trace budget."""

    Q: np.ndarray
    budget: float

    def validate(self) -> None:
        """Check Hermitian symmetry, positive semidefiniteness and the trace
        budget; raise ``ValueError`` on violation."""
        Q = self.Q
        scale = max(1.0, float(np.linalg.norm(Q)))
        if np.linalg.norm(Q - Q.conj().T) > 1e-12 * scale:
            raise ValueError("covariance is not Hermitian")
        eigs = np.linalg.eigvalsh(0.5 * (Q + Q.conj().T))
        tr = float(eigs.sum())
        if eigs.min() < -1e-10 * max(tr, 1e-300):
            raise ValueError("covariance has a negative eigenvalue")
        if tr > self.budget + 1e-8:
            raise ValueError(f"trace {tr} exceeds budget {self.budget}")


@dataclass
class CRPoint:
    """One point of the CRB-rate region.

    ``crb`` may be ``math.inf`` when the covariance is rank deficient.
    ``gamma_target`` is the CRB threshold the point was solved for, or
    ``None`` for endpoint/benchmark points that have no target.
    """

    crb: float
    rate: float
    gamma_target: float | None = None
    scheme: str = ""


def _as_matrix(Q) -> np.ndarray:
    if isinstance(Q, TransmitCovariance):
        return Q.Q
    return np.asarray(Q, dtype=complex)


def _as_channel(H) -> np.ndarray:
    H_attr = getattr(H, "H", None)
    if H_attr is not None and isinstance(H_attr, np.ndarray):
        return H_attr
    return np.asarray(H, dtype=complex)


def rate(Q, H, sigma_c2: float) -> float:
    """Achievable rate log2 det(I + H Q H^H / sigma_c2) in bps/Hz.

    ``Q`` may be a :class:`TransmitCovariance` or a plain matrix, ``H`` a
    :class:`~isac_pareto.scenario.ChannelMatrix` or a plain matrix.
    """
    Qm = _as_matrix(Q)
    Hm = _as_channel(H)
    if Hm.shape[1] != Qm.shape[0] or Qm.shape[0] != Qm.shape[1]:
        raise ValueError(f"dimension mismatch: H {Hm.shape}, Q {Qm.shape}")
    W = Hm @ Qm @ Hm.conj().T / sigma_c2
    eigs = np.linalg.eigvalsh(0.5 * (W + W.conj().T))
    # tiny negative eigenvalues are rounding noise from the PSD product
    eigs = np.clip(eigs, -0.5, None)
    return max(0.0, float(np.log1p(eigs).sum() / LN2))


def crb_trace(Q, sigma_s2: float, Ns: int, L: int) -> float:
    """Estimation CRB (sigma_s2 * Ns / L) * tr(Q^-1), or ``inf``.

    Computed from the eigenvalues of Q rather than an explicit inverse.
    Returns ``math.inf`` as soon as any eigenvalue falls at or below the
    relative floor ``EIG_FLOOR_REL * trace/M``: a rank-deficient covariance
    leaves the target response unidentifiable.
    """
    Qm = _as_matrix(Q)
    m = Qm.shape[0]
    eigs = np.linalg.eigvalsh(0.5 * (Qm + Qm.conj().T))
    tr = float(eigs.sum())
    floor = EIG_FLOOR_REL * max(tr, 0.0) / m
    if eigs.min() <= floor:
        return math.inf
    return sigma_s2 * Ns / L * float((1.0 / eigs).sum())


def rate_from_powers(lambdas2, p, sigma_c2: float):
    """Rate over parallel subchannels: sum log2(1 + lambda_i^2 p_i / sigma_c2).

    ``p`` may be longer than ``lambdas2``; the extra (sensing) entries do not
    contribute to the rate.  A 2-D ``p`` holds one allocation per row and
    gives an array with one rate per row; a 1-D ``p`` gives a float.
    """
    lam2 = np.asarray(lambdas2, dtype=float)
    pw = np.asarray(p, dtype=float)[..., : lam2.size]
    out = np.log1p(lam2 * pw / sigma_c2).sum(axis=-1) / LN2
    return float(out) if pw.ndim == 1 else out


def crb_from_powers(p, sigma_s2: float, Ns: int, L: int):
    """CRB of a diagonal (eigenbasis) allocation; ``inf`` on a floored entry.

    For Q = Vc diag(p) Vc^H this equals :func:`crb_trace`, with the same
    floor rule applied to the entries of ``p``.  A 2-D ``p`` holds one
    allocation per row and gives an array with one CRB per row; a 1-D ``p``
    gives a float.
    """
    pw = np.asarray(p, dtype=float)
    floor = EIG_FLOOR_REL * np.maximum(pw.sum(axis=-1), 0.0) / pw.shape[-1]
    floored = pw.min(axis=-1) <= floor
    with np.errstate(divide="ignore"):
        out = sigma_s2 * Ns / L * (1.0 / pw).sum(axis=-1)
    out = np.where(floored, math.inf, out)
    return float(out) if pw.ndim == 1 else out


def trace_budget(gamma: float, sigma_s2: float, Ns: int, L: int) -> float:
    """Convert a CRB threshold into the budget on tr(Q^-1): L*gamma/(sigma_s2*Ns)."""
    return L * gamma / (sigma_s2 * Ns)


def crb_from_trace_budget(gamma_tilde: float, sigma_s2: float, Ns: int, L: int) -> float:
    """Inverse of :func:`trace_budget`."""
    return sigma_s2 * Ns * gamma_tilde / L


def rotate_from_eigenbasis(Qt, Vc: np.ndarray) -> np.ndarray:
    """Express an eigenbasis covariance in the antenna basis: Vc Qt Vc^H.

    With ``Vc.conj().T`` in place of ``Vc`` it maps the other way, Vc^H Q Vc.
    """
    Qm = _as_matrix(Qt)
    return Vc @ Qm @ Vc.conj().T


def assemble_covariance(Vc: np.ndarray, p, budget: float | None = None) -> TransmitCovariance:
    """Build Q = Vc diag(p) Vc^H from a per-subchannel power vector."""
    pw = np.asarray(p, dtype=float)
    if Vc.shape[0] != Vc.shape[1] or Vc.shape[0] != pw.size:
        raise ValueError(f"dimension mismatch: Vc {Vc.shape}, p length {pw.size}")
    Q = (Vc * pw[None, :]) @ Vc.conj().T
    Q = 0.5 * (Q + Q.conj().T)
    if budget is None:
        budget = float(pw.sum())
    return TransmitCovariance(Q=Q, budget=budget)
