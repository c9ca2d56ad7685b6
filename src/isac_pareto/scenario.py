"""Scenario configuration, array steering, and Rician channel generation.

Channel matrices can be frozen to plain-text CSV fixtures so that a test
battery always runs against the exact same draw, independent of the random
generator that produced it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RANK_TOL_REL",
    "FixtureFormatError",
    "Scenario",
    "ChannelMatrix",
    "steering_vector",
    "rician_channel",
    "save_fixture",
    "load_fixture",
    "preset_scenario",
    "PRESET_NAMES",
]

# A singular value counts toward the channel rank iff it exceeds this
# fraction of the largest one.
RANK_TOL_REL = 1e-9


class FixtureFormatError(ValueError):
    """A channel fixture file is malformed or has unexpected dimensions."""


@dataclass
class Scenario:
    """All physical and system parameters of one ISAC link.

    Powers and noise variances are linear (dimensionless) quantities.
    ``Kc`` is the Rician factor of the communication channel; ``math.inf``
    selects the pure line-of-sight channel.

    Randomness is produced by numpy's PCG64 generator
    (``numpy.random.default_rng(seed)``).  The diffuse channel part is drawn
    as one ``standard_normal`` block for the real parts followed by one block
    for the imaginary parts, so a given seed always yields the same matrix.
    Test batteries should nevertheless pin channels through fixture files,
    not through generator equality.
    """

    M: int
    Nc: int
    Ns: int
    L: int
    P: float
    sigma_c2: float = 1.0
    sigma_s2: float = 1.0
    Kc: float = 0.0
    theta: float = math.pi / 6
    seed: int = 0
    fixture_path: str | None = None

    def __post_init__(self) -> None:
        if self.M <= 1:
            raise ValueError(f"need more than one transmit antenna, got M={self.M}")
        if self.Nc <= 1:
            raise ValueError(f"need more than one CU antenna, got Nc={self.Nc}")
        if self.Ns < 1:
            raise ValueError(f"need at least one BS-Rx antenna, got Ns={self.Ns}")
        if self.L <= self.M:
            raise ValueError(f"CPI length must exceed M: L={self.L}, M={self.M}")
        if not 0.0 < self.P < math.inf:
            raise ValueError(f"power budget must be positive and finite, got P={self.P}")
        if not (0.0 < self.sigma_c2 < math.inf and 0.0 < self.sigma_s2 < math.inf):
            raise ValueError("noise variances must be positive and finite")
        # the dual search starts from mu = v (P/M)^2, on a log scale; this
        # also keeps the minimum trace-inverse budget M^2/P finite
        per_antenna = self.P / self.M
        if not sys.float_info.min <= per_antenna * per_antenna < math.inf:
            raise ValueError(f"power budget P={self.P} is so far from 1 that (P/M)^2 "
                             "is not a normal float")
        # the minimum CRB bounds every threshold from below; once it
        # overflows, none is finite
        if not math.isfinite(self.sigma_s2 * self.Ns * self.M * self.M / (self.P * self.L)):
            raise ValueError(f"power budget P={self.P} is so small that the minimum CRB "
                             "overflows")
        if not self.Kc >= 0:
            raise ValueError(f"Rician factor must be non-negative, got Kc={self.Kc}")
        if not math.isfinite(self.theta):
            raise ValueError(f"angle must be finite, got theta={self.theta}")


@dataclass
class ChannelMatrix:
    """A communication channel together with its singular value decomposition.

    Attributes
    ----------
    H : complex (Nc, M) matrix.
    Uc : left singular vectors, (Nc, Nc) unitary.
    lambdas : all min(Nc, M) singular values, non-increasing.
    Vc : right singular vectors, (M, M) unitary.
    r : numerical rank (count of singular values above ``RANK_TOL_REL``
        relative to the largest).
    """

    H: np.ndarray
    Uc: np.ndarray
    lambdas: np.ndarray
    Vc: np.ndarray
    r: int

    @classmethod
    def from_matrix(cls, H) -> "ChannelMatrix":
        H = np.ascontiguousarray(np.asarray(H, dtype=complex))
        if H.ndim != 2:
            raise ValueError(f"channel matrix must be 2-D, got shape {H.shape}")
        Uc, s, Vh = np.linalg.svd(H, full_matrices=True)
        top = float(s[0]) if s.size else 0.0
        r = int(np.count_nonzero(s > RANK_TOL_REL * top)) if top > 0.0 else 0
        return cls(H=H, Uc=Uc, lambdas=s, Vc=Vh.conj().T, r=r)

    @property
    def shape(self) -> tuple[int, int]:
        return self.H.shape

    @property
    def lambdas2(self) -> np.ndarray:
        """Squared non-zero singular values (length r, non-increasing)."""
        return self.lambdas[: self.r] ** 2

    def validate(self, tol: float = 1e-10) -> None:
        """Check SVD reconstruction, unitarity and ordering; raise on failure."""
        nc, m = self.H.shape
        sigma = np.zeros((nc, m))
        k = min(nc, m)
        sigma[:k, :k] = np.diag(self.lambdas)
        rec = self.Uc @ sigma @ self.Vc.conj().T
        scale = np.linalg.norm(self.H)
        if np.linalg.norm(rec - self.H) > tol * max(1.0, scale):
            raise ValueError("SVD does not reconstruct the channel matrix")
        if np.linalg.norm(self.Uc.conj().T @ self.Uc - np.eye(nc)) > tol:
            raise ValueError("left singular vectors are not unitary")
        if np.linalg.norm(self.Vc.conj().T @ self.Vc - np.eye(m)) > tol:
            raise ValueError("right singular vectors are not unitary")
        if np.any(np.diff(self.lambdas) > tol * max(1.0, scale)):
            raise ValueError("singular values are not sorted non-increasing")
        if self.r > k:
            raise ValueError("rank exceeds min(Nc, M)")


def steering_vector(count: int, theta: float) -> np.ndarray:
    """Steering vector of a half-wavelength-spaced ULA toward angle ``theta``.

    Element m (0-based) equals exp(j*pi*m*sin(theta)); element 0 is 1.
    """
    if count < 1:
        raise ValueError(f"need at least one element, got {count}")
    return np.exp(1j * np.pi * np.arange(count) * math.sin(theta))


def rician_channel(scenario: Scenario) -> ChannelMatrix:
    """Draw the Nc x M Rician communication channel of a scenario.

    The line-of-sight part is the outer product of the receive and transmit
    steering vectors at the scenario angle (AoA = AoD); the diffuse part has
    i.i.d. circularly-symmetric complex Gaussian entries of unit variance.
    ``Kc = inf`` returns the pure line-of-sight rank-one channel.

    If ``scenario.fixture_path`` is set, the matrix is loaded from that
    fixture instead of being sampled.
    """
    if scenario.fixture_path is not None:
        ch = load_fixture(scenario.fixture_path)
        if ch.shape != (scenario.Nc, scenario.M):
            raise FixtureFormatError(
                f"fixture has shape {ch.shape}, scenario wants "
                f"({scenario.Nc}, {scenario.M})"
            )
        return ch
    a_rx = steering_vector(scenario.Nc, scenario.theta)
    a_tx = steering_vector(scenario.M, scenario.theta)
    los = np.outer(a_rx, a_tx)
    if math.isinf(scenario.Kc):
        return ChannelMatrix.from_matrix(los)
    rng = np.random.default_rng(scenario.seed)
    re = rng.standard_normal((scenario.Nc, scenario.M))
    im = rng.standard_normal((scenario.Nc, scenario.M))
    diffuse = (re + 1j * im) / math.sqrt(2.0)
    kc = scenario.Kc
    H = math.sqrt(kc / (kc + 1.0)) * los + math.sqrt(1.0 / (kc + 1.0)) * diffuse
    return ChannelMatrix.from_matrix(H)


def save_fixture(channel, path) -> None:
    """Store a channel matrix as CSV: a `rows,cols` header, then one line per
    matrix row with alternating real/imag columns at 17 significant digits
    (lossless for float64)."""
    H = channel.H if isinstance(channel, ChannelMatrix) else np.asarray(channel, dtype=complex)
    nr, nc = H.shape
    lines = [f"{nr},{nc}"]
    for i in range(nr):
        cells = []
        for j in range(nc):
            cells.append(f"{H[i, j].real:.17g}")
            cells.append(f"{H[i, j].imag:.17g}")
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_fixture(path) -> ChannelMatrix:
    """Load a channel previously stored with :func:`save_fixture`.

    A rank-0 (all-zero) channel carries no communication subchannel and is
    rejected like a malformed file.
    """
    with open(path, "r", encoding="ascii") as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw:
        raise FixtureFormatError(f"{path}: empty fixture file")
    head = raw[0].split(",")
    if len(head) != 2:
        raise FixtureFormatError(f"{path}: header must be 'rows,cols'")
    try:
        nr, nc = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FixtureFormatError(f"{path}: bad header {raw[0]!r}") from exc
    if nr < 1 or nc < 1:
        raise FixtureFormatError(f"{path}: non-positive dimensions in header")
    if len(raw) - 1 != nr:
        raise FixtureFormatError(f"{path}: expected {nr} data rows, found {len(raw) - 1}")
    H = np.empty((nr, nc), dtype=complex)
    for i, line in enumerate(raw[1:]):
        cells = line.split(",")
        if len(cells) != 2 * nc:
            raise FixtureFormatError(f"{path}: row {i} has {len(cells)} fields, expected {2 * nc}")
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise FixtureFormatError(f"{path}: row {i} has a non-numeric field") from exc
        H[i] = np.asarray(vals[0::2]) + 1j * np.asarray(vals[1::2])
    channel = ChannelMatrix.from_matrix(H)
    if channel.r == 0:
        raise FixtureFormatError(f"{path}: channel has rank 0 (every entry is zero)")
    return channel


# Default seeds are pinned so that the named presets have the qualitative
# ranks they are used for (scenario1 rank-deficient, scenario2 full rank
# with a finite rate-maximizing CRB).
_PRESETS = {
    "scenario1": dict(M=8, Nc=6, Ns=12, L=200, P=800.0, sigma_c2=1.0,
                      sigma_s2=1.0, Kc=100.0, theta=math.pi / 6, seed=17),
    "scenario2": dict(M=6, Nc=6, Ns=12, L=200, P=800.0, sigma_c2=1.0,
                      sigma_s2=1.0, Kc=20.0, theta=math.pi / 6, seed=18),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_scenario(name: str, seed: int | None = None) -> Scenario:
    """Return one of the named example scenarios, optionally reseeded."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    kwargs = dict(_PRESETS[name])
    if seed is not None:
        kwargs["seed"] = seed
    return Scenario(**kwargs)
