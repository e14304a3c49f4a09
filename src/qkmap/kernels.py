"""Kernel values and Gram matrices by three routes, plus weighted combination.

Routes: exact (squared statevector overlap), pauli (2^n * dot product of
coefficient vectors, the real-feature-space identity), and shots (fraction
of all-zero outcomes when measuring the inversion-test circuit
U_Phi(x)^dagger U_Phi(z)|00>).  That outcome has probability
|<Phi(x)|Phi(z)>|^2, the exact kernel (Havlicek et al., Nature 567, 209
(2019)), so the shot route samples counts from the exact overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encodings import EncodingSpec, feature_states
from .pauli import coefficients

EXACT = "exact"
PAULI = "pauli"
SHOTS = "shots"
COMBINED = "combined"


@dataclass(frozen=True)
class KernelWeights:
    """Nonnegative combination weights summing to their count."""

    weights: tuple

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        m = len(w)
        if m == 0:
            raise ValueError("at least one weight required")
        if any(v < 0.0 or v > m for v in w):
            raise ValueError(f"each weight must lie in [0, {m}]")
        if abs(sum(w) - m) > 1e-9:
            raise ValueError(f"weights must sum to {m}, got {sum(w)}")
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


@dataclass(frozen=True)
class GramMatrix:
    """N x N kernel matrix with its construction method recorded."""

    values: np.ndarray = field(repr=False)
    method: str = EXACT
    shots: int | None = None
    seed: int | None = None
    weights: KernelWeights | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"Gram matrix must be square, got {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.values)[0])

    def to_csv(self, path) -> None:
        """One-line header (method plus shots/seed/weights), then the rows."""
        parts = [f"method={self.method}", f"size={self.size}"]
        if self.shots is not None:
            parts.append(f"shots={self.shots}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.weights is not None:
            parts.append("weights=" + ";".join(repr(w) for w in self.weights))
        with open(path, "w") as fh:
            fh.write("# " + " ".join(parts) + "\n")
            for row in self.values.tolist():
                fh.write(",".join(map(repr, row)) + "\n")


def kernel_exact(spec: EncodingSpec, x, z) -> float:
    """K(x, z) = |<Phi(x)|Phi(z)>|^2."""
    a, b = feature_states(spec, [x, z])
    return abs(complex(np.vdot(a, b))) ** 2


def kernel_pauli(spec: EncodingSpec, x, z) -> float:
    """K(x, z) = 2^n * sum_i a_i(x) a_i(z), via the coefficient vectors."""
    ax, az = coefficients(spec, [x, z])
    return float(4.0 * ax @ az)


def _zero_count_fraction(p0: float, shots: int, seed: int) -> float:
    """Fraction of "00" outcomes in ``shots`` measurements of the test state.

    The count is one Binomial(shots, p0) draw, the first category of the
    multinomial over the four outcomes drawn from the same generator state.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    return int(np.random.default_rng(seed).binomial(shots, p0)) / shots


def kernel_shots(spec: EncodingSpec, x, z, shots: int, seed: int) -> float:
    """Shot-estimated kernel: fraction of "00" outcomes over the inversion test."""
    return _zero_count_fraction(min(kernel_exact(spec, x, z), 1.0), shots, seed)


def pair_seed(base_seed: int, i: int, j: int) -> int:
    """Stable per-pair seed: first word of SeedSequence((base_seed, i, j))."""
    return int(np.random.SeedSequence((base_seed, i, j)).generate_state(1)[0])


def gram(spec: EncodingSpec, points, method: str = EXACT,
         shots: int = 10_000, seed: int = 0) -> GramMatrix:
    """Gram matrix over a point set; each unordered pair evaluated once.

    Shot-estimated matrices set the diagonal to exactly 1 without sampling
    (the inversion-test circuit is the identity there) and mirror each
    off-diagonal estimate, so they are symmetric by construction.  Entry
    (i, j) is one Binomial(shots, K_ij) draw, K_ij the exact entry clipped
    to at most 1, from its own seed ``pair_seed(seed, i, j)``.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 1:
        raise ValueError("at least one point required")
    if method == PAULI:
        coeffs = coefficients(spec, pts)
        k = 4.0 * coeffs @ coeffs.T
        k = (k + k.T) / 2.0
        return GramMatrix(k, PAULI)
    if method not in (EXACT, SHOTS):
        raise ValueError(f"unknown gram method {method!r}")
    states = feature_states(spec, pts)
    k = np.abs(states.conj() @ states.T) ** 2
    k = (k + k.T) / 2.0
    np.fill_diagonal(k, 1.0)
    if method == EXACT:
        return GramMatrix(k, EXACT)
    rows, cols = np.triu_indices(n, 1)
    p0 = np.minimum(k[rows, cols], 1.0)
    k = np.eye(n)
    for i, j, p in zip(rows.tolist(), cols.tolist(), p0.tolist()):
        k[i, j] = k[j, i] = _zero_count_fraction(p, shots, pair_seed(seed, i, j))
    return GramMatrix(k, SHOTS, shots=shots, seed=seed)


def combine(grams, weights: KernelWeights) -> GramMatrix:
    """Entrywise weighted sum of Gram matrices (PSD-preserving)."""
    grams = list(grams)
    if len(grams) != len(weights):
        raise ValueError(f"{len(grams)} matrices but {len(weights)} weights")
    size = grams[0].size
    for g in grams:
        if g.size != size:
            raise ValueError("Gram matrices have mismatched sizes")
    total = np.zeros((size, size))
    for g, w in zip(grams, weights):
        total += w * g.values
    return GramMatrix(total, COMBINED, weights=weights)
