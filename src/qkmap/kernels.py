"""Gram matrices over point sets by three routes, plus weighted combination.

Routes: exact (tr(rho_x rho_z) as a real product of density-matrix rows of
the simulated states), pauli (4 * dot product of the closed-form coefficient
vectors of :mod:`qkmap.pauli`, the real-feature-space identity), and shots
(fraction of all-zero outcomes when measuring the inversion-test circuit
U_Phi(x)^dagger U_Phi(z)|00>).  That outcome has probability
|<Phi(x)|Phi(z)>|^2, the exact kernel (Havlicek et al., Nature 567, 209
(2019)), so the shot route samples counts from the exact overlaps.  The
exact and shot Grams are the package's only use of the simulated states.
One kernel value is an entry of a two-point Gram:
``gram(phi12, [x, z], method, shots, seed).values[0, 1]``, where the
encoding is its phase function phi12(x1, x2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encodings import PhaseFunction, feature_states
from .pauli import _integer, _seed, coefficients

EXACT = "exact"
PAULI = "pauli"
SHOTS = "shots"
COMBINED = "combined"


def _density_reals(states) -> np.ndarray:
    """(N, 32) rows F of Re and Im of each |psi><psi| of (N, 4) states.

    tr(rho_x rho_z) of Hermitian matrices is the dot product of their reals,
    so the exact and shot Grams are the one real product F F^T.
    """
    s = np.asarray(states, dtype=np.complex128)
    return (s[:, :, None] * s[:, None, :].conj()).reshape(len(s), -1).view(float)


@dataclass(frozen=True)
class GramMatrix:
    """N x N kernel matrix with its construction method recorded."""

    values: np.ndarray = field(repr=False)
    method: str = EXACT
    shots: int | None = None
    seed: int | None = None
    weights: tuple | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"Gram matrix must be square, got {v.shape}")
        if v.flags.writeable or not v.flags.owndata:  # a caller's array may change later
            v = v.copy()
            v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        """One-line header (method plus shots/seed/weights), then the rows.

        Entries are shortest round-trip ``repr``s, each upper-triangle one formatted
        once and mirrored; entries whose bits differ from their mirror's (a caller's
        non-symmetric matrix, 0.0 against -0.0) are formatted again on their own.
        """
        parts = [f"method={self.method}", f"size={self.size}"]
        if self.shots is not None:
            parts.append(f"shots={self.shots}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.weights is not None:
            parts.append("weights=" + ";".join(repr(w) for w in self.weights))
        v = self.values
        upper = np.triu_indices(self.size)
        text = np.empty(v.shape, dtype=object)
        text[upper] = text[upper[::-1]] = list(map(repr, v[upper].tolist()))
        bits = v.view(np.uint64)
        odd = np.nonzero(bits != bits.T)
        text[odd] = list(map(repr, v[odd].tolist()))
        with open(path, "w") as fh:
            fh.write("# " + " ".join(parts) + "\n")
            fh.writelines([",".join(row.tolist()) + "\n" for row in text])


def gram(phi12: PhaseFunction, points, method: str = EXACT,
         shots: int = 10_000, seed: int = 0) -> GramMatrix:
    """Gram matrix over a point set, symmetric by construction.

    Exact and Pauli matrices are one real product F F^T.  Shot-estimated
    matrices set the diagonal to exactly 1 without sampling (the inversion-test
    circuit is the identity there) and mirror each off-diagonal estimate.  Row i
    draws its entries j > i in order, each one Binomial(shots, K_ij) with K_ij
    the exact entry clipped to [0, 1], from one generator seeded by
    ``SeedSequence(seed, spawn_key=(i,))``, numpy's spawn idiom, so that no row
    shares its stream with ``default_rng(seed)``.  The matrix is deterministic
    for a given point set and seed, but not promised bit-stable when points are
    appended: an exact overlap may move in the last bit, and one changed draw
    shifts the rest of its row.  For shots, ``shots`` is an integer in
    [1, 2**63 - 1] and ``seed`` a non-negative integer, or ValueError.  The
    result is read-only and not copied.
    """
    if method == SHOTS:  # the sampler's count is a C long
        shots = _integer(shots, "shots")  # 2.9 would sample Binomial(2, p) and divide by 2.9
        if not 1 <= shots < 2 ** 63:
            raise ValueError(f"shots must lie in [1, 2**63 - 1], got {shots}")
        seed = _seed(seed)
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 1:
        raise ValueError("at least one point required")
    if method == PAULI:
        f = 2.0 * coefficients(phi12, pts)
    elif method in (EXACT, SHOTS):
        f = _density_reals(feature_states(phi12, pts))
    else:
        raise ValueError(f"unknown gram method {method!r}")
    k = f @ f.T  # one buffer: numpy's A A^T path fills one triangle and mirrors it
    if method != PAULI:
        np.fill_diagonal(k, 1.0)
    if method == SHOTS:  # sampled in place: no earlier row writes row i's k[i, i+1:]
        np.clip(k, 0.0, 1.0, out=k)  # rounding can put an overlap just below 0
        for i in range(n - 1):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            k[i, i + 1:] = k[i + 1:, i] = rng.binomial(shots, k[i, i + 1:]) / shots
    k.setflags(write=False)  # GramMatrix keeps a read-only array it owns without a copy
    if method == SHOTS:
        return GramMatrix(k, SHOTS, shots=shots, seed=seed)
    return GramMatrix(k, method)


def _check_weights(weights, m: int) -> tuple:
    """The weights of m Gram matrices as floats: m of them, each in [0, m], summing to m."""
    w = tuple(float(v) for v in weights)
    if m == 0:
        raise ValueError("at least one Gram matrix required")
    if len(w) != m:
        raise ValueError(f"{m} matrices but {len(w)} weights")
    if any(not (0.0 <= v <= m) for v in w):  # also rejects NaN
        raise ValueError(f"each weight must lie in [0, {m}]")
    if abs(sum(w) - m) > 1e-9:
        raise ValueError(f"weights must sum to {m}, got {sum(w)}")
    return w


def combine(grams, weights) -> GramMatrix:
    """PSD-preserving weighted sum of m Gram matrices: m weights in [0, m] summing to m."""
    grams = [GramMatrix(g) if isinstance(g, (np.ndarray, list, tuple)) else g for g in grams]
    w = _check_weights(weights, len(grams))
    size = grams[0].size
    for g in grams:
        if g.size != size:
            raise ValueError("Gram matrices have mismatched sizes")
    total = np.zeros((size, size))
    for g, v in zip(grams, w):
        total += v * g.values
    total.setflags(write=False)  # GramMatrix keeps it without a copy, as gram's
    return GramMatrix(total, COMBINED, weights=w)
