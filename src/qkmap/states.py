"""Minimal pure-state simulator for the phase-encoding circuit family.

Convention: qubit 1 is the least-significant bit of the amplitude index,
and the leftmost letter in Pauli labels (so "ZI" acts on qubit 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_NORM_TOL = 1e-9
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector of a pure n-qubit state."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2 ** self.n_qubits,):
            raise ValueError(
                f"expected {2 ** self.n_qubits} amplitudes, got {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class MeasurementCounts:
    """Z-basis measurement record. Bit-strings list qubit 1 first."""

    shots: int
    counts: dict

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")

    def frequency(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / self.shots


def zero_state(n_qubits: int) -> StateVector:
    """|0...0> on n qubits."""
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def basis_index_to_bitstring(index: int, n_qubits: int) -> str:
    """Bit-string for a basis index, qubit 1 (LSB) written first."""
    return "".join(str((index >> q) & 1) for q in range(n_qubits))


def hadamard_layer(amps) -> np.ndarray:
    """H on every qubit of the last axis of a (..., 2**n) amplitude array."""
    a = np.array(amps, dtype=np.complex128)
    dim = a.shape[-1]
    idx = np.arange(dim)
    for q in range(dim.bit_length() - 1):
        lo = idx[(idx >> q) & 1 == 0]
        hi = lo | (1 << q)
        a0 = a[..., lo]
        a1 = a[..., hi]
        a[..., lo] = (a0 + a1) * _INV_SQRT2
        a[..., hi] = (a0 - a1) * _INV_SQRT2
    return a


def phase_layer(amps, phi_single, phi_pairs) -> np.ndarray:
    """Apply exp(i sum_k phi_k Z_k + i sum_{k<l} phi_{k,l} Z_k Z_l).

    Acts on the last axis of a (..., 2**n) amplitude array.  ``phi_single``
    holds one phase per qubit (qubit q at position q-1); ``phi_pairs`` maps
    1-based qubit pairs (k, l) to their phase.  Each phase is a scalar or
    an array over the leading axes of ``amps``.  The gate is diagonal:
    basis state b picks up exp(i * (sum phi_k z_k(b) + sum phi_{k,l}
    z_k(b) z_l(b))) with z_k(b) = (-1)^{bit k of b}.
    """
    a = np.asarray(amps, dtype=np.complex128)
    dim = a.shape[-1]
    n = dim.bit_length() - 1
    phi_single = list(phi_single)
    if len(phi_single) != n:
        raise ValueError(f"phi_single must have {n} entries")
    idx = np.arange(dim)
    z = 1.0 - 2.0 * ((idx >> np.arange(n)[:, None]) & 1)
    phase = np.zeros(a.shape)
    for q, phi in enumerate(phi_single):
        phase += np.multiply.outer(phi, z[q])
    for (k, l), phi in dict(phi_pairs).items():
        if k == l or not (1 <= k <= n) or not (1 <= l <= n):
            raise ValueError(f"invalid qubit pair ({k}, {l}) for n={n}")
        phase += np.multiply.outer(phi, z[k - 1]) * z[l - 1]
    return a * np.exp(1j * phase)


def apply_hadamard_all(state: StateVector) -> StateVector:
    """Apply H to every qubit."""
    return StateVector(state.n_qubits, hadamard_layer(state.amplitudes))


def apply_diagonal_phase(state: StateVector, phi_single, phi_pairs) -> StateVector:
    """Apply the diagonal phase gate of :func:`phase_layer` to one state."""
    return StateVector(state.n_qubits,
                       phase_layer(state.amplitudes, phi_single, phi_pairs))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> over the computational basis."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def sample_measurement(state: StateVector, shots: int, seed: int) -> MeasurementCounts:
    """Draw ``shots`` Z-basis samples; deterministic per seed (PCG64).

    Probabilities below 1e-12 are truncated to zero before sampling, so
    states that are a computational basis state up to floating-point
    round-off measure deterministically.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = state.probabilities()
    probs[probs < 1e-12] = 0.0
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    counts = {
        basis_index_to_bitstring(b, state.n_qubits): int(c)
        for b, c in enumerate(draws)
        if c > 0
    }
    return MeasurementCounts(shots, counts)
