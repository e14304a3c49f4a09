"""Real-vector representation of feature states via Pauli coefficients.

A pure n-qubit density matrix expands as rho = sum_i a_i sigma_i over the
4^n multi-qubit Pauli operators; the real vector a is the feature-space
image used throughout the toolkit.  Index order: i = sum_k d_k 4^(k-1)
with d_k in {I:0, X:1, Y:2, Z:3} the letter on qubit k, so the qubit-1
letter varies fastest (II, XI, YI, ZI, IX, XX, ...).
"""

from __future__ import annotations

import numpy as np

from .encodings import PhaseFunction, encoding_phases, feature_states

_LETTERS = "IXYZ"
_SINGLE = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128)


def pauli_label(index: int, n_qubits: int = 2) -> str:
    """Label for a coefficient index, qubit-1 letter leftmost (e.g. 7 -> "ZX")."""
    if not 0 <= index < 4 ** n_qubits:
        raise ValueError(f"index {index} out of range for n={n_qubits}")
    return "".join(_LETTERS[(index >> (2 * k)) & 3] for k in range(n_qubits))


def pauli_index(label: str, n_qubits: int = 2) -> int:
    """Inverse of :func:`pauli_label`; rejects anything but n letters of IXYZ."""
    letters = label.upper()
    if len(letters) != n_qubits or any(ch not in _LETTERS for ch in letters):
        valid = (", ".join(pauli_label(i) for i in range(16)) if n_qubits == 2
                 else f"{n_qubits} letters from {_LETTERS}")
        raise ValueError(f"invalid Pauli label {label!r}; expected one of: {valid}")
    return sum(_LETTERS.index(ch) << (2 * k) for k, ch in enumerate(letters))


TWO_QUBIT_LABELS = tuple(pauli_label(i, 2) for i in range(16))


def pauli_matrix(index: int, n_qubits: int = 2) -> np.ndarray:
    """Dense 2^n x 2^n matrix of sigma_index; qubit 1 is the rightmost factor."""
    if not 0 <= index < 4 ** n_qubits:
        raise ValueError(f"index {index} out of range for n={n_qubits}")
    m = np.ones((1, 1), dtype=np.complex128)
    for k in range(n_qubits):
        m = np.kron(_SINGLE[(index >> (2 * k)) & 3], m)
    return m


def _simulated_coefficients(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """(N, 4^n) coefficients <psi|sigma_i|psi> / 2^n of (N, 2^n) amplitudes."""
    paulis = np.array([pauli_matrix(i, n_qubits) for i in range(4 ** n_qubits)])
    e = np.einsum("nb,kbc,nc->nk", amps.conj(), paulis, amps)
    bad = np.argwhere(np.abs(e.imag) > 1e-10)
    if bad.size:
        n, i = bad[0]
        raise ArithmeticError(f"expectation of index {i} has imaginary residue {e.imag[n, i]}")
    return e.real / 2 ** n_qubits


def decompose(amps) -> np.ndarray:
    """All 4^n coefficients a_i = <psi|sigma_i|psi> / 2^n of one state.

    ``amps`` is a (2^n,) amplitude vector; n is inferred from its length,
    which must be a power of two, and its norm must be 1 within 1e-9.
    Returns a read-only (4^n,) array in the module's index order.
    """
    a = np.asarray(amps, dtype=np.complex128)
    dim = a.shape[0] if a.ndim == 1 else 0
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"expected 2**n amplitudes with n >= 1, got shape {a.shape}")
    norm = np.linalg.norm(a)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state not normalized: |psi| = {norm!r}")
    n = dim.bit_length() - 1
    coeffs = _simulated_coefficients(a[None], n)[0]
    coeffs.setflags(write=False)
    return coeffs


def closed_form_table(phases) -> np.ndarray:
    """Closed-form coefficients of the two-qubit feature circuit, (..., 16).

    ``phases`` holds rows (phi1, phi2, phi12).  Independent of the
    simulator: these are the analytic trigonometric expressions for a_i
    as functions of the three phases, in the standard index order (II,
    XI, YI, ZI, IX, ...).
    """
    p = np.asarray(phases, dtype=float)
    s1, c1 = np.sin(p[..., 0]), np.cos(p[..., 0])
    s2, c2 = np.sin(p[..., 1]), np.cos(p[..., 1])
    sp, cp = np.sin(p[..., 2]), np.cos(p[..., 2])
    a = {
        "II": np.ones_like(s1),
        "XI": s1 * (s2 * sp ** 2 + s1 * cp ** 2 + c2 * c1 * sp),
        "YI": -s2 * c1 * sp ** 2 - s1 * c1 * cp ** 2 + c2 * s1 ** 2 * sp,
        "ZI": c1 * cp,
        "IX": s2 * (s1 * sp ** 2 + s2 * cp ** 2 + c1 * c2 * sp),
        "XX": s1 ** 2 * s2 ** 2 + sp * c1 * c2 * (s1 + s2),
        "YX": -s2 ** 2 * s1 * c1 + sp * c2 * (s1 * s2 - c1 ** 2),
        "ZX": cp * (-s1 * c2 * sp + c1 * s2 ** 2 + s2 * c2 * sp),
        "IY": -s1 * c2 * sp ** 2 - s2 * c2 * cp ** 2 + c1 * s2 ** 2 * sp,
        "XY": -s1 ** 2 * s2 * c2 + sp * c1 * (s1 * s2 - c2 ** 2),
        "YY": s1 * c1 * s2 * c2 - sp * (c2 ** 2 * s1 + s2 * c1 ** 2),
        "ZY": s2 * (-s1 * sp * cp - c2 * c1 * cp + s2 * cp * sp),
        "IZ": c2 * cp,
        "XZ": cp * (-s2 * c1 * sp + c2 * s1 ** 2 + s1 * c1 * sp),
        "YZ": s1 * (-s2 * sp * cp - c1 * c2 * cp + s1 * cp * sp),
        "ZZ": c1 * c2,
    }
    return np.stack([a[label] for label in TWO_QUBIT_LABELS], axis=-1) / 4.0


def coefficients(phi12: PhaseFunction, points) -> np.ndarray:
    """(N, 16) closed-form coefficient vectors of the feature map at the points."""
    return closed_form_table(encoding_phases(phi12, points))


def coefficient_grids(phi12: PhaseFunction, pauli_indices, x_range=(-1.0, 1.0),
                      resolution: int = 101) -> list[np.ndarray]:
    """Grids of a_i(x) for each index i, sharing one sweep of feature states.

    Each grid samples a uniform resolution x resolution lattice over
    x_range x x_range, row-major with x2 descending down the rows and x1
    ascending along the columns, so printing a grid matches the usual
    heat-map orientation.  Values come from the simulator route (Pauli
    expectations of the feature states), not the closed forms.
    """
    indices = list(pauli_indices)
    for i in indices:
        if not 0 <= i < 16:
            raise ValueError(f"pauli index {i} out of range [0, 16)")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    lo, hi = float(x_range[0]), float(x_range[1])
    if not (lo < hi and np.isfinite(hi - lo)):  # also rejects NaN and infinities
        raise ValueError(f"range [{lo!r}, {hi!r}] is empty or not finite; "
                         "need finite minimum < maximum")
    x1s = np.linspace(lo, hi, resolution)
    x1, x2 = np.meshgrid(x1s, x1s[::-1])
    states = feature_states(phi12, np.stack([x1.ravel(), x2.ravel()], axis=1))
    coeffs = _simulated_coefficients(states, 2)
    return [coeffs[:, i].reshape(resolution, resolution) for i in indices]


def grid_to_csv(grid: np.ndarray, path) -> None:
    """One grid row per line, '.'-decimal, full round-trip precision."""
    with open(path, "w") as fh:
        for row in np.asarray(grid, dtype=float).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def grid_to_pgm(grid: np.ndarray, path) -> None:
    """8-bit PGM, min-max normalized per grid (flat grids render mid-gray)."""
    lo, hi = float(grid.min()), float(grid.max())
    if hi - lo < 1e-300:
        pixels = np.full(grid.shape, 128, dtype=np.uint8)
    else:
        pixels = np.round((grid - lo) / (hi - lo) * 255.0).astype(np.uint8)
    rows, cols = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
