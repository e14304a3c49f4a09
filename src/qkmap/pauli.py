"""Real-vector representation of feature states via Pauli coefficients.

A pure two-qubit density matrix expands as rho = sum_i a_i sigma_i over
the 16 two-qubit Pauli operators; the real vector a is the feature-space
image used throughout the toolkit.  Index order: i = d_1 + 4 d_2 with
d_k in {I:0, X:1, Y:2, Z:3} the letter on qubit k, so the qubit-1 letter
varies fastest (II, XI, YI, ZI, IX, XX, ...).
"""

from __future__ import annotations

import functools

import numpy as np

from .encodings import PhaseFunction, encoding_phases, feature_states

_LETTERS = "IXYZ"
_SINGLE = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128)

TWO_QUBIT_LABELS = tuple(q1 + q2 for q2 in _LETTERS for q1 in _LETTERS)


def pauli_label(index: int) -> str:
    """Label for a coefficient index, qubit-1 letter leftmost (e.g. 7 -> "ZX")."""
    if not 0 <= index < 16:
        raise ValueError(f"pauli index {index} out of range [0, 16)")
    return TWO_QUBIT_LABELS[index]


def pauli_index(label: str) -> int:
    """Inverse of :func:`pauli_label`; rejects anything but two letters of IXYZ."""
    if label.upper() not in TWO_QUBIT_LABELS:
        raise ValueError(f"invalid Pauli label {label!r}; "
                         f"expected one of: {', '.join(TWO_QUBIT_LABELS)}")
    return TWO_QUBIT_LABELS.index(label.upper())


def pauli_matrix(index: int) -> np.ndarray:
    """Dense 4 x 4 matrix of sigma_index; qubit 1 is the right factor."""
    m = np.ones((1, 1), dtype=np.complex128)
    for letter in pauli_label(index):  # from [[1]]: the product sets the signs of zeros
        m = np.kron(_SINGLE[_LETTERS.index(letter)], m)
    return m


def _density_reals(states) -> np.ndarray:
    """(N, 32) rows F of Re and Im of each |psi><psi| of (N, 4) states.

    Every simulator-side quantity is F times a real matrix: the exact Gram
    F F^T, the Pauli coefficients F @ _pauli_map().
    """
    s = np.asarray(states, dtype=np.complex128)
    return (s[:, :, None] * s[:, None, :].conj()).reshape(len(s), -1).view(float)


@functools.cache
def _pauli_map() -> np.ndarray:
    """Real (32, 16) map M: tr(rho sigma_i) / 4 is (reals of rho) @ M[:, i].

    tr(rho sigma) of Hermitian rho, sigma is the dot product of their reals.
    Built on first use, so importing the package does not pay for it.
    """
    paulis = np.array([pauli_matrix(i).ravel() for i in range(16)])
    m = paulis.view(float).T / 4
    m.setflags(write=False)
    return m


def decompose(amps) -> np.ndarray:
    """All 16 coefficients a_i = <psi|sigma_i|psi> / 4 of one two-qubit state.

    ``amps`` is a (4,) amplitude vector whose norm must be 1 within 1e-9.
    Returns a read-only (16,) array in the module's index order.
    """
    a = np.asarray(amps, dtype=np.complex128)
    if a.shape != (4,):
        raise ValueError(f"expected 4 amplitudes, got shape {a.shape}")
    norm = np.linalg.norm(a)
    if not abs(norm - 1.0) <= 1e-9:  # also rejects NaN
        raise ValueError(f"state not normalized: |psi| = {float(norm)!r}")
    coeffs = (_density_reals(a[None]) @ _pauli_map())[0]
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
    heat-map orientation.  Values come from the simulator (the feature
    states' density reals times the Pauli map), not the closed forms.
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
    coeffs = _density_reals(states) @ _pauli_map()
    return [coeffs[:, i].reshape(resolution, resolution) for i in indices]


def grid_to_csv(grid: np.ndarray, path) -> None:
    """One grid row per line, '.'-decimal, full round-trip precision."""
    with open(path, "w") as fh:
        for row in np.asarray(grid, dtype=float).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def grid_to_pgm(grid: np.ndarray, path) -> None:
    """8-bit PGM, min-max normalized per grid; flat grids render mid-gray.

    A span within 1e-12 of the largest magnitude is flat: round-off noise.
    """
    lo, hi = float(grid.min()), float(grid.max())
    if hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
        pixels = np.full(grid.shape, 128, dtype=np.uint8)
    else:
        pixels = np.round((grid - lo) / (hi - lo) * 255.0).astype(np.uint8)
    rows, cols = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
