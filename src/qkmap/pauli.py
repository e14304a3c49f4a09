"""The analytic Pauli picture of the two-qubit feature states.

A pure two-qubit density matrix expands as rho = sum_i a_i sigma_i over
the 16 two-qubit Pauli operators; the real vector a is the feature-space
image used throughout the toolkit.  Index order: i = d_1 + 4 d_2 with
d_k in {I:0, X:1, Y:2, Z:3} the letter on qubit k, so the qubit-1 letter
varies fastest (II, XI, YI, ZI, IX, XX, ...).  Every coefficient here,
at points and on heat-map grids, comes from the closed forms in the
three phases; the simulated states live in :mod:`qkmap.kernels`.
"""

from __future__ import annotations

import operator

import numpy as np

from .encodings import PhaseFunction, encoding_phases

_LETTERS = "IXYZ"

TWO_QUBIT_LABELS = tuple(q1 + q2 for q2 in _LETTERS for q1 in _LETTERS)


def _integer(value, what: str) -> int:
    """The package's one integer rule, for sizes, indices, folds, shots and seeds."""
    try:
        return operator.index(value)
    except TypeError:  # an index 1.0 would pass the range check, then fail to index
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _seed(value) -> int:
    """A library seed: None would draw OS entropy, and numpy's own errors name no seed."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _labels(labels) -> np.ndarray:
    """The package's one label rule, checked before any cast could make 1.9, "1" or 1+0j a 1."""
    y = np.asarray(labels)
    if y.dtype.kind not in "biuf" or not np.all((y == 1) | (y == -1)):  # bool, int or float
        raise ValueError("labels must be -1 or +1")
    return y


def _index(value) -> int:
    index = _integer(value, "pauli index")
    if not 0 <= index < 16:
        raise ValueError(f"pauli index {index} out of range [0, 16)")
    return index


def pauli_label(index: int) -> str:
    """Label for a coefficient index, qubit-1 letter leftmost (e.g. 7 -> "ZX")."""
    return TWO_QUBIT_LABELS[_index(index)]


def pauli_index(label: str) -> int:
    """Inverse of :func:`pauli_label`; rejects anything but two letters of IXYZ."""
    if label.upper() not in TWO_QUBIT_LABELS:
        raise ValueError(f"invalid Pauli label {label!r}; "
                         f"expected one of: {', '.join(TWO_QUBIT_LABELS)}")
    return TWO_QUBIT_LABELS.index(label.upper())


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
    """Grids of a_i(x) for each index i, from one closed-form sweep of the lattice.

    Each grid samples a uniform resolution x resolution lattice over
    x_range x x_range, row-major with x2 descending down the rows and x1
    ascending along the columns, so printing a grid matches the usual
    heat-map orientation.  Values are :func:`coefficients` at the lattice
    points, so the II grid is exactly 1/4.
    """
    indices = [_index(i) for i in pauli_indices]
    resolution = _integer(resolution, "resolution")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    lo, hi = float(x_range[0]), float(x_range[1])
    if not (lo < hi and np.isfinite(hi - lo)):  # also rejects NaN and infinities
        raise ValueError(f"range [{lo!r}, {hi!r}] is empty or not finite; "
                         "need finite minimum < maximum")
    x1s = np.linspace(lo, hi, resolution)
    x1, x2 = np.meshgrid(x1s, x1s[::-1])
    coeffs = coefficients(phi12, np.stack([x1.ravel(), x2.ravel()], axis=1))
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
