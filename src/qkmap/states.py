"""Minimal pure-state simulator for the phase-encoding circuit family.

A state is a plain complex array whose last axis holds the 2**n
amplitudes; leading axes batch over states.

Convention: qubit 1 is the least-significant bit of the amplitude index,
and the leftmost letter in Pauli labels (so "ZI" acts on qubit 1).
"""

from __future__ import annotations

import numpy as np

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


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
