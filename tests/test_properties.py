"""Hypothesis properties of the batched core, the kernel routes and the file formats."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qkmap.datasets import from_csv, to_csv
from qkmap.encodings import BUILTIN_IDS, builtin, encoding_phases, feature_states, phase_states
from qkmap.kernels import gram
from qkmap.pauli import coefficients
from qkmap.svm import LabeledDataset, SvmModel, train

coords = st.floats(-1.0, 1.0, allow_nan=False)
specs = st.sampled_from(BUILTIN_IDS).map(builtin)

HH = np.kron(*[np.array([[1, 1], [1, -1]]) / np.sqrt(2)] * 2)
Z1 = np.array([1.0, -1.0, 1.0, -1.0])  # qubit 1 is the least-significant bit
Z2 = np.array([1.0, 1.0, -1.0, -1.0])


# the 16 dense two-qubit Paulis in index order, qubit 1 the right kron factor
_SINGLE = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0])]
PAULIS = np.array([np.kron(q2, q1) for q2 in _SINGLE for q1 in _SINGLE])


def dense_feature_unitary(p1, p2, p12):
    d = np.diag(np.exp(-0.5j * (p1 * Z1 + p2 * Z2 + p12 * Z1 * Z2)))
    return d @ HH @ d @ HH


# Reference copy of the earlier n-qubit simulator layers and the circuit
# built on them: the byte oracle for phase_states.
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


def reference_phase_states(phases) -> np.ndarray:
    p = -0.5 * np.asarray(phases, dtype=float)
    amps = np.zeros(p.shape[:-1] + (4,), dtype=np.complex128)
    amps[..., 0] = 1.0
    for _ in range(2):
        amps = phase_layer(hadamard_layer(amps), [p[..., 0], p[..., 1]], {(1, 2): p[..., 2]})
    return amps


# up to 300 phase rows, or one (3,) row; magnitudes up to 1e6, zeros of both signs
phase_values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
phase_rows = st.one_of(st.just((3,)), st.integers(1, 300).map(lambda n: (n, 3))).flatmap(
    lambda shape: arrays(np.float64, shape, elements=phase_values, fill=st.nothing()))


@st.composite
def point_sets(draw, max_size=12):
    """(N, 2) points in [-1, 1]^2, N >= 1."""
    n = draw(st.integers(1, max_size))
    return np.array(draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n)))


@st.composite
def normalised_states(draw):
    """A random normalised (4,) amplitude array."""
    parts = draw(st.lists(coords, min_size=8, max_size=8))
    amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return amps / norm


@st.composite
def datasets(draw):
    """Labelled points; from two points on, both classes are present."""
    pts = draw(point_sets(max_size=30))
    labels = np.array(draw(st.lists(st.sampled_from([-1, 1]),
                                    min_size=len(pts), max_size=len(pts))))
    if len(labels) > 1 and len(np.unique(labels)) < 2:
        labels[0] = -labels[1]
    return LabeledDataset(pts, labels)


class TestPhaseStatesBytes:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(phase_rows)
    def test_matches_earlier_layers(self, phases):
        got, want = phase_states(phases), reference_phase_states(phases)
        assert got.shape == want.shape == phases.shape[:-1] + (4,)
        assert got.tobytes() == want.tobytes()

    def test_matches_earlier_layers_past_elision_size(self):
        # from 4096 rows numpy multiplies into the exponential's temporary; only
        # the product a * np.exp(...) keeps the earlier bytes on both sides of that
        rng = np.random.default_rng(22)
        for n in (4095, 4096, 20000):
            phases = rng.uniform(-1e3, 1e3, (n, 3))
            assert phase_states(phases).tobytes() == reference_phase_states(phases).tobytes()


class TestBatchedEqualsScalar:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(specs, point_sets())
    def test_states_and_coefficients(self, spec, pts):
        states, coeffs = feature_states(spec, pts), coefficients(spec, pts)
        for x, state, coeff in zip(pts, states, coeffs):
            assert feature_states(spec, [x])[0].tobytes() == state.tobytes()
            assert coefficients(spec, [x])[0].tobytes() == coeff.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(specs, point_sets(max_size=8))
    def test_exact_gram_matches_kernel_exact(self, spec, pts):
        # the per-pair oracle: |<00| U(x)^dagger U(z) |00>|^2 from dense 4x4 circuits
        k = gram(spec, pts).values
        states = [dense_feature_unitary(*p)[:, 0] for p in encoding_phases(spec, pts)]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                assert abs(k[i, j] - abs(np.vdot(a, b)) ** 2) <= 1e-12


class TestPurity:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(normalised_states())
    def test_decompose_identity_coefficient_and_purity(self, amps):
        # <psi|sigma_i|psi> / 4 from the dense Paulis
        vec = np.einsum("b,kbc,c->k", amps.conj(), PAULIS, amps).real / 4
        assert abs(vec[0] - 0.25) <= 1e-12
        assert abs(np.sum(vec ** 2) - 0.25) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(specs, point_sets())
    def test_closed_form_coefficients(self, spec, pts):
        coeffs = coefficients(spec, pts)
        assert np.all(coeffs[:, 0] == 0.25)
        assert np.max(np.abs(np.sum(coeffs ** 2, axis=1) - 0.25)) <= 1e-12


class TestKernelRoutes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(specs, point_sets())
    def test_pauli_equals_exact(self, spec, pts):
        diff = gram(spec, pts, method="pauli").values - gram(spec, pts).values
        assert np.max(np.abs(diff)) <= 1e-10


class TestRoundTrips:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(datasets())
    def test_dataset_csv(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.csv"
            to_csv(ds, path)
            back = from_csv(path)
        assert back.points.tobytes() == ds.points.tobytes()
        assert back.labels.tolist() == ds.labels.tolist()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(specs, point_sets(), st.sampled_from(["exact", "pauli", "shots"]),
           st.integers(0, 2 ** 32 - 1))
    def test_gram_csv(self, spec, pts, method, seed):
        g = gram(spec, pts, method=method, shots=100, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gram.csv"
            g.to_csv(path)
            back = np.loadtxt(path, delimiter=",", ndmin=2)
        assert back.tobytes() == g.values.tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(specs, datasets(), st.sampled_from([0.5, 1.0, 100.0]), st.booleans())
    def test_model_text(self, spec, ds, c, with_points):
        assume(len(ds) > 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = train(gram(spec, ds.points), ds.labels, C=c,
                          points=ds.points if with_points else None)
        back = SvmModel.from_text(model.to_text())
        assert back.alphas.tobytes() == model.alphas.tobytes()
        assert back.labels.tolist() == model.labels.tolist()
        assert (back.bias, back.C, back.tolerance) == (model.bias, model.C, model.tolerance)
        if with_points:
            assert back.points.tobytes() == model.points.tobytes()
        else:
            assert back.points is None
        assert back.to_text() == model.to_text()
