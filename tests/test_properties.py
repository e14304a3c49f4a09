"""Hypothesis properties of the batched core, the kernel routes and the file formats."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkmap.datasets import from_csv, to_csv
from qkmap.encodings import BUILTIN_IDS, builtin, eval_encoding, feature_states
from qkmap.kernels import gram
from qkmap.pauli import coefficients, decompose
from qkmap.svm import LabeledDataset, SvmModel, train

coords = st.floats(-1.0, 1.0, allow_nan=False)
specs = st.sampled_from(BUILTIN_IDS).map(builtin)

HH = np.kron(*[np.array([[1, 1], [1, -1]]) / np.sqrt(2)] * 2)
Z1 = np.array([1.0, -1.0, 1.0, -1.0])  # qubit 1 is the least-significant bit
Z2 = np.array([1.0, 1.0, -1.0, -1.0])


def dense_feature_unitary(p1, p2, p12):
    d = np.diag(np.exp(-0.5j * (p1 * Z1 + p2 * Z2 + p12 * Z1 * Z2)))
    return d @ HH @ d @ HH


@st.composite
def point_sets(draw, max_size=12):
    """(N, 2) points in [-1, 1]^2, N >= 1."""
    n = draw(st.integers(1, max_size))
    return np.array(draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n)))


@st.composite
def normalised_states(draw):
    """A random normalised (2**n,) amplitude array, n = 1..3."""
    dim = 2 ** draw(st.integers(1, 3))
    parts = draw(st.lists(coords, min_size=2 * dim, max_size=2 * dim))
    amps = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
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
        states = [dense_feature_unitary(*eval_encoding(spec, x))[:, 0] for x in pts]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                assert abs(k[i, j] - abs(np.vdot(a, b)) ** 2) <= 1e-12


class TestPurity:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(normalised_states())
    def test_decompose_identity_coefficient_and_purity(self, amps):
        vec = decompose(amps)
        scale = 1.0 / len(amps)
        assert abs(vec[0] - scale) <= 1e-12
        assert abs(np.sum(vec ** 2) - scale) <= 1e-12

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
