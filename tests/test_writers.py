"""The text writers against verbatim copies of the earlier row-by-row writers.

Gram CSVs, model text and dataset CSVs are file formats.  The writers
format in batches (a Gram mirrors each upper-triangle string), so these
tests pin their bytes to the plain loops below for every input, including
caller arrays that are not symmetric or hold -0.0, NaN, infinities or
subnormals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qkmap.datasets import KINDS, generate, to_csv
from qkmap.encodings import builtin
from qkmap.kernels import GramMatrix, combine, gram
from qkmap.svm import LabeledDataset, SvmModel, train


def reference_gram_csv(self, path) -> None:
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


def reference_model_text(self) -> str:
    lines = [f"C={float(self.C)!r}", f"tolerance={float(self.tolerance)!r}",
             f"bias={float(self.bias)!r}"]
    for i, (a, y) in enumerate(zip(self.alphas, self.labels)):
        coords = ""
        if self.points is not None:
            coords = "," + ",".join(repr(float(v)) for v in self.points[i])
        lines.append(f"{float(a)!r},{int(y)}{coords}")
    return "\n".join(lines) + "\n"


def reference_dataset_csv(dataset: LabeledDataset, path) -> None:
    with open(path, "w") as fh:
        fh.write("x1,x2,label\n")
        for (x1, x2), y in zip(dataset.points, dataset.labels):
            fh.write(f"{float(x1)!r},{float(x2)!r},{int(y)}\n")


def assert_gram_bytes(g, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    g.to_csv(got)
    reference_gram_csv(g, want)
    assert got.read_bytes() == want.read_bytes()


def _nan_with_payload():
    return np.array([0x7FF8000000000123], dtype=np.uint64).view(float)[0]


def _caller_arrays():
    rng = np.random.default_rng(3)
    sym = rng.normal(size=(5, 5))
    sym = sym + sym.T
    signed_zero = sym.copy()
    signed_zero[1, 3], signed_zero[3, 1] = 0.0, -0.0
    nan = sym.copy()
    nan[0, 2] = nan[2, 0] = np.nan
    nan[4, 4] = np.nan
    nan_payloads = sym.copy()
    nan_payloads[1, 2], nan_payloads[2, 1] = np.nan, _nan_with_payload()
    nan_against_number = sym.copy()
    nan_against_number[3, 4] = np.nan
    infinities = sym.copy()
    infinities[0, 1] = infinities[1, 0] = np.inf
    infinities[2, 3], infinities[3, 2] = -np.inf, np.inf
    subnormal = sym.copy()
    subnormal[0, 4] = subnormal[4, 0] = 5e-324
    subnormal[1, 1] = -5e-324
    fortran = np.asfortranarray(rng.normal(size=(4, 4)))
    fortran.setflags(write=False)  # kept without a copy, so written in Fortran order
    return {
        "non_symmetric": rng.normal(size=(6, 6)),
        "symmetric": sym,
        "signed_zero_pair": signed_zero,
        "nan": nan,
        "nan_payloads": nan_payloads,
        "nan_against_number": nan_against_number,
        "infinities": infinities,
        "subnormal": subnormal,
        "one_by_one": np.array([[0.1]]),
        "one_by_one_nan": np.array([[np.nan]]),
        "empty": np.zeros((0, 0)),
        "fortran_read_only": fortran,
        "integers": np.arange(9).reshape(3, 3),
    }


class TestGramCsv:
    POINTS = generate("circle", 40, seed=7).points

    @pytest.mark.parametrize("method", ["exact", "pauli", "shots"])
    @pytest.mark.parametrize("eid", ["ef1", "ef3"])
    def test_route_grams_match_reference(self, tmp_path, method, eid):
        g = gram(builtin(eid), self.POINTS, method=method, shots=500, seed=4)
        assert_gram_bytes(g, tmp_path)

    def test_combined_gram_matches_reference(self, tmp_path):
        gs = [gram(builtin(eid), self.POINTS) for eid in ("ef1", "ef2", "ef5")]
        assert_gram_bytes(combine(gs, [0.5, 1.5, 1.0]), tmp_path)

    @pytest.mark.parametrize("name", sorted(_caller_arrays()))
    def test_caller_arrays_match_reference(self, tmp_path, name):
        assert_gram_bytes(GramMatrix(_caller_arrays()[name]), tmp_path)

    def test_symmetric_gram_writes_symmetric_file(self, tmp_path):
        g = gram(builtin("ef2"), self.POINTS, method="shots", shots=300, seed=1)
        path = tmp_path / "g.csv"
        g.to_csv(path)
        cells = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert cells == [list(col) for col in zip(*cells)]

    def test_signed_zero_pair_keeps_each_sign(self, tmp_path):
        path = tmp_path / "g.csv"
        GramMatrix(np.array([[1.0, 0.0], [-0.0, 1.0]])).to_csv(path)
        assert path.read_text().splitlines()[1:] == ["1.0,0.0", "-0.0,1.0"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 7).flatmap(lambda n: arrays(np.float64, (n, n))), st.booleans())
    def test_random_square_arrays_match_reference(self, tmp_path_factory, values, mirror):
        if mirror:  # most arrays here are symmetric, as every Gram is
            values = np.triu(values) + np.triu(values, 1).T
        assert_gram_bytes(GramMatrix(values), tmp_path_factory.mktemp("gram"))


class TestModelText:
    @pytest.mark.parametrize("with_points", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_trained_models_match_reference(self, kind, with_points):
        ds = generate(kind, 40, seed=7)
        model = train(gram(builtin("ef1"), ds.points), ds.labels, C=100.0,
                      points=ds.points if with_points else None)
        assert model.to_text() == reference_model_text(model)
        back = SvmModel.from_text(model.to_text())
        assert back.to_text() == reference_model_text(back)

    def test_caller_model_matches_reference(self):
        # lists, float32 alphas, float labels and integer points are converted as before
        model = SvmModel(np.array([0.1, 5e-324, -0.0], dtype=np.float32), 0.25,
                         [1.0, -1.0, 1.0], 1, 1e-3, points=[[1, 2], [3, 4], [-5, 0]])
        assert model.to_text() == reference_model_text(model)
        model = SvmModel([0.5, 1e300], np.float64(-0.0), np.array([-1, 1]), np.inf, 0.1)
        assert model.to_text() == reference_model_text(model)


class TestDatasetCsv:
    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_datasets_match_reference(self, tmp_path, kind):
        ds = generate(kind, 60, seed=1)
        to_csv(ds, tmp_path / "got.csv")
        reference_dataset_csv(ds, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_edge_values_match_reference(self, tmp_path):
        ds = LabeledDataset([[5e-324, -0.0], [1e308, -1e-300], [0.1, 2]], [1, -1, 1])
        to_csv(ds, tmp_path / "got.csv")
        reference_dataset_csv(ds, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_empty_dataset_matches_reference(self, tmp_path):
        ds = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        to_csv(ds, tmp_path / "got.csv")
        reference_dataset_csv(ds, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_text() == "x1,x2,label\n"
