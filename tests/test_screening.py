import re
import time

import numpy as np
import pytest

from qkmap.datasets import generate
from qkmap.encodings import BUILTIN_IDS, builtin
from qkmap.pauli import closed_form_table, pauli_index
from qkmap.screening import (
    LEFT_NEGATIVE,
    LEFT_POSITIVE,
    axis_accuracy,
    minimum_accuracy,
)
from qkmap.svm import LabeledDataset


def exhaustive_axis_accuracy(values, labels):
    """Independent oracle: try every threshold/orientation by direct counting.

    Returns (accuracy, threshold, orientation) of the first best candidate,
    scanning thresholds upward and left-positive before left-negative.
    """
    v = np.asarray(values, dtype=float)
    y = np.asarray(labels, dtype=int)
    distinct = np.unique(v)
    thresholds = [distinct[0] - 1.0]
    thresholds += [(a + b) / 2 for a, b in zip(distinct[:-1], distinct[1:])]
    best = (-1, None, None)
    for thr in thresholds:
        left = v < thr
        correct_lp = np.sum((left & (y == 1)) | (~left & (y == -1)))
        correct_ln = np.sum((left & (y == -1)) | (~left & (y == 1)))
        for correct, orient in ((correct_lp, LEFT_POSITIVE), (correct_ln, LEFT_NEGATIVE)):
            if correct > best[0]:
                best = (correct, float(thr), orient)
    return best[0] / len(v), best[1], best[2]


class TestAxisAccuracy:
    def test_perfectly_separated(self):
        r, thr, orient = axis_accuracy([1, 2, 3, 4], [1, 1, -1, -1])
        assert r == 1.0
        assert thr == 2.5
        assert orient == LEFT_POSITIVE

    def test_alternating_labels(self):
        r, _, _ = axis_accuracy([1, 2, 3, 4], [1, -1, 1, -1])
        assert r == 0.75
        assert exhaustive_axis_accuracy([1, 2, 3, 4], [1, -1, 1, -1])[0] == 0.75

    def test_constant_values_majority(self):
        labels = [1] * 6 + [-1] * 4
        r, _, _ = axis_accuracy([0.5] * 10, labels)
        assert r == 0.6

    def test_caption_style_example(self):
        # balanced 10-point sequence whose best threshold reaches 0.7 while a
        # middle split scores only 0.5, mirroring the worked line-search figure
        values = list(range(1, 11))
        labels = [1, 1, -1, 1, -1, -1, 1, -1, 1, -1]
        r, thr, _ = axis_accuracy(values, labels)
        assert r == 0.7
        # the split after the first six points classifies only half correctly
        left = np.array(values) < 6.5
        correct = np.sum((left & (np.array(labels) == 1))
                         | (~left & (np.array(labels) == -1)))
        assert correct / 10 == 0.5

    def test_matches_exhaustive_oracle_random(self):
        # few distinct values, so most samples have tied values; threshold
        # and orientation must follow the oracle's tie-break as well
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = rng.integers(1, 30)
            values = rng.choice([-1.0, -0.25, 0.0, 0.4, 1.0], size=n)
            labels = rng.choice([-1, 1], size=n)
            assert axis_accuracy(values, labels) == exhaustive_axis_accuracy(values, labels)
        for labels in ([1] * 6 + [-1] * 4, [-1] * 5 + [1] * 5, [1, 1, 1]):
            values = np.full(len(labels), 0.25)  # a constant column
            assert axis_accuracy(values, labels) == exhaustive_axis_accuracy(values, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=25)
        labels = rng.choice([-1, 1], size=25)
        r1, _, _ = axis_accuracy(values, labels)
        r2, _, _ = axis_accuracy(np.exp(3 * values) + 7, labels)
        assert r1 == r2

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=20)
        labels = rng.choice([-1, 1], size=20)
        r1, _, o1 = axis_accuracy(values, labels)
        r2, _, o2 = axis_accuracy(values, -labels)
        assert r1 == r2
        assert o1 != o2 or r1 in (0.5, 1.0)

    def test_ties_fall_on_same_side(self):
        # two tied values with different labels cannot be separated
        r, _, _ = axis_accuracy([0.0, 0.0], [1, -1])
        assert r == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            axis_accuracy([], [])

    @pytest.mark.parametrize("values, labels, message", [
        # the first two labels were read and the third ignored
        ([0.1, 0.2], [1, -1, 1], "1-d and of one length, got shapes (2,) and (3,)"),
        ([0.1, 0.2, 0.3], [1, -1], "1-d and of one length, got shapes (3,) and (2,)"),
        ([[0.1, 0.2]], [[1, -1]], "1-d and of one length, got shapes (1, 2) and (1, 2)"),
        # a NaN sorted last and scored 1.0; infinities gave infinite thresholds
        ([np.nan, 1.0, 2.0], [1, -1, 1], "values must be finite"),
        ([1.0, np.inf, 2.0], [1, -1, 1], "values must be finite"),
        ([1.0, -np.inf, 2.0], [1, -1, 1], "values must be finite"),
        # 0 counted as -1, and 1.9 was cast to 1
        ([1.0, 2.0, 3.0], [1, 0, -1], "labels must be -1 or +1"),
        ([1.0, 2.0], [1.9, -1.0], "labels must be -1 or +1"),
        ([1.0, 2.0], [1.0, np.nan], "labels must be -1 or +1"),
    ], ids=["short-labels", "short-values", "2-d", "nan", "inf", "-inf", "zero-label",
            "fractional-label", "nan-label"])
    def test_malformed_input_rejected(self, values, labels, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            axis_accuracy(values, labels)

    def test_float_labels_at_plus_minus_one_accepted(self):
        assert axis_accuracy([1, 2, 3], [1.0, -1.0, -1.0]) == axis_accuracy([1, 2, 3], [1, -1, -1])


class TestMinimumAccuracy:
    def test_circle_all_builtins(self):
        ds = generate("circle", 100, seed=7)
        for eid in BUILTIN_IDS:
            report = minimum_accuracy(ds, builtin(eid))
            assert report.minimum_accuracy >= 0.95
            assert report.best_axis_label == "ZZ"

    def test_maximum_over_axes(self):
        ds = generate("moon", 60, seed=3)
        report = minimum_accuracy(ds, builtin("ef3"))
        per_axis = [r for r, _, _ in report.axis_accuracies]
        assert report.minimum_accuracy == max(per_axis)
        assert report.axis_accuracies[report.best_axis][0] == report.minimum_accuracy

    def test_identity_axis_majority_fraction(self):
        ds = generate("exp", 80, seed=5)
        report = minimum_accuracy(ds, builtin("ef1"))
        r_ii = report.axis_accuracies[0][0]
        balance = np.mean(ds.labels == 1)
        assert r_ii == max(balance, 1 - balance)

    def test_every_axis_at_least_majority(self):
        ds = generate("xor", 50, seed=9)
        balance = np.mean(ds.labels == 1)
        report = minimum_accuracy(ds, builtin("ef4"))
        for r, _, _ in report.axis_accuracies:
            assert r >= max(balance, 1 - balance)
            assert r <= 1.0

    def test_four_point_hand_dataset(self):
        pts = np.array([(0.0, 0.0), (0.5, 0.5), (-0.5, 0.5), (0.8, -0.8)])
        labels = np.array([1, 1, -1, -1])
        ds = LabeledDataset(pts, labels)
        spec = builtin("ef1")
        report = minimum_accuracy(ds, spec)
        # independent route: closed forms + exhaustive threshold search
        from qkmap.encodings import eval_encoding

        coeffs = closed_form_table([eval_encoding(spec, p) for p in pts])
        for i in range(16):
            want = exhaustive_axis_accuracy(coeffs[:, i], labels)
            assert report.axis_accuracies[i][0] == want[0]

    def test_empty_dataset_rejected(self):
        ds = generate("circle", 4, seed=0)
        empty = LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            minimum_accuracy(empty, builtin("ef1"))
        del ds

    def test_runs_fast(self):
        ds = generate("moon", 100, seed=1)
        spec = builtin("ef2")
        minimum_accuracy(ds, spec)  # warm caches
        t0 = time.perf_counter()
        minimum_accuracy(ds, spec)
        assert time.perf_counter() - t0 < 0.25

    def test_csv_shape(self):
        ds = generate("circle", 20, seed=2)
        report = minimum_accuracy(ds, builtin("ef5"))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "axis,accuracy,threshold,orientation"
        assert len(lines) == 17
        assert lines[1].startswith("II,")

