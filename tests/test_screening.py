import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkmap.datasets import KINDS, generate
from qkmap.encodings import BUILTIN_IDS, builtin
from qkmap.pauli import closed_form_table, coefficients, pauli_index
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


def reference_axis_accuracy(values, labels):
    """``axis_accuracy`` as it was with a stable sort, kept verbatim."""
    v = np.asarray(values, dtype=float)
    y = np.asarray(labels)
    if v.ndim != 1 or y.shape != v.shape:
        raise ValueError(f"values and labels must be 1-d and of one length, got shapes "
                         f"{v.shape} and {y.shape}")
    n = len(v)
    if n < 1:
        raise ValueError("at least one value required")
    order = np.argsort(v, kind="stable")
    v_sorted = v[order]
    if not (math.isfinite(v_sorted[0]) and math.isfinite(v_sorted[-1])):  # -inf first, NaN last
        raise ValueError("values must be finite")
    y_sorted = y[order]
    pos_prefix = np.concatenate(([0], np.cumsum(y_sorted == 1)))
    n_pos = int(pos_prefix[-1])
    n_neg = int(np.count_nonzero(y == -1))
    if n_pos + n_neg != n:
        raise ValueError("labels must be -1 or +1")

    # split after t sorted points; t=0 is the below-minimum threshold
    cuts = np.concatenate(([0], np.flatnonzero(v_sorted[1:] > v_sorted[:-1]) + 1))
    pos, neg = pos_prefix[cuts], cuts - pos_prefix[cuts]
    # candidates ordered by cut, left-positive before left-negative, so the
    # first maximum is the same tie-break as a strict-improvement scan
    correct = np.stack([pos + (n_neg - neg), neg + (n_pos - pos)], axis=1).ravel()
    best = int(np.argmax(correct))
    best_correct = int(correct[best])
    best_t = int(cuts[best // 2])
    best_orient = (LEFT_POSITIVE, LEFT_NEGATIVE)[best % 2]
    if best_t == 0:
        threshold = float(v_sorted[0] - 1.0)
    else:
        threshold = float((v_sorted[best_t - 1] + v_sorted[best_t]) / 2.0)
    return best_correct / n, threshold, best_orient


# tie-heavy values: signed zeros and subnormals, tiny values of both signs, repeats
TIED_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-17, -1e-17, 5e-324, -5e-324, 0.25, -0.25, 1.0, -1.0]),
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False))


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

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(TIED_VALUES, st.sampled_from([-1, 1])), min_size=1, max_size=200))
    def test_matches_stable_sort_reference(self, rows):
        # the order within a group of tied values must not reach the report,
        # signed zeros included: thresholds are compared by repr
        values, labels = (np.array(col) for col in zip(*rows))
        assert repr(axis_accuracy(values, labels)) == repr(reference_axis_accuracy(values, labels))

    def test_matches_stable_sort_reference_on_every_screen_axis(self):
        for kind in KINDS:
            ds = generate(kind, 1600, seed=7)
            for eid in BUILTIN_IDS:
                coeffs = coefficients(builtin(eid), ds.points)
                for i in range(16):
                    got = axis_accuracy(coeffs[:, i], ds.labels)
                    assert repr(got) == repr(reference_axis_accuracy(coeffs[:, i], ds.labels))

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
        from qkmap.encodings import encoding_phases

        coeffs = closed_form_table(encoding_phases(spec, pts))
        for i in range(16):
            want = exhaustive_axis_accuracy(coeffs[:, i], labels)
            assert report.axis_accuracies[i][0] == want[0]

    def test_empty_dataset_rejected(self):
        ds = generate("circle", 4, seed=0)
        empty = LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            minimum_accuracy(empty, builtin("ef1"))
        del ds

    def test_one_point_dataset(self):
        # one point is the smallest screen: every axis classifies it, and the tie goes
        # to the highest Pauli index, ZZ
        report = minimum_accuracy(LabeledDataset([(0.3, -0.2)], [-1]), builtin("ef1"))
        assert report.minimum_accuracy == 1.0
        assert report.best_axis_label == "ZZ"
        assert [r for r, _, _ in report.axis_accuracies] == [1.0] * 16

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

