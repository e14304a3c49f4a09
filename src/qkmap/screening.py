"""Per-axis accuracy and the minimum-accuracy screening statistic.

Each Pauli axis i turns the training set into 1-d values a_i(x_k); the
axis accuracy R_i is the best single-threshold classification accuracy on
those values, and the screening statistic is max_i R_i.  It lower-bounds
(up to soft-margin effects) the training accuracy any feature-space linear
classifier can reach, since an axis threshold is itself such a classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encodings import PhaseFunction
from .pauli import _labels, coefficients, pauli_label

LEFT_POSITIVE = "left-positive"
LEFT_NEGATIVE = "left-negative"


@dataclass(frozen=True)
class AxisAccuracyReport:
    """Screening result over all 16 two-qubit Pauli axes."""

    axis_accuracies: tuple
    minimum_accuracy: float
    best_axis: int
    best_threshold: float
    best_orientation: str

    @property
    def best_axis_label(self) -> str:
        return pauli_label(self.best_axis)

    def to_csv(self) -> str:
        lines = ["axis,accuracy,threshold,orientation"]
        for i, (r, thr, orient) in enumerate(self.axis_accuracies):
            lines.append(f"{pauli_label(i)},{r!r},{thr!r},{orient}")
        return "\n".join(lines) + "\n"


def axis_accuracy(values, labels) -> tuple[float, float, str]:
    """Best single-threshold accuracy on a 1-d value sequence.

    Candidate thresholds are the midpoints between consecutive distinct
    sorted values plus one below the minimum (the all-one-side split);
    both orientations (left side positive or negative) are tried.  Ties
    in value always fall on the same side of any threshold; a midpoint whose
    sum overflows is a/2 + b/2.  The values must be finite and 1-d, with one
    label each, exactly -1 or +1 (bool, int or float).
    """
    v = np.asarray(values, dtype=float)
    y = _labels(labels)
    if v.ndim != 1 or y.shape != v.shape:
        raise ValueError(f"values and labels must be 1-d and of one length, got shapes "
                         f"{v.shape} and {y.shape}")
    n = len(v)
    if n < 1:
        raise ValueError("at least one value required")
    order = np.argsort(v)  # no stable sort: cuts fall between distinct values only
    v_sorted = v[order]
    if not (math.isfinite(v_sorted[0]) and math.isfinite(v_sorted[-1])):  # -inf first, NaN last
        raise ValueError("values must be finite")
    y_sorted = y[order]
    pos_prefix = np.concatenate(([0], np.cumsum(y_sorted == 1)))
    n_pos = int(pos_prefix[-1])
    n_neg = n - n_pos

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
        a, b = float(v_sorted[best_t - 1]), float(v_sorted[best_t])
        threshold = (a + b) / 2.0 if math.isfinite(a + b) else a / 2.0 + b / 2.0
    return best_correct / n, threshold, best_orient


def minimum_accuracy(dataset, phi12: PhaseFunction) -> AxisAccuracyReport:
    """Screen all 16 axes of the coefficient vectors of a labeled dataset.

    best_axis is the axis with the highest R; exact ties go to the highest
    Pauli index, so degenerate axes sharing the majority-class accuracy
    (II is constant) never mask an informative one.
    """
    if len(dataset) < 1:
        raise ValueError("dataset must be nonempty")
    coeffs = coefficients(phi12, dataset.points)
    per_axis = []
    for i in range(16):
        per_axis.append(axis_accuracy(coeffs[:, i], dataset.labels))
    best = max(range(16), key=lambda i: (per_axis[i][0], i))
    r, thr, orient = per_axis[best]
    return AxisAccuracyReport(tuple(per_axis), r, best, thr, orient)

