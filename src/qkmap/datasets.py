"""Seeded generators for the four benchmark datasets on [-1, 1]^2, named in ``KINDS``.

The published benchmarks exist only as scatter plots, so these are
documented reconstructions: each boundary carries a small margin band so
the classes are cleanly separable.  The shape constants are below.
"""

from __future__ import annotations

import math

import numpy as np

from .svm import LabeledDataset

_MAX_DRAWS = 10 ** 6

MARGIN = 0.05  # half-width of the empty band around every class boundary
CIRCLE_RADIUS = 0.6
EXP_SCALE = 0.4  # exp boundary: x2 = EXP_SCALE * exp(EXP_RATE * x1) + EXP_OFFSET
EXP_RATE = 2.0
EXP_OFFSET = -0.6
MOON_RADIUS = 0.7
MOON_WIDTH = 0.25
MOON_X_OFFSET = 0.35
MOON_Y_OFFSET = 0.35


def _balanced_rejection(rng, n_points, draw):
    """Draws kept until each class holds n/2 points, then shuffled.

    ``draw(rng, next_label)`` returns a point and its label, or None to
    reject it; ``next_label`` is the first class still short of n/2.
    """
    per_class = n_points // 2
    kept = {1: [], -1: []}
    for _ in range(_MAX_DRAWS):
        if len(kept[1]) == per_class and len(kept[-1]) == per_class:
            break
        x, label = draw(rng, 1 if len(kept[1]) < per_class else -1)
        if label is not None and len(kept[label]) < per_class:
            kept[label].append(x)
    else:
        raise RuntimeError("rejection sampling exceeded the draw budget")
    points = np.array(kept[1] + kept[-1])
    labels = np.array([1] * per_class + [-1] * per_class)
    order = rng.permutation(n_points)
    return LabeledDataset(points[order], labels[order])


def _uniform(labeler):
    """Draw function for uniform points on [-1,1]^2 labelled by ``labeler``."""
    def draw(rng, next_label):
        x = rng.uniform(-1.0, 1.0, 2)
        return x, labeler(x)

    return draw


def _circle(x):
    r = float(np.linalg.norm(x))
    if abs(r - CIRCLE_RADIUS) <= MARGIN:
        return None
    return 1 if r < CIRCLE_RADIUS else -1


def _exp(x):
    boundary = EXP_SCALE * np.exp(EXP_RATE * x[0]) + EXP_OFFSET
    if abs(x[1] - boundary) <= MARGIN:
        return None
    return 1 if x[1] > boundary else -1


def _xor(x):
    prod = x[0] * x[1]
    if abs(prod) <= MARGIN:
        return None
    return 1 if prod > 0 else -1


def _moon(rng, label):
    """Two interleaved half-annuli; points outside the square are redrawn."""
    theta = rng.uniform(0.0, np.pi)
    radius = MOON_RADIUS + rng.uniform(-0.5, 0.5) * MOON_WIDTH
    if label == 1:
        x = (radius * np.cos(theta) - MOON_X_OFFSET, radius * np.sin(theta) - MOON_Y_OFFSET)
    else:
        x = (radius * np.cos(theta) + MOON_X_OFFSET, -radius * np.sin(theta) + MOON_Y_OFFSET)
    return x, label if abs(x[0]) <= 1.0 and abs(x[1]) <= 1.0 else None


_GENERATORS = {"circle": _uniform(_circle), "exp": _uniform(_exp), "moon": _moon,
               "xor": _uniform(_xor)}

KINDS = tuple(_GENERATORS)


def generate(kind: str, n_points: int = 100, seed: int = 0) -> LabeledDataset:
    """Deterministic balanced dataset of the given kind (one of ``KINDS``)."""
    key = kind.lower()
    if key not in _GENERATORS:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {KINDS}")
    if n_points < 2 or n_points % 2 != 0:
        raise ValueError("n_points must be an even number >= 2")
    rng = np.random.default_rng(seed)
    return _balanced_rejection(rng, n_points, _GENERATORS[key])


def to_csv(dataset: LabeledDataset, path) -> None:
    with open(path, "w") as fh:
        fh.write("x1,x2,label\n")
        for (x1, x2), y in zip(dataset.points, dataset.labels):
            fh.write(f"{float(x1)!r},{float(x2)!r},{int(y)}\n")


def from_csv(path) -> LabeledDataset:
    points, labels = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "x1,x2,label":
            raise ValueError(f"unexpected dataset header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                x1, x2, y = line.strip().split(",")
                p1, p2 = float(x1), float(x2)
                if not (math.isfinite(p1) and math.isfinite(p2)):  # not numpy: 3 us a row
                    raise ValueError("non-finite coordinate")
                points.append([p1, p2])
                labels.append(int(y))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {line.strip()!r}; "
                                 "expected x1,x2,label") from None
    if not points:
        raise ValueError("dataset file contains no points")
    return LabeledDataset(np.array(points), np.array(labels))
