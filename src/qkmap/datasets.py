"""Seeded generators for the four benchmark datasets on [-1, 1]^2, named in ``KINDS``.

The published benchmarks exist only as scatter plots, so these are
documented reconstructions: each boundary carries a small margin band so
the classes are cleanly separable.  The shape constants are below.

A dataset is the points a sequential rejection loop keeps from one
``default_rng(seed)`` stream, then shuffled by that stream.  Each draw
reads two uniform doubles; the sampler works in batches, and the doubles
read and their order, not the calls that read them, are the format.
"""

from __future__ import annotations

import math

import numpy as np

from .pauli import _integer, _seed
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
    """The draws a sequential rejection loop keeps, n/2 per class, then shuffled.

    The loop draws under ``next_label``, the first class still short of n/2,
    keeps a draw whose class is short, and stops once both are full or after
    ``_MAX_DRAWS`` draws, raising (before any draw for n >= ``_MAX_DRAWS``).
    ``draw(rng, count)`` returns ``count`` draws' candidate points
    ``(2, count, 2)`` and labels ``(2, count)``, row 0 under next_label +1 and
    row 1 under -1, label 0 if rejected.  Batches, doubling from n, find the
    draws the loop keeps; then the generator goes back to its entry state and
    redraws exactly the loop's draws, so the shuffle reads the same stream.
    """
    per_class = n_points // 2
    start = rng.bit_generator.state
    found = np.empty((2, 0), dtype=int)  # candidate labels of every draw so far
    while True:
        # the loop fills only within _MAX_DRAWS - 1 draws, each keeping at most one point
        count = min(_MAX_DRAWS - 1 - found.shape[1], n_points + found.shape[1])
        if count <= 0 or n_points >= _MAX_DRAWS:
            raise RuntimeError("rejection sampling exceeded the draw budget")
        found = np.concatenate((found, draw(rng, count)[1]), axis=1)
        pos = np.flatnonzero(found[0] == 1)[:per_class]
        if len(pos) == per_class:  # every later draw is made under next_label -1
            later = np.arange(found.shape[1]) > pos[-1]
            neg = np.flatnonzero(np.where(later, found[1], found[0]) == -1)[:per_class]
            if len(neg) == per_class:
                break
    keep = np.concatenate((pos, neg))
    rng.bit_generator.state = start
    points = draw(rng, max(pos[-1], neg[-1]) + 1)[0][(keep > pos[-1]).astype(int), keep]
    labels = np.repeat(np.array([1, -1]), per_class)
    order = rng.permutation(n_points)
    return LabeledDataset(points[order], labels[order])


def _uniform(gap):
    """Draw function for uniform points on [-1,1]^2 labelled by the sign of ``gap(x)``."""
    def draw(rng, count):
        x = rng.uniform(-1.0, 1.0, (count, 2))
        g = gap(x)  # rejected within MARGIN of the boundary, where it is 0
        label = np.where(np.abs(g) <= MARGIN, 0, np.where(g > 0, 1, -1))
        return np.broadcast_to(x, (2, count, 2)), np.broadcast_to(label, (2, count))

    return draw


def _circle(x):
    # np.linalg.norm's one BLAS dot per row, bit for bit (x0*x0 + x1*x1 is not)
    return CIRCLE_RADIUS - np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _exp(x):
    return x[:, 1] - (EXP_SCALE * np.exp(EXP_RATE * x[:, 0]) + EXP_OFFSET)


def _xor(x):
    return x[:, 0] * x[:, 1]


def _moon(rng, count):
    """Two interleaved half-annuli; points outside the square are redrawn."""
    theta, u = rng.uniform((0.0, -0.5), (np.pi, 0.5), (count, 2)).T
    radius = MOON_RADIUS + u * MOON_WIDTH
    c, s = radius * np.cos(theta), radius * np.sin(theta)
    x = np.stack([np.stack((c - MOON_X_OFFSET, s - MOON_Y_OFFSET), axis=1),
                  np.stack((c + MOON_X_OFFSET, -s + MOON_Y_OFFSET), axis=1)])
    return x, np.where(np.all(np.abs(x) <= 1.0, axis=2), np.array([[1], [-1]]), 0)


_GENERATORS = {"circle": _uniform(_circle), "exp": _uniform(_exp), "moon": _moon,
               "xor": _uniform(_xor)}

KINDS = tuple(_GENERATORS)


def generate(kind: str, n_points: int = 100, seed: int = 0) -> LabeledDataset:
    """Deterministic balanced dataset of the given kind (one of ``KINDS``), of an even
    integer ``n_points`` >= 2 from a non-negative integer ``seed``, or ValueError."""
    key = kind.lower()
    if key not in _GENERATORS:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {KINDS}")
    n_points = _integer(n_points, "n_points")  # 100.0 would fail deep in the sampler
    if n_points < 2 or n_points % 2 != 0:
        raise ValueError("n_points must be an even number >= 2")
    rng = np.random.default_rng(_seed(seed))
    return _balanced_rejection(rng, n_points, _GENERATORS[key])


def to_csv(dataset: LabeledDataset, path) -> None:
    with open(path, "w") as fh:
        fh.write("x1,x2,label\n")
        fh.writelines([f"{x1!r},{x2!r},{y}\n" for (x1, x2), y
                       in zip(dataset.points.tolist(), dataset.labels.tolist())])


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
                if labels[-1] not in (-1, 1):
                    raise ValueError("label not -1 or +1")
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {line.strip()!r}; "
                                 "expected x1,x2,label") from None
    if not points:
        raise ValueError("dataset file contains no points")
    return LabeledDataset(np.array(points), np.array(labels))
