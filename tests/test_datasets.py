import re

import numpy as np
import pytest

from qkmap import datasets as D
from qkmap.datasets import (
    _MAX_DRAWS,
    CIRCLE_RADIUS,
    EXP_OFFSET,
    EXP_RATE,
    EXP_SCALE,
    KINDS,
    MARGIN,
    MOON_RADIUS,
    MOON_WIDTH,
    MOON_X_OFFSET,
    MOON_Y_OFFSET,
    _balanced_rejection,
    _uniform,
    from_csv,
    generate,
    to_csv,
)
from qkmap.svm import LabeledDataset

ALL_KINDS = ("circle", "exp", "moon", "xor")


# The four generators as they were written before each dataset kind became
# its draw function: ``generate`` must match them bit for bit.
def _gen_circle(rng, n_points):
    def labeler(x):
        r = float(np.linalg.norm(x))
        if abs(r - CIRCLE_RADIUS) <= MARGIN:
            return None
        return 1 if r < CIRCLE_RADIUS else -1

    return _balanced_rejection(rng, n_points, _uniform(labeler))


def _gen_exp(rng, n_points):
    def labeler(x):
        boundary = EXP_SCALE * np.exp(EXP_RATE * x[0]) + EXP_OFFSET
        if abs(x[1] - boundary) <= MARGIN:
            return None
        return 1 if x[1] > boundary else -1

    return _balanced_rejection(rng, n_points, _uniform(labeler))


def _gen_xor(rng, n_points):
    def labeler(x):
        prod = x[0] * x[1]
        if abs(prod) <= MARGIN:
            return None
        return 1 if prod > 0 else -1

    return _balanced_rejection(rng, n_points, _uniform(labeler))


def _gen_moon(rng, n_points):
    """Two interleaved half-annuli; points outside the square are redrawn."""
    def draw(rng, label):
        theta = rng.uniform(0.0, np.pi)
        radius = MOON_RADIUS + rng.uniform(-0.5, 0.5) * MOON_WIDTH
        if label == 1:
            x = np.array([radius * np.cos(theta) - MOON_X_OFFSET,
                          radius * np.sin(theta) - MOON_Y_OFFSET])
        else:
            x = np.array([radius * np.cos(theta) + MOON_X_OFFSET,
                          -radius * np.sin(theta) + MOON_Y_OFFSET])
        return x, label if np.all(np.abs(x) <= 1.0) else None

    return _balanced_rejection(rng, n_points, draw)


REFERENCE_GENERATORS = {"circle": _gen_circle, "exp": _gen_exp, "moon": _gen_moon,
                        "xor": _gen_xor}


def reference_moon(rng, n_points):
    """The moon generator with its own copy of the rejection loop, as first written."""
    per_class = n_points // 2
    kept = {1: [], -1: []}
    for _ in range(_MAX_DRAWS):
        if len(kept[1]) == per_class and len(kept[-1]) == per_class:
            break
        label = 1 if len(kept[1]) < per_class else -1
        theta = rng.uniform(0.0, np.pi)
        radius = D.MOON_RADIUS + rng.uniform(-0.5, 0.5) * D.MOON_WIDTH
        if label == 1:
            x = np.array([radius * np.cos(theta) - D.MOON_X_OFFSET,
                          radius * np.sin(theta) - D.MOON_Y_OFFSET])
        else:
            x = np.array([radius * np.cos(theta) + D.MOON_X_OFFSET,
                          -radius * np.sin(theta) + D.MOON_Y_OFFSET])
        if np.all(np.abs(x) <= 1.0):
            kept[label].append(x)
    else:
        raise RuntimeError("rejection sampling exceeded the draw budget")
    points = np.array(kept[1] + kept[-1])
    labels = np.array([1] * per_class + [-1] * per_class)
    order = rng.permutation(n_points)
    return LabeledDataset(points[order], labels[order])


class TestGenerate:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_balanced_and_in_domain(self, kind):
        ds = generate(kind, 100, seed=7)
        assert len(ds) == 100
        assert np.sum(ds.labels == 1) == 50
        assert np.sum(ds.labels == -1) == 50
        assert np.all(np.abs(ds.points) <= 1.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deterministic(self, kind):
        a = generate(kind, 60, seed=4)
        b = generate(kind, 60, seed=4)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate("circle", 40, seed=1)
        b = generate("circle", 40, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_circle_rule_and_margin(self):
        ds = generate("circle", 100, seed=3)
        radii = np.linalg.norm(ds.points, axis=1)
        assert np.all(np.abs(radii - D.CIRCLE_RADIUS) > D.MARGIN)
        inside = radii < D.CIRCLE_RADIUS
        assert np.array_equal(np.where(inside, 1, -1), ds.labels)

    def test_exp_rule_and_margin(self):
        ds = generate("exp", 100, seed=3)
        boundary = D.EXP_SCALE * np.exp(D.EXP_RATE * ds.points[:, 0]) + D.EXP_OFFSET
        gap = ds.points[:, 1] - boundary
        assert np.all(np.abs(gap) > D.MARGIN)
        assert np.array_equal(np.where(gap > 0, 1, -1), ds.labels)

    def test_xor_rule_and_margin(self):
        ds = generate("xor", 100, seed=3)
        prod = ds.points[:, 0] * ds.points[:, 1]
        assert np.all(np.abs(prod) > D.MARGIN)
        assert np.array_equal(np.sign(prod).astype(int), ds.labels)

    def test_moon_points_on_annuli(self):
        ds = generate("moon", 100, seed=3)
        for (x1, x2), y in zip(ds.points, ds.labels):
            if y == 1:
                center = (-D.MOON_X_OFFSET, -D.MOON_Y_OFFSET)
                assert x2 >= center[1] - 1e-12
            else:
                center = (D.MOON_X_OFFSET, D.MOON_Y_OFFSET)
                assert x2 <= center[1] + 1e-12
            r = np.hypot(x1 - center[0], x2 - center[1])
            assert D.MOON_RADIUS - D.MOON_WIDTH / 2 - 1e-12 <= r
            assert r <= D.MOON_RADIUS + D.MOON_WIDTH / 2 + 1e-12

    @pytest.mark.parametrize("n", (2, 100, 1600))
    def test_moon_matches_reference_loop(self, n):
        for seed in range(10):
            got = generate("moon", n, seed=seed)
            want = reference_moon(np.random.default_rng(seed), n)
            assert got.points.tobytes() == want.points.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()

    @pytest.mark.parametrize("n", (2, 20, 100, 800, 1600))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_reference_generators(self, kind, n):
        for seed in (0, 1, 3, 7, 11, 42):
            got = generate(kind, n, seed=seed)
            want = REFERENCE_GENERATORS[kind](np.random.default_rng(seed), n)
            assert got.points.dtype == want.points.dtype and got.points.shape == (n, 2)
            assert got.points.tobytes() == want.points.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            generate("xor", 3, seed=0)

    def test_enum_and_string_agree(self):
        a = generate("CIRCLE", 20, seed=5)
        b = generate("circle", 20, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=r"'spiral'.*" + re.escape(repr(KINDS))):
            generate("spiral", 20, seed=0)
        assert KINDS == ("circle", "exp", "moon", "xor")


class TestCsv:
    def test_roundtrip(self, tmp_path):
        ds = generate("moon", 30, seed=6)
        path = tmp_path / "ds.csv"
        to_csv(ds, path)
        back = from_csv(path)
        assert np.array_equal(back.points, ds.points)
        assert np.array_equal(back.labels, ds.labels)

    def test_header_line(self, tmp_path):
        ds = generate("circle", 10, seed=0)
        path = tmp_path / "ds.csv"
        to_csv(ds, path)
        assert path.read_text().splitlines()[0] == "x1,x2,label"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,1\n")
        with pytest.raises(ValueError, match="header"):
            from_csv(path)

    @pytest.mark.parametrize("row", ["nan,0.1,1", "0.1,inf,-1", "-inf,0.2,1"])
    def test_non_finite_coordinate_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,label\n0.1,0.2,1\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed row {row!r}")):
            from_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2,label\n")
        with pytest.raises(ValueError, match="no points"):
            from_csv(path)
