import itertools
import math
import re
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkmap import svm
from qkmap.datasets import generate
from qkmap.encodings import builtin
from qkmap.kernels import GramMatrix, combine, gram
from qkmap.screening import axis_accuracy, minimum_accuracy
from qkmap.svm import (
    IPM_STEPS,
    CvReport,
    LabeledDataset,
    SvmModel,
    accuracy,
    cross_validate,
    decide,
    _clamp_psd,
    train,
)


def brute_force_dual(k, y, C):
    """Exhaustive active-set dual maximization for small problems.

    Enumerates every assignment of variables to {0, C, free}, solves the
    stationarity system for the free block, checks feasibility, and
    returns the best dual objective.  Exact up to linear-algebra round-off.
    """
    n = len(y)
    q = (k * np.outer(y, y))

    def objective(a):
        return a.sum() - 0.5 * a @ q @ a

    best = -np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        a = np.zeros(n)
        bound = [i for i, p in enumerate(pattern) if p == 1]
        free = [i for i, p in enumerate(pattern) if p == 2]
        a[bound] = C
        if free:
            # stationarity: Q_FF a_F + beta y_F = 1 - Q_FB a_B ; y_F a_F = -y_B a_B
            m = len(free)
            A = np.zeros((m + 1, m + 1))
            A[:m, :m] = q[np.ix_(free, free)]
            A[:m, m] = y[free]
            A[m, :m] = y[free]
            rhs = np.zeros(m + 1)
            rhs[:m] = 1.0 - q[np.ix_(free, bound)] @ a[bound] if bound else 1.0
            rhs[m] = -(y[bound] @ a[bound]) if bound else 0.0
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            if np.max(np.abs(A @ sol - rhs)) > 1e-8:
                continue  # inconsistent pattern
            a[free] = sol[:m]
            if np.any(a[free] < -1e-9) or np.any(a[free] > C + 1e-9):
                continue
        if abs(a @ y) > 1e-8:
            continue
        best = max(best, objective(np.clip(a, 0, C)))
    return best


def mvp_clamp_psd(values):
    """The eigh PSD check of the first solver version, kept verbatim."""
    w, v = np.linalg.eigh(values)
    if w[0] >= -1e-6:
        return values
    warnings.warn(
        f"Gram matrix has minimum eigenvalue {w[0]:.3e}; clamping to PSD",
        RuntimeWarning,
    )
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.T


def mvp_train(k, labels, C=1.0, tolerance=1e-3, max_passes=10_000, start=None):
    """Reference SMO loop, kept verbatim from the first solver version.

    Rebuilds every index mask each iteration and does the pair arithmetic
    on numpy scalars; SMO must reproduce its (alphas, bias) bit for bit.
    ``start`` (default alpha = 0) is the only addition: the multipliers
    to start from.
    """
    y = np.asarray(labels, dtype=float)
    n = len(y)
    k = mvp_clamp_psd(np.asarray(k, dtype=float))

    alphas = np.zeros(n) if start is None else np.array(start, dtype=float)
    # sum_j alpha_j y_j K_ij, bias-free margin
    g = np.zeros(n) if start is None else k @ (alphas * y)

    def feasibility():
        """(gap, i_low, i_up, b) for the current multipliers."""
        c = y - g
        # lower set: indices forcing b >= c_i - tol
        #   alpha=0 & y=+1, alpha=C & y=-1, 0<alpha<C
        # upper set: indices forcing b <= c_i + tol
        #   alpha=0 & y=-1, alpha=C & y=+1, 0<alpha<C
        at_zero = alphas <= 1e-12
        at_c = alphas >= C - 1e-12
        free = ~at_zero & ~at_c
        lower = free | (at_zero & (y > 0)) | (at_c & (y < 0))
        upper = free | (at_zero & (y < 0)) | (at_c & (y > 0))
        c_low = np.where(lower, c, -np.inf)
        c_up = np.where(upper, c, np.inf)
        i_low = int(np.argmax(c_low))
        i_up = int(np.argmin(c_up))
        gap = c_low[i_low] - c_up[i_up]
        b = (c_low[i_low] + c_up[i_up]) / 2.0
        return gap, i_low, i_up, b

    b = 0.0
    for _ in range(max_passes):
        gap, i, j, b = feasibility()
        if gap <= 2.0 * tolerance:
            break
        # two-variable analytic update of (alpha_i, alpha_j)
        if y[i] != y[j]:
            lo = max(0.0, alphas[j] - alphas[i])
            hi = min(C, C + alphas[j] - alphas[i])
        else:
            lo = max(0.0, alphas[i] + alphas[j] - C)
            hi = min(C, alphas[i] + alphas[j])
        eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
        eta = max(eta, 1e-12)
        e_i = g[i] - y[i]
        e_j = g[j] - y[j]
        aj_new = np.clip(alphas[j] + y[j] * (e_i - e_j) / eta, lo, hi)
        d_j = aj_new - alphas[j]
        if abs(d_j) < 1e-14:
            break  # numerically stuck; bias midpoint still minimizes residuals
        d_i = -y[i] * y[j] * d_j
        alphas[i] += d_i
        alphas[j] += d_j
        g += (d_i * y[i]) * k[i] + (d_j * y[j]) * k[j]
    else:
        _, _, _, b = feasibility()

    return alphas, float(b)


def mvp_interior_point(v: np.ndarray, y: np.ndarray, C: float):
    """Reference: the solver's IPM before it formed one Newton operator per step, verbatim.

    Solves each right-hand side with two ``np.linalg.solve`` calls on the
    Cholesky factor and takes the step length in four masked loops; each
    lane of the solver's lockstep IPM must give the same warm start to
    within 1e-6 * C.
    """
    n = len(y)
    a = np.full(n, C / 2.0)
    s = np.full(n, C / 2.0)
    z = np.ones(n)
    w = np.ones(n)
    beta = 0.0
    eye = np.eye(v.shape[1])
    for _ in range(IPM_STEPS):
        mu = (a @ z + s @ w) / (2.0 * n)
        if not np.isfinite(mu):
            return None
        if mu <= 1e-9 * C:
            break
        r_d = v @ (v.T @ a) - 1.0 + beta * y - z + w
        r_e = y @ a
        r_u = a + s - C
        d = z / a + w / s
        vd = v / d[:, None]
        low = np.linalg.cholesky(eye + v.T @ vd)

        def solve(rhs):
            """(D + V V^T)^{-1} rhs by Sherman-Morrison-Woodbury."""
            t = rhs / d
            u = np.linalg.solve(low.T, np.linalg.solve(low, v.T @ t))
            return t - vd @ u

        m_y = solve(y)

        def newton(r_az, r_sw):
            rho = -r_d - r_az / a + r_sw / s - (w / s) * r_u
            m_rho = solve(rho)
            d_beta = (y @ m_rho + r_e) / (y @ m_y)
            d_a = m_rho - d_beta * m_y
            d_s = -r_u - d_a
            return d_a, d_s, -(r_az + z * d_a) / a, -(r_sw + w * d_s) / s, d_beta

        def longest(d_a, d_s, d_z, d_w):
            """Largest step in (0, 1] keeping a, s, z, w nonnegative."""
            step = 1.0
            for x, dx in ((a, d_a), (s, d_s), (z, d_z), (w, d_w)):
                neg = dx < 0.0
                if neg.any():
                    step = min(step, float(np.min(-x[neg] / dx[neg])))
            return step

        # predictor: the affine-scaling step, which sets the centering sigma
        a_a, a_s, a_z, a_w, _ = newton(a * z, s * w)
        t = longest(a_a, a_s, a_z, a_w)
        mu_aff = ((a + t * a_a) @ (z + t * a_z) + (s + t * a_s) @ (w + t * a_w)) / (2.0 * n)
        sigma = (mu_aff / mu) ** 3
        # corrector: centred, with the predictor's second-order term
        d_a, d_s, d_z, d_w, d_beta = newton(a * z + a_a * a_z - sigma * mu,
                                            s * w + a_s * a_w - sigma * mu)
        t = 0.995 * longest(d_a, d_s, d_z, d_w)
        a = a + t * d_a
        s = s + t * d_s
        z = z + t * d_z
        w = w + t * d_w
        beta += t * d_beta
    return a, s


def masked_interior_point(v: np.ndarray, y: np.ndarray, C: float):
    """Reference: the solver's single-problem IPM when its step length gathered by
    boolean masks, verbatim.

    The solver's IPM steps every lane of a stack at once and takes each
    lane's step length by one ``np.where`` over all its entries; every
    lane must give the warm start this gives alone, byte for byte.
    """
    n = len(y)
    a = np.full(n, C / 2.0)
    s = np.full(n, C / 2.0)
    z = np.ones(n)
    w = np.ones(n)
    beta = 0.0
    eye = np.eye(v.shape[1])
    for _ in range(IPM_STEPS):
        mu = (a @ z + s @ w) / (2.0 * n)
        if not np.isfinite(mu):
            return None
        if mu <= 1e-9 * C:
            break
        r_d = v @ (v.T @ a) - 1.0 + beta * y - z + w
        r_e = y @ a
        r_u = a + s - C
        d = z / a + w / s
        vd = v / d[:, None]
        p = np.linalg.inv(np.linalg.cholesky(eye + v.T @ vd)) @ vd.T

        def solve(rhs):
            """(D + V V^T)^{-1} rhs by Sherman-Morrison-Woodbury."""
            return rhs / d - (p @ rhs) @ p

        m_y = solve(y)

        def newton(r_az, r_sw):
            rho = -r_d - r_az / a + r_sw / s - (w / s) * r_u
            m_rho = solve(rho)
            d_beta = (y @ m_rho + r_e) / (y @ m_y)
            d_a = m_rho - d_beta * m_y
            d_s = -r_u - d_a
            return d_a, d_s, -(r_az + z * d_a) / a, -(r_sw + w * d_s) / s, d_beta

        def longest(*steps):
            """Largest step in (0, 1] keeping a, s, z, w nonnegative."""
            x, dx = np.concatenate((a, s, z, w)), np.concatenate(steps)
            neg = dx < 0.0
            return float(np.min(-x[neg] / dx[neg], initial=1.0))

        # predictor: the affine-scaling step, which sets the centering sigma
        a_a, a_s, a_z, a_w, _ = newton(a * z, s * w)
        t = longest(a_a, a_s, a_z, a_w)
        mu_aff = ((a + t * a_a) @ (z + t * a_z) + (s + t * a_s) @ (w + t * a_w)) / (2.0 * n)
        sigma = (mu_aff / mu) ** 3
        # corrector: centred, with the predictor's second-order term
        d_a, d_s, d_z, d_w, d_beta = newton(a * z + a_a * a_z - sigma * mu,
                                            s * w + a_s * a_w - sigma * mu)
        t = 0.995 * longest(d_a, d_s, d_z, d_w)
        a = a + t * d_a
        s = s + t * d_s
        z = z + t * d_z
        w = w + t * d_w
        beta += t * d_beta
    return a, s


def lanewise(reference):
    """The lane API of svm._interior_points over a single-lane reference IPM.

    Each lane is solved alone; a lane on which the reference gives None or
    its Cholesky raises is NaN, as the solver's failure handling makes it.
    """
    def interior_points(v, y, C):
        points = np.full((len(v), 2, v.shape[1]), np.nan)
        for lane, (lane_v, lane_y) in enumerate(zip(v, y)):
            try:
                point = reference(lane_v, lane_y, C)
            except np.linalg.LinAlgError:
                continue
            if point is not None:
                points[lane] = point
        return points

    return interior_points


def reference_project(a, s, y, C):
    """Reference: the solver's projection of one lane's IPM point, its code kept verbatim.

    Put the IPM point on the box [0, C] and on y^T a = 0, or None.  A
    multiplier within 1e-6 * C of a bound, read from a or from the
    carried slack s, is set to the bound; the others take their
    Euclidean projection onto y^T a = 0, clipped to the box; None when
    the clipping leaves |y^T a| above 1e-9 * C.
    """
    at_zero = a <= 1e-6 * C
    at_c = ~at_zero & (s <= 1e-6 * C)
    free = ~(at_zero | at_c)
    a = np.where(at_zero, 0.0, np.where(at_c, C, a))
    if free.any():
        shifted = a[free] - (y @ a) / np.count_nonzero(free) * y[free]
        a[free] = np.clip(shifted, 0.0, C)
    return a if abs(y @ a) <= 1e-9 * C else None


def reference_warm_starts(points, y, C):
    """Reference: the solver's per-lane start rule over an (L, 2, m) IPM stack, verbatim.

    A lane whose point is not finite, or whose projection is None, was a
    cold start (None); here it is a zero row, as the solver now gives it.
    """
    with np.errstate(all="ignore"):
        starts = [reference_project(*point, lane_y, C) if np.all(np.isfinite(point)) else None
                  for point, lane_y in zip(points, y)]
    return np.array([np.zeros(len(lane_y)) if start is None else start
                     for start, lane_y in zip(starts, y)])


@st.composite
def ipm_stacks(draw):
    """Faked svm._interior_points results: ((L, 2, m) points, (L, m) labels, C).

    Each lane is all NaN, as a failed lane is; has no free multiplier
    (every a or s within 1e-6 * C of zero); is a box point balanced on
    y^T a = 0; mixes multipliers on either side of both snap thresholds
    with free ones, which the clip often leaves off balance; or has two
    free multipliers of one class whose projection the clip leaves up to
    2e-9 * C off balance, either side of the 1e-9 * C cut.
    """
    lanes, m = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    c = draw(st.sampled_from([1e-12, 1.0, 100.0, 1e5, np.inf]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = c if np.isfinite(c) else 10.0
    y = rng.choice([-1.0, 1.0], size=(lanes, m))
    points = np.empty((lanes, 2, m))
    for lane, kind in enumerate(draw(st.lists(
            st.sampled_from(["nan", "no free", "balanced", "mixed", "edge"]),
            min_size=lanes, max_size=lanes))):
        a = rng.uniform(0.0, scale, m)
        near = rng.uniform(0.0, 2e-6 * scale, m)  # straddles the 1e-6 * C snap
        if kind == "nan":
            a = np.full(m, np.nan)
        elif kind == "no free":
            a = np.where(rng.random(m) < 0.5, near / 2, scale - near / 2)
        elif kind == "balanced":
            pos, neg = a[y[lane] > 0].sum(), a[y[lane] < 0].sum()
            a[y[lane] > 0] *= min(1.0, neg / pos) if pos else 0.0
            a[y[lane] < 0] *= min(1.0, pos / neg) if neg else 0.0
        elif kind == "mixed" or m == 1:
            pick = rng.integers(0, 3, m)
            a = np.where(pick == 0, near, np.where(pick == 1, scale - near, a))
        else:  # the shift moves a_j and a_k to -+(a_k - a_j) / 2; the clip drops one
            j, k = rng.choice(m, 2, replace=False)
            y[lane, k] = y[lane, j]
            a = near / 2
            a[j] = rng.uniform(0.1, 0.9) * scale
            a[k] = a[j] + rng.uniform(0.0, 4e-9) * scale
        points[lane] = a, scale - a
    return points, y, c


@st.composite
def lane_stacks(draw):
    """Random IPM lane stacks: ((L, m, r) factor rows, (L, m) labels, C).

    L is 1-6, m 4-40 and the rank 1-8; every lane holds both classes, and C
    runs from 1e-3 to 1e5, so the lanes of one stack stop at different steps.
    """
    lanes, m, rank = draw(st.integers(1, 6)), draw(st.integers(4, 40)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y = rng.choice([-1.0, 1.0], size=(lanes, m))
    y[:, :2] = 1.0, -1.0
    return rng.normal(size=(lanes, m, rank)), y, draw(st.sampled_from([1e-3, 1.0, 100.0, 1e5]))


def warm_start(factor, y, C, reference=None):
    """One lane's start from svm._warm_starts, or from a reference IPM when one is given."""
    if reference is None:
        return svm._warm_starts(factor[None], y[None], C)[0]
    with mock.patch.object(svm, "_interior_points", lanewise(reference)):
        return svm._warm_starts(factor[None], y[None], C)[0]


def train_and_start(gram, labels, C):
    """train's model and the IPM start it handed to SMO (zeros: SMO from zero)."""
    starts = []
    warm_starts = svm._warm_starts

    def recording(*args):
        starts.append(warm_starts(*args))
        return starts[-1]

    with mock.patch.object(svm, "_warm_starts", recording):
        model = train(gram, labels, C=C)
    [[start]] = starts  # train is the IPM's one-lane case
    return model, start


def dual_objective(model, gram_values):
    ay = model.alphas * model.labels
    return float(model.alphas.sum() - 0.5 * ay @ gram_values @ ay)


def bound_slack(C):
    """README's at-bound slack: 1e-12, 8 ulps of C for C >= 1024, C / 4 below C = 4e-12."""
    if C < 4e-12:
        return C / 4
    return 8 * math.ulp(C) if 1024 <= C < math.inf else 1e-12


def kkt_residuals(model, gram_values):
    """Per-point KKT violation of a model on gram_values (0 when satisfied).

    The test oracle: u = (alpha * y) @ K + b from the model's own fields, and a
    multiplier at a bound within bound_slack(C), not within the solver's slack.
    """
    y = model.labels.astype(float)
    margin = y * ((model.alphas * y) @ gram_values + model.bias)
    eps = bound_slack(model.C)
    return np.where(model.alphas <= eps, np.maximum(0.0, 1.0 - margin),
                    np.where(model.alphas >= model.C - eps, np.maximum(0.0, margin - 1.0),
                             np.abs(margin - 1.0)))


def assert_beats_cold(model, psd, cold):
    """Converged, KKT within tolerance on psd, and a dual objective no lower than cold's."""
    assert model.converged
    assert np.max(kkt_residuals(model, psd)) <= model.tolerance + 1e-9
    want = dual_objective(cold, psd)
    assert dual_objective(model, psd) >= want - 1e-9 * abs(want)


NON_FINITE_PLACES = ("diagonal", "off-diagonal", "one-sided", "low-rank diagonal",
                     "low-rank off-diagonal", "low-rank one-sided")


def non_finite_gram(bad, where, n=40):
    """(K, labels): a full-rank or certifiable rank-3 PSD K with ``bad`` put in."""
    if where.startswith("low-rank"):
        x = np.random.default_rng(2).normal(size=(n, 3))
        k = x @ x.T
        assert svm._certified_factor(k) is not None
    else:
        k = np.eye(n) + 0.1
        assert svm._certified_factor(k) is None
    i, j = 5, n - 3
    if where.endswith("diagonal") and "off" not in where:
        k[i, i] = bad
    else:
        k[i, j] = bad
        if not where.endswith("one-sided"):
            k[j, i] = bad
    return k, np.where(np.arange(n) % 2, 1, -1)


# one pool for every entry point that takes labels: the first four are accepted
LABEL_POOL = {"int": [1, -1], "float": [1.0, -1.0], "bool": [True, -1],
              "int8": np.array([1, -1], np.int8), "1.9": [1.9, -1], "0.5": [0.5, -1],
              "nan": [np.nan, -1], "zero-one": [0, 1], "uint8-255": np.array([1, 255], np.uint8),
              "complex": [1j, -1], "real-complex": [1 + 0j, -1 + 0j], "strings": ["1", "-1"],
              "none": [1, None]}


@pytest.mark.parametrize("name", LABEL_POOL)
def test_one_label_rule_at_every_entry_point(name):
    # complex labels scored 0.5 in accuracy and raised a bare TypeError in train; "1", "-1"
    # trained but raised numpy's UFuncTypeError in accuracy; None raised TypeError there
    labels = LABEL_POOL[name]
    model = SvmModel(np.ones(2), 0.0, np.array([1, -1]), 1.0, 1e-3)
    calls = {"LabeledDataset": lambda: LabeledDataset(np.zeros((2, 2)), labels).labels.tolist(),
             "train": lambda: train(np.eye(2), labels).labels.tolist(),
             "accuracy": lambda: accuracy(model, np.eye(2), labels),
             "axis_accuracy": lambda: axis_accuracy([0.0, 1.0], labels)}
    want = {"LabeledDataset": [1, -1], "train": [1, -1], "accuracy": 1.0,
            "axis_accuracy": axis_accuracy([0.0, 1.0], [1, -1])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cast of complex labels warns with ComplexWarning
        for entry, call in calls.items():
            if name in ("int", "float", "bool", "int8"):
                assert call() == want[entry], entry
            else:
                with pytest.raises(ValueError, match=r"^labels must be -1 or \+1$"):
                    call()


class TestLabeledDataset:
    @pytest.mark.parametrize("label", [1.9, -1.2, 0.5, np.nan])
    def test_non_integer_label_rejected_as_train_rejects_it(self, label):
        # the labels were cast to int first, which made 1.9 a 1 and failed on NaN with
        # numpy's "cannot convert float NaN to integer"
        labels = [label, -1.0]
        with pytest.raises(ValueError, match=r"^labels must be -1 or \+1$"):
            LabeledDataset(np.zeros((2, 2)), labels)
        with pytest.raises(ValueError, match=r"^labels must be -1 or \+1$"):
            train(np.eye(2), labels)

    def test_float_labels_at_plus_minus_one_accepted(self):
        ds = LabeledDataset(np.zeros((2, 2)), [1.0, -1.0])
        assert ds.labels.tolist() == [1, -1] and ds.labels.dtype == int

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_names_row(self, bad):
        pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match=re.escape(f"point 2 [0.5, {bad}] is not finite")):
            LabeledDataset(pts, [1, -1, 1, -1])

    def test_column_labels_rejected(self):
        # (10, 1) labels passed, then cross_validate failed broadcasting (5,8,1,1) with (5,8,10)
        labels = np.resize([1, -1], 10)[:, None]
        with pytest.raises(ValueError, match=re.escape("got (10, 2) points and (10, 1) labels")):
            LabeledDataset(np.zeros((10, 2)), labels)


class TestTrain:
    def test_column_labels_rejected(self):
        # (4, 1) labels failed in SMO with "too many values to unpack (expected 3)"
        with pytest.raises(ValueError, match=re.escape("labels must have shape (N,), got (4, 1)")):
            train(np.eye(4), [[1], [-1], [1], [-1]])

    def test_no_labels_have_no_class(self):
        # y[0] of no labels raised IndexError
        with pytest.raises(ValueError, match="^both classes must be present for training$"):
            train(np.zeros((0, 0)), [])

    def test_gram_size_must_match_labels(self):
        with pytest.raises(ValueError, match="^gram size does not match number of labels$"):
            train(np.eye(3), [1, -1])

    def test_two_point_separable(self):
        pts = [(0.1, 0.1), (0.8, -0.6)]
        g = gram(builtin("ef1"), pts)
        labels = np.array([1, -1])
        model = train(g, labels, C=10.0)
        assert accuracy(model, g.values, labels) == 1.0
        assert model.alphas[0] > 0 and model.alphas[1] > 0
        assert abs(model.alphas[0] - model.alphas[1]) < 1e-8

    def test_dual_constraints_hold(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (30, 2))
        labels = np.where(pts[:, 0] * pts[:, 1] > 0, 1, -1)
        g = gram(builtin("ef1"), pts)
        model = train(g, labels, C=1.0)
        assert np.all(model.alphas >= -1e-12)
        assert np.all(model.alphas <= model.C + 1e-12)
        assert abs(model.alphas @ model.labels) <= 1e-8

    def test_kkt_residuals_at_convergence(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, (40, 2))
        labels = np.where(np.linalg.norm(pts, axis=1) < 0.6, 1, -1)
        if len(np.unique(labels)) < 2:
            pytest.skip("degenerate draw")
        g = gram(builtin("ef2"), pts)
        model = train(g, labels, C=5.0, tolerance=1e-3)
        assert np.max(kkt_residuals(model, g.values)) <= model.tolerance + 1e-9

    @pytest.mark.parametrize("n_points", (3, 4, 5, 6))
    def test_matches_brute_force_oracle(self, n_points):
        rng = np.random.default_rng(2)
        for trial in range(25):
            pts = rng.uniform(-1, 1, (n_points, 2))
            labels = np.zeros(n_points, dtype=int)
            labels[: n_points // 2] = 1
            labels[n_points // 2:] = -1
            rng.shuffle(labels)
            if len(np.unique(labels)) < 2:
                continue
            c = float(rng.choice([0.5, 1.0, 10.0]))
            g = gram(builtin("ef1"), pts)
            model = train(g, labels, C=c, tolerance=1e-5)
            got = dual_objective(model, g.values)
            want = brute_force_dual(g.values, labels.astype(float), c)
            assert got >= want - 1e-6
            assert got <= want + 1e-6

    def test_single_class_rejected(self):
        g = gram(builtin("ef1"), [(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="both classes"):
            train(g, [1, 1])

    def test_non_psd_clamped_with_warning(self):
        k = np.array([[1.0, 0.9], [0.9, 0.5]])  # min eig < -1e-6? no; make one
        k = np.array([[0.1, 1.0], [1.0, 0.1]])
        with pytest.warns(RuntimeWarning, match="clamping"):
            train(k, [1, -1], C=1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (20, 2))
        labels = np.where(pts[:, 0] > 0, 1, -1)
        g = gram(builtin("ef3"), pts)
        a = train(g, labels, C=2.0)
        b = train(g, labels, C=2.0)
        assert np.array_equal(a.alphas, b.alphas)
        assert a.bias == b.bias

    def test_non_finite_gram_rejected(self):
        k = np.eye(4)
        k[0, 1] = k[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            train(k, [1, -1, 1, -1])

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("where", NON_FINITE_PLACES)
    def test_non_finite_gram_rejected_without_clamp(self, bad, where):
        # only an uncertified K is scanned: a non-finite entry must fail the certificate
        k, labels = non_finite_gram(bad, where)
        with warnings.catch_warnings(), pytest.raises(ValueError, match="gram has non-finite"):
            warnings.simplefilter("error")  # no clamp warning on the way
            train(k, labels)

    @pytest.mark.parametrize("c, tolerance", [(np.nan, 1e-3), (1.0, np.nan),
                                              (0.0, 1e-3), (1.0, -1e-3)])
    def test_nan_or_nonpositive_settings_rejected(self, c, tolerance):
        g = gram(builtin("ef1"), [(0.1, 0.1), (0.8, -0.6)])
        with pytest.raises(ValueError, match="C and tolerance must be positive"):
            train(g, [1, -1], C=c, tolerance=tolerance)

    @pytest.mark.parametrize("points", [np.zeros((4, 3)), np.zeros((3, 2))])
    def test_points_must_be_one_pair_per_label(self, points):
        # a model of other points would be written in a form from_text rejects
        with pytest.raises(ValueError, match=re.escape(f"(4, 2), got {points.shape}")):
            train(np.eye(4), [1, -1, 1, -1], points=points)

    def test_infinite_tolerance_rejected(self):
        # every gap is at most 2 * inf, so each solve would call itself converged
        g = gram(builtin("ef1"), [(0.1, 0.1), (0.8, -0.6)])
        with pytest.raises(ValueError, match="^tolerance must be finite, got inf$"):
            train(g, [1, -1], C=np.inf, tolerance=np.inf)

    def test_non_symmetric_gram_rejected(self):
        # eigh reads one triangle: this matrix used to train "converged" on another one,
        # with KKT residuals of 0.93 on the matrix given
        k = [[1, .9, 0, 0], [-.5, 1, 0, 0], [0, 0, 1, .2], [0, 0, .2, 1]]
        with pytest.raises(ValueError, match=re.escape("max |K - K^T| is 1.400e+00 > 1e-6")):
            train(k, [1, -1, 1, -1], C=10.0)

    def test_asymmetry_bound_is_inclusive(self):
        # an asymmetry of exactly 1e-6 trains; one ulp more is rejected
        model = train([[1, 1e-6], [0, 1]], [1, -1], C=10.0)
        assert model.converged
        above = float(np.nextafter(1e-6, 1.0))
        with pytest.raises(ValueError, match=re.escape("max |K - K^T| is 1.000e-06 > 1e-6")):
            train([[1, above], [0, 1]], [1, -1], C=10.0)

    def test_infinite_C_is_hard_margin(self):
        pts = [(0.1, 0.1), (0.8, -0.6)]
        g = gram(builtin("ef1"), pts)
        model = train(g, [1, -1], C=np.inf)
        assert model.converged and accuracy(model, g.values, [1, -1]) == 1.0


class TestSolverStats:
    def problem(self):
        ds = generate("moon", 60, seed=7)
        return gram(builtin("ef1"), ds.points), ds.labels

    # SMO from alpha = 0, which still takes pair updates on these inputs
    def test_converged_stats(self):
        g, labels = self.problem()
        model = svm._smo(_clamp_psd(g.values)[0], labels, 1.0, 1e-3, None, np.zeros(60))
        assert model.converged is True
        assert model.iterations > 0
        assert model.final_gap <= 2.0 * model.tolerance

    def test_iteration_cap_warns_with_gap(self):
        g, labels = self.problem()
        with mock.patch.object(svm, "MAX_PASSES", 3), \
                pytest.warns(RuntimeWarning, match="max_passes=3") as caught:
            model = svm._smo(_clamp_psd(g.values)[0], labels, 100.0, 1e-3, None, np.zeros(60))
        message = str(caught[0].message)
        assert "gap" in message and "tolerance" in message
        assert "clamp" not in message
        assert model.converged is False and model.iterations == 3
        assert model.final_gap > 2.0 * model.tolerance

    def test_stall_warns(self):
        # eta = 2e15 makes the first step 1e-15, below the 1e-14 stall floor
        with pytest.warns(RuntimeWarning, match="stalled") as caught:
            model = train(np.diag([1e15, 1e15]), [1, -1])
        assert "clamp" not in str(caught[0].message)
        assert model.converged is False and model.iterations == 0

    @pytest.mark.parametrize("kind", ("circle", "exp", "moon", "xor"))
    def test_no_stall_at_tiny_C(self, kind):
        # every step is at most C: an absolute 1e-14 floor stalled every cold fold at
        # C = 1e-300, where the fold IPMs fail, with "step stalled below 1e-14"
        ds = generate(kind, 100, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cross_validate(ds, gram(builtin("ef1"), ds.points), 5, C=1e-300, seed=7)

    def test_stats_not_serialised(self):
        g, labels = self.problem()
        model = train(g, labels, C=10.0, points=np.zeros((60, 2)))
        bare = SvmModel(model.alphas, model.bias, model.labels, model.C,
                        model.tolerance, model.points)
        assert bare.iterations is None and bare.converged is None
        assert model.to_text() == bare.to_text()
        assert SvmModel.from_text(model.to_text()).final_gap is None


@st.composite
def problems(draw):
    """Random solver inputs: a Gram of any route, labels and C."""
    n = draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    route = draw(st.sampled_from(["exact", "pauli", "shots"]))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, 2))
    labels = rng.choice([-1, 1], size=n)
    if len(np.unique(labels)) < 2:
        labels[0] = -labels[1]
    spec = builtin(draw(st.sampled_from(["ef1", "ef2", "ef3", "ef4", "ef5"])))
    k = gram(spec, pts, method=route, shots=draw(st.sampled_from([30, 1000])),
             seed=seed).values
    return k, labels, draw(st.sampled_from([0.5, 1.0, 10.0, 100.0, 1000.0]))


class TestSolverProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(problems(), st.sampled_from([40, 10_000]))
    def test_byte_equal_to_reference_loop(self, problem, max_passes):
        k, labels, c = problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want_alphas, want_bias = mvp_train(k, labels, C=c, max_passes=max_passes)
            psd = _clamp_psd(k)[0]
            with mock.patch.object(svm, "MAX_PASSES", max_passes):
                model = svm._smo(psd, labels, c, 1e-3, None, np.zeros(len(labels)))
        assert model.alphas.tobytes() == want_alphas.tobytes()
        assert repr(model.bias) == repr(want_bias)
        if model.converged:
            assert np.max(kkt_residuals(model, psd)) <= model.tolerance + 1e-9

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(problems(), st.integers(0, 2 ** 32 - 1))
    def test_byte_equal_to_reference_loop_from_a_start(self, problem, seed):
        # a feasible start with work left: a box point balanced on y^T a = 0
        k, labels, c = problem
        y = labels.astype(float)
        a = np.random.default_rng(seed).uniform(0.0, c, len(y))
        pos, neg = a[y > 0].sum(), a[y < 0].sum()
        a[y > 0] *= min(1.0, neg / pos)
        a[y < 0] *= min(1.0, pos / neg)
        start = reference_project(a, c - a, y, c)
        assert start is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want_alphas, want_bias = mvp_train(k, labels, C=c, start=start)
            model = svm._smo(_clamp_psd(k)[0], labels, c, 1e-3, None, start)
        assert model.alphas.tobytes() == want_alphas.tobytes()
        assert repr(model.bias) == repr(want_bias)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(problems())
    def test_cholesky_decision_matches_eigh(self, problem):
        k = problem[0]
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            out, factor = _clamp_psd(k)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            ref = mvp_clamp_psd(k)
        assert (out is k) == (ref is k)
        assert out.tobytes() == ref.tobytes()
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        # the factor drops only eigenvalues in [-1e-6, 1e-12 * the largest],
        # and no entry of a symmetric matrix exceeds its spectral norm
        assert np.max(np.abs(factor @ factor.T - out)) <= 1e-6 + 1e-9


@st.composite
def warm_problems(draw):
    """Exact, Pauli, shot or two-encoding combined Grams, factored either way.

    Exact and Pauli Grams at n < 64 have rank above n // 4 and shot Grams
    have full rank, so those take the PSD check's factor.
    """
    route = draw(st.sampled_from(["exact", "pauli", "shots", "combined"]))
    # a combined Gram has rank up to 31, which the factor reaches at n >= 124
    n = draw(st.integers(128, 200) if route == "combined" else st.integers(8, 160))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, 2))
    labels = rng.choice([-1, 1], size=n)
    if len(np.unique(labels)) < 2:
        labels[0] = -labels[1]
    ids = draw(st.lists(st.sampled_from(["ef1", "ef2", "ef3", "ef4", "ef5"]),
                        min_size=2, max_size=2, unique=True))
    if route == "combined":
        w = draw(st.floats(0.1, 1.9))
        g = combine([gram(builtin(e), pts) for e in ids], [w, 2.0 - w])
    else:
        g = gram(builtin(ids[0]), pts, method=route,
                 shots=draw(st.sampled_from([30, 1000])), seed=seed)
    return g, labels, draw(st.sampled_from([1.0, 100.0, 1000.0]))


class TestWarmStart:
    def test_moon_800_hard_C_converges(self):
        ds = generate("moon", 800, seed=7)
        g = gram(builtin("ef1"), ds.points)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="SMO stopped")
            model = train(g, ds.labels, C=1000.0)
        assert model.converged and model.iterations < svm.MAX_PASSES

    def test_every_scale_solve_converges(self):
        # moon n=1600, ef1, C=100: the five folds of fold seed 7, then the full set
        ds = generate("moon", 1600, seed=7)
        g = gram(builtin("ef1"), ds.points)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="SMO stopped")
            cross_validate(ds, g, C=100.0, seed=7)
            model = train(g, ds.labels, C=100.0)
        assert model.converged
        assert np.max(kkt_residuals(model, g.values)) <= model.tolerance + 1e-9

    @pytest.mark.parametrize("c", [1e-12, 1e-13, 1e-20])
    def test_tiny_C_converges(self, c):
        # below C = 4e-12 the bound slack is C / 4; a slack of 1e-12 >= C / 2 put every
        # multiplier at zero and at C at once, and each solve stopped with a gap of 2
        assert svm._bound_eps(c) == bound_slack(c) == c / 4
        ds = generate("moon", 60, seed=7)
        g = gram(builtin("ef1"), ds.points)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="SMO stopped")
            cross_validate(ds, g, C=c, seed=7)
            model = train(g, ds.labels, C=c)
        assert model.converged
        assert np.max(kkt_residuals(model, g.values)) <= model.tolerance + 1e-9

    def test_large_C_converges(self):
        # next to a multiplier near C = 1e5 a partner at 1.4e-12 must count as at zero
        assert [svm._bound_eps(c) for c in (0.5, 1000.0, np.inf)] == [1e-12] * 3
        # the tests' oracle reads README's definition; the solver's slack must not drift from it
        cs = (1e-300, 4e-12, 0.5, 1023.0, 1024.0, 1e5, 1e300, np.inf)
        assert [svm._bound_eps(c) for c in cs] == [bound_slack(c) for c in cs]
        ds = generate("moon", 200, seed=3)
        g = gram(builtin("ef1"), ds.points)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="SMO stopped")
            model = train(g, ds.labels, C=1e5)
        assert model.converged
        assert np.max(kkt_residuals(model, g.values)) <= model.tolerance + 1e-9

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(warm_problems())
    def test_warm_solve_properties(self, problem):
        g, labels, c = problem
        k = g.values
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            psd = _clamp_psd(k)[0]
            cold = svm._smo(psd, labels, c, 1e-3, None, np.zeros(len(labels)))
            warnings.filterwarnings("error", message="SMO stopped")
            model, start = train_and_start(g, labels, c)
            again = train(k, labels, C=c)
        assert start.any()
        assert_beats_cold(model, psd, cold)
        assert again.alphas.tobytes() == model.alphas.tobytes()
        assert repr(again.bias) == repr(model.bias)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(warm_problems(), st.sampled_from([1.0, 100.0, 1e5]))
    def test_start_matches_reference_interior_point(self, problem, c):
        g, labels, _ = problem
        y = labels.astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            factor = svm._certified_factor(g.values)
            if factor is None:
                factor = _clamp_psd(g.values)[1]
        start = warm_start(factor, y, c)
        want = warm_start(factor, y, c, mvp_interior_point)
        assert start.any() == want.any()
        if want.any():
            assert np.array_equal(start == 0.0, want == 0.0)
            assert np.array_equal(start == c, want == c)
            # the IPM stops at a duality measure of 1e-9 * C; on random labels at
            # C = 1e5 the two points differ by up to 5.5e-7 * C, while each lies up
            # to 2.2e-4 * C from a solve stopped at 1e-11 * C
            assert np.max(np.abs(start - want)) <= 1e-6 * c

    @staticmethod
    def assert_start_byte_equal_to_masked(factor, y, c):
        start = warm_start(factor, y, c)
        want = warm_start(factor, y, c, masked_interior_point)
        assert start.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(warm_problems(), st.sampled_from([1.0, 100.0, 1e5, np.inf]))
    def test_start_byte_equal_to_masked_step_length(self, problem, c):
        g, labels, _ = problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            factor = svm._psd_factor(g.values)[1]
        self.assert_start_byte_equal_to_masked(factor, labels.astype(float), c)

    @pytest.mark.parametrize("c", [1.0, 100.0])
    def test_nan_factor_row_byte_equal_to_masked_step_length(self, c):
        k, labels = self.problem()
        factor = svm._psd_factor(k)[1].copy()
        factor[5] = np.nan
        self.assert_start_byte_equal_to_masked(factor, labels.astype(float), c)

    def problem(self, method="exact"):
        ds = generate("moon", 80, seed=7)
        return gram(builtin("ef1"), ds.points, method=method, shots=1000, seed=3).values, \
            ds.labels

    def test_negative_eigenvalue_still_clamped(self):
        k, labels = self.problem()
        w, v = np.linalg.eigh(k)
        bent = k - 1e-3 * np.outer(v[:, 0], v[:, 0])  # v[:, 0] spans K's null space
        assert np.linalg.eigvalsh(bent)[0] < -0.9e-3
        with pytest.warns(RuntimeWarning, match="clamping to PSD"):
            model = train(bent, labels, C=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            psd = mvp_clamp_psd(bent)
        assert_beats_cold(model, psd, svm._smo(psd, labels, 10.0, 1e-3, None, np.zeros(80)))

    @pytest.mark.parametrize("method, c", [("shots", 10.0), ("exact", np.inf)])
    def test_cold_path_byte_equal_to_reference_loop(self, method, c):
        # C = inf fails the IPM, so train is SMO from zero; the shot Gram is
        # warm-started from the PSD check's factor and must beat that solve
        k, labels = self.problem(method)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, start = train_and_start(k, labels, c)
            want_alphas, want_bias = mvp_train(k, labels, C=c)
            psd = _clamp_psd(k)[0]
            cold = svm._smo(psd, labels, c, 1e-3, None, np.zeros(80))
        assert cold.alphas.tobytes() == want_alphas.tobytes()
        assert repr(cold.bias) == repr(want_bias)
        if np.isinf(c):
            assert not start.any()
            assert model.alphas.tobytes() == want_alphas.tobytes()
            assert repr(model.bias) == repr(want_bias)
        else:
            assert start.any()
            assert_beats_cold(model, psd, cold)

    @staticmethod
    def cv_lanes(kind, eid, n, method="exact"):
        """A 5-fold CV's stacked fold problems at fold seed 7: factor rows and labels."""
        ds = generate(kind, n, seed=7)
        full = gram(builtin(eid), ds.points, method=method, shots=1000, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            factor = svm._psd_factor(full.values)[1]
        idx = np.stack([tr for tr, _ in reference_splits(ds.labels, 5, 7)])
        return factor[idx], ds.labels[idx].astype(float)

    @pytest.mark.parametrize("kind, eid, n, method, c", [
        *((kind, eid, 100, "exact", 100.0) for kind in ("circle", "exp", "moon", "xor")
          for eid in ("ef1", "ef2", "ef3", "ef4", "ef5")),
        ("moon", "ef1", 400, "exact", 100.0),
        ("moon", "ef1", 60, "shots", 100.0), ("moon", "ef1", 60, "shots", 1.0)])
    def test_cv_lanes_byte_equal_to_masked_reference(self, kind, eid, n, method, c):
        # the paper's table at n = 100, moon at n = 400 and the shot moon at n = 60:
        # every lane of the lockstep IPM is the start its fold gets alone
        g, y = self.cv_lanes(kind, eid, n, method)
        starts = svm._warm_starts(g, y, c)
        assert len(starts) == 5
        for lane_g, lane_y, start in zip(g, y, starts):
            want = warm_start(lane_g, lane_y, c, masked_interior_point)
            assert want.any() and start.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, eid", [("circle", "ef1"), ("moon", "ef1"), ("xor", "ef2")])
    def test_train_start_is_its_lane_in_a_stack(self, kind, eid):
        # the certified factor is built F-ordered, and a lane on F-ordered rows takes other
        # BLAS bytes than the same rows inside a (C-ordered) stack; train runs its lane on
        # C-ordered rows, so its start is the start of its lane in a stack whose other
        # lanes differ, as cross_validate's model lane is
        ds = generate(kind, 100, seed=7)
        k = gram(builtin(eid), ds.points).values
        g = svm._psd_factor(k)[1]
        assert g.flags.f_contiguous and not g.flags.c_contiguous
        y = ds.labels.astype(float)
        turn = np.random.default_rng(0).permutation(len(y))
        stack = svm._warm_starts(np.stack((g[turn], g, g[::-1])),
                                 np.stack((y[turn], y, y[::-1])), 100.0)
        _, start = train_and_start(k, ds.labels, 100.0)
        assert start.any() and start.tobytes() == stack[1].tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lane_stacks())
    def test_random_lanes_byte_equal_to_masked_reference(self, stack):
        # stacks of any size, rank and C, whose lanes stop at different steps:
        # every lane keeps the start its problem gets alone, byte for byte
        g, y, c = stack
        starts = svm._warm_starts(g, y, c)
        for lane_g, lane_y, start in zip(g, y, starts):
            want = warm_start(lane_g, lane_y, c, masked_interior_point)
            assert start.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, eid, c", [
        ("moon", "ef1", 100.0), ("exp", "ef1", 100.0), ("xor", "ef3", 1e5)])
    def test_one_batched_cholesky_and_inverse_per_step(self, kind, eid, c):
        # each step factors the live stack once and inverts that factor once; a lane
        # that stops leaves the next step's batch, and no call is made per lane
        g, y = self.cv_lanes(kind, eid, 100)
        cholesky, inv, factors, inverted = np.linalg.cholesky, np.linalg.inv, [], []

        def counted(q):
            factors.append(cholesky(q))
            return factors[-1]

        def steps_alone(lane_g, lane_y):
            """The steps the lane's IPM takes alone: one Cholesky each."""
            factors.clear()
            with mock.patch.object(np.linalg, "cholesky", counted):
                warm_start(lane_g, lane_y, c, masked_interior_point)
            return len(factors)

        steps = [steps_alone(lane_g, lane_y) for lane_g, lane_y in zip(g, y)]
        assert len(set(steps)) > 1
        factors.clear()
        with mock.patch.object(np.linalg, "cholesky", counted), \
                mock.patch.object(np.linalg, "inv", lambda a: inverted.append(a) or inv(a)):
            svm._warm_starts(g, y, c)
        live = [sum(n > step for n in steps) for step in range(max(steps))]
        assert [f.shape for f in factors] == [(n, g.shape[2], g.shape[2]) for n in live]
        assert len(inverted) == len(factors)
        assert all(a is f for a, f in zip(inverted, factors))

    @pytest.mark.parametrize("poison", ["nan row", "inf row", "failing slice"])
    def test_failed_lane_leaves_the_other_lanes(self, poison):
        # a poisoned lane starts cold and leaves the other lanes' bytes: a NaN or inf
        # factor row makes its duality measure non-finite, and a Cholesky that fails
        # for it mid-run makes the batched call raise for the whole stack
        g, y = self.cv_lanes("moon", "ef1", 100)
        want = svm._warm_starts(g, y, 100.0)
        g = g.copy()
        if poison != "failing slice":
            g[2, 5] = np.nan if poison == "nan row" else np.inf
        cholesky, batches, bad = np.linalg.cholesky, [], []

        def failing(q):
            """Cholesky that, from the third stacked call on, fails for that call's lane 2."""
            if q.ndim == 3:
                batches.append(len(q))
                if poison == "failing slice" and len(batches) == 3:
                    bad.append(q[2].copy())
            if any(np.array_equal(lane, b) for lane in q.reshape(-1, *q.shape[-2:]) for b in bad):
                raise np.linalg.LinAlgError("forced")
            return cholesky(q)

        interior_points, points = svm._interior_points, []

        def recorded(*args):
            points.append(interior_points(*args))
            return points[-1]

        with mock.patch.object(np.linalg, "cholesky", failing), \
                mock.patch.object(svm, "_interior_points", recorded):
            got = svm._warm_starts(g, y, 100.0)
            if poison != "failing slice":
                assert not warm_start(g[2], y[2], 100.0, masked_interior_point).any()
        # one float array of (a, s) per lane; the poisoned lane's is all NaN
        assert points[0].shape == (5, 2, g.shape[1]) and points[0].dtype == float
        assert np.isnan(points[0][2]).all()
        assert np.isfinite(np.delete(points[0], 2, 0)).all()
        assert not got[2].any() and want[2].any()
        for lane in (0, 1, 3, 4):
            assert got[lane].tobytes() == want[lane].tobytes()
        # the failed lane leaves the stack at once; the others step on together
        fails = 3 if poison == "failing slice" else 1
        assert batches[:fails + 1] == [5] * fails + [4]

    def test_lane_failing_on_the_last_step_starts_cold(self):
        # a Cholesky that fails on the final IPM step leaves that lane's point NaN, with
        # no step after it to find a non-finite measure: _warm_starts' finiteness check
        # starts the lane cold, and the other lanes keep their bytes
        g, y = self.cv_lanes("moon", "ef1", 100)
        cholesky, interior_points, batches, bad, points = (
            np.linalg.cholesky, svm._interior_points, [], [], [])

        def failing(q):
            """Cholesky that fails for lane 2 of the third stacked call, the last step."""
            if q.ndim == 3:
                batches.append(len(q))
                if len(batches) == 3:
                    bad.append(q[2].copy())
            if any(np.array_equal(lane, b) for lane in q.reshape(-1, *q.shape[-2:]) for b in bad):
                raise np.linalg.LinAlgError("forced")
            return cholesky(q)

        def recorded(*args):
            points.append(interior_points(*args))
            return points[-1]

        with mock.patch.object(svm, "IPM_STEPS", 3):
            want = svm._warm_starts(g, y, 100.0)
            with mock.patch.object(np.linalg, "cholesky", failing), \
                    mock.patch.object(svm, "_interior_points", recorded):
                got = svm._warm_starts(g, y, 100.0)
        assert batches == [5, 5, 5] and len(bad) == 1
        assert np.isnan(points[0][2, 0]).all()
        assert not got[2].any() and want[2].any()
        for lane in (0, 1, 3, 4):
            assert got[lane].tobytes() == want[lane].tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ipm_stacks())
    def test_lockstep_projection_byte_equal_to_per_lane_reference(self, stack):
        # every lane of one IPM stack is projected at once, byte for byte as the
        # per-lane rule projected it alone; a lane it started cold is a zero row
        points, y, c = stack
        with mock.patch.object(svm, "_interior_points", lambda *args: points.copy()):
            got = svm._warm_starts(np.zeros((*y.shape, 1)), y, c)
        assert got.shape == y.shape and got.dtype == float
        assert got.tobytes() == reference_warm_starts(points, y, c).tobytes()

    def test_infinite_C_starts_every_lane_cold(self):
        g, y = self.cv_lanes("moon", "ef1", 100)
        assert svm._warm_starts(g, y, np.inf).tobytes() == np.zeros(g.shape[:2]).tobytes()

    def test_overflowing_measure_starts_every_lane_cold(self):
        # at C = 1e308 the first duality measure a.z + s.w overflows to +inf, above
        # 1e-9 * C: a lane steps only while its measure is finite, so none is factored
        g, y = self.cv_lanes("moon", "ef1", 100)
        with mock.patch.object(np.linalg, "cholesky", side_effect=AssertionError("factored")):
            got = svm._warm_starts(g, y, 1e308)
        assert got.tobytes() == np.zeros(g.shape[:2]).tobytes()

    @pytest.mark.parametrize("inner", ["raise", "nan"])
    def test_ipm_failure_falls_back_to_cold(self, inner):
        k, labels = self.problem()
        g, y = svm._certified_factor(k), labels.astype(float)

        def failing(m):
            """The IPM's r x r Cholesky fails."""
            if inner == "raise":
                raise np.linalg.LinAlgError("forced")
            return np.full_like(m, np.nan)

        assert warm_start(g, y, 10.0).any()
        want = svm._smo(_clamp_psd(k)[0], labels, 10.0, 1e-3, None, np.zeros(80))
        with warnings.catch_warnings(), mock.patch.object(np.linalg, "cholesky", failing):
            warnings.simplefilter("error")
            assert not warm_start(g, y, 10.0).any()
            model = train(k, labels, C=10.0)
        assert model.alphas.tobytes() == want.alphas.tobytes()
        assert repr(model.bias) == repr(want.bias)


class TestDecide:
    def test_bias_only_model(self):
        model = SvmModel(np.zeros(4), 0.3, np.array([1, -1, 1, -1]), 1.0, 1e-3)
        assert decide(model, np.ones((2, 4))).tolist() == [0.3, 0.3]

    def test_two_point_model_consistent(self):
        pts = [(0.1, 0.1), (0.8, -0.6)]
        g = gram(builtin("ef1"), pts)
        labels = np.array([1, -1])
        model = train(g, labels, C=10.0)
        assert np.array_equal(np.where(decide(model, g.values) >= 0.0, 1, -1), labels)

    def test_manual_dot_product(self):
        model = SvmModel(np.array([0.5, 1.5, 0.0]), -0.2,
                         np.array([1, -1, 1]), 2.0, 1e-3)
        rows = np.array([[0.9, 0.1, 0.7], [0.0, 1.0, 5.0]])
        want = [0.5 * 1 * 0.9 + 1.5 * (-1) * 0.1 + 0.0 - 0.2, -1.5 - 0.2]
        got = decide(model, rows)
        assert got.shape == (2,)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_length_mismatch(self):
        model = SvmModel(np.zeros(3), 0.0, np.array([1, -1, 1]), 1.0, 1e-3)
        with pytest.raises(ValueError):
            decide(model, np.ones((1, 4)))
        with pytest.raises(ValueError):
            decide(model, np.ones(3))  # one row is a (1, n) block, not an (n,) vector

    def test_tie_resolves_positive(self):
        model = SvmModel(np.zeros(2), 0.0, np.array([1, -1]), 1.0, 1e-3)
        assert decide(model, np.zeros((1, 2))).tolist() == [0.0]
        assert accuracy(model, np.zeros((3, 2)), [1, 1, 1]) == 1.0

    def test_accuracy_matches_per_row_classify(self):
        rng = np.random.default_rng(6)
        model = SvmModel(rng.uniform(0, 2, 30), 0.1, rng.choice([-1, 1], 30), 2.0, 1e-3)
        rows = rng.uniform(-1, 1, (50, 30))
        labels = rng.choice([-1, 1], 50)
        # per-row oracle: sum_i alpha_i y_i K_i + b in plain Python, sign with 0 -> +1
        ay = [float(a) * int(y) for a, y in zip(model.alphas, model.labels)]
        values = [sum(w * float(k) for w, k in zip(ay, row)) + model.bias for row in rows]
        preds = np.array([1 if v >= 0.0 else -1 for v in values])
        assert np.max(np.abs(decide(model, rows) - values)) < 1e-12
        assert accuracy(model, rows, labels) == float(np.mean(preds == labels))
        with pytest.raises(ValueError):
            accuracy(model, rows[:, :29], labels)

    def test_accuracy_label_count_checked(self):
        model = SvmModel(np.ones(2), 0.0, np.array([1, -1]), 1.0, 1e-3)
        rows = np.zeros((20, 2))
        with pytest.raises(ValueError, match="20 kernel rows and 1 labels"):
            accuracy(model, rows, [1])
        with pytest.raises(ValueError, match="0 kernel rows and 0 labels"):
            accuracy(model, np.empty((0, 2)), [])

    @pytest.mark.parametrize("labels", [[0, 1, 0, 1], [2, -2, 2, -2], [1, -1, 1, 0.5],
                                        [1.0, -1.0, np.nan, 1.0], [1, -1, 1, 3]])
    def test_accuracy_rejects_labels_outside_pm1(self, labels):
        # 0/1 labels once scored 0.5 and ±2 labels 0.0, with no error
        model = SvmModel(np.ones(2), 0.0, np.array([1, -1]), 1.0, 1e-3)
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            accuracy(model, rows, labels)

    def test_accuracy_rejects_non_finite_decisions(self):
        # NaN >= 0 is False, so NaN rows used to score as -1: these gave 0.5
        model = SvmModel(np.ones(20), 0.0, np.resize([1, -1], 20), 1.0, 1e-3)
        with pytest.raises(ValueError, match="^kernel row 0 has a non-finite decision value$"):
            accuracy(model, np.full((2, 20), np.nan), [1, -1])
        model = SvmModel(np.ones(2), 0.0, np.array([1, -1]), 1.0, 1e-3)
        rows = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, np.inf]])
        with pytest.raises(ValueError, match="^kernel row 1 has a non-finite decision value$"):
            accuracy(model, rows, [1, -1, -1])

    def test_accuracy_accepts_pm1_floats(self):
        model = SvmModel(np.ones(2), 0.0, np.array([1, -1]), 1.0, 1e-3)
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert accuracy(model, rows, [1, -1, -1, -1]) == 0.75
        assert accuracy(model, rows, np.array([1.0, -1.0, -1.0, -1.0])) == 0.75


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, (8, 2))
        labels = np.where(pts[:, 1] > 0, 1, -1)
        g = gram(builtin("ef2"), pts)
        model = train(g, labels, C=3.0, points=pts)
        back = SvmModel.from_text(model.to_text())
        assert np.array_equal(back.alphas, model.alphas)
        assert back.bias == model.bias
        assert np.array_equal(back.labels, model.labels)
        assert np.array_equal(back.points, model.points)
        assert back.C == model.C and back.tolerance == model.tolerance

    def test_non_finite_point_rejected_before_the_solve(self):
        # such a model was returned, and from_text rejected its to_text output
        pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [np.nan, 0.8]])
        labels = np.array([1, -1, 1, -1])
        g = gram(builtin("ef1"), pts[:3].tolist() + [[0.7, 0.8]])
        with pytest.raises(ValueError, match=re.escape("point 3 [nan, 0.8] is not finite")):
            train(g, labels, points=pts)
        pts[3, 0] = 0.7
        model = train(g, labels, points=pts)
        assert np.array_equal(SvmModel.from_text(model.to_text()).points, pts)

    @pytest.mark.parametrize("key", ("C", "tolerance", "bias"))
    def test_missing_header_named(self, key):
        text = "C=1.0\ntolerance=0.001\nbias=0.5\n0.5,1\n0.5,-1\n"
        lines = [ln for ln in text.splitlines() if not ln.startswith(key + "=")]
        with pytest.raises(ValueError, match=repr(key)):
            SvmModel.from_text("\n".join(lines))

    def test_mixed_row_forms_rejected(self):
        text = "C=1.0\ntolerance=0.001\nbias=0.5\n0.5,1,0.1,0.2\n0.5,-1\n"
        with pytest.raises(ValueError, match="mix"):
            SvmModel.from_text(text)

    def test_label_outside_plus_minus_one_names_row(self):
        text = "C=1\ntolerance=0.001\nbias=0\n0.5,1\n0.5,2\n-3,7\n"
        with pytest.raises(ValueError, match=r"model row 2 '0\.5,2' has label 2"):
            SvmModel.from_text(text)

    @pytest.mark.parametrize("row", ["0.5,1.0", "abc,1", "0.5,1,0.1,x"])
    def test_malformed_row_values_name_row(self, row):
        first = "0.5,-1" if row.count(",") == 1 else "0.5,-1,0.0,0.0"
        text = f"C=1\ntolerance=0.001\nbias=0\n{first}\n{row}\n"
        with pytest.raises(ValueError, match=re.escape(f"model row 2 {row!r} is malformed")):
            SvmModel.from_text(text)

    @pytest.mark.parametrize("rows, bad", [
        (["0.5,1,nan,0.1", "0.5,-1,inf,0.2"], 1),
        (["0.5,1,0.3,0.1", "0.5,-1,0.2,-inf"], 2),
    ])
    def test_non_finite_coordinates_name_row(self, rows, bad):
        # such points used to be read, and a later gram named no row
        text = "C=1\ntolerance=0.001\nbias=0\n" + "\n".join(rows) + "\n"
        row = rows[bad - 1]
        with pytest.raises(ValueError, match=re.escape(
                f"model row {bad} {row!r} is malformed; expected a numeric alpha, finite "
                "coordinates and an integer label")):
            SvmModel.from_text(text)

    def test_header_only_rejected(self):
        with pytest.raises(ValueError, match="no alpha,label rows"):
            SvmModel.from_text("C=1.0\ntolerance=0.001\nbias=0.5\n")

    @pytest.mark.parametrize("tail", [",0.1", ",0.1,0.2,0.3"])
    def test_rows_of_other_widths_rejected(self, tail):
        text = f"C=1\ntolerance=0.001\nbias=0\n0.5,1{tail}\n0.5,-1{tail}\n"
        with pytest.raises(ValueError, match="every row as alpha,label or every row"):
            SvmModel.from_text(text)

    @pytest.mark.parametrize("key", ("C", "tolerance", "bias"))
    def test_non_numeric_header_names_line(self, key):
        text = "C=1\ntolerance=0.001\nbias=0\n0.5,1\n0.5,-1\n"
        text = re.sub(f"^{key}=.*$", f"{key}=abc", text, flags=re.M)
        with pytest.raises(ValueError, match=f"model header line '{key}=abc' is not a number"):
            SvmModel.from_text(text)

    @pytest.mark.parametrize("header", ["C=-1", "C=0", "C=nan", "tolerance=0",
                                        "tolerance=nan", "bias=nan", "bias=inf"])
    def test_header_values_checked_as_train_does(self, header):
        key = header.split("=")[0]
        text = "C=1\ntolerance=0.001\nbias=0\n0.5,1\n0.5,-1\n"
        text = re.sub(f"^{key}=.*$", header, text, flags=re.M)
        with pytest.raises(ValueError, match="expected C > 0, tolerance > 0, finite bias"):
            SvmModel.from_text(text)

    @pytest.mark.parametrize("row", ["nan,1", "inf,1", "-5,-1", "7,1", "-1e-9,1"])
    def test_alpha_outside_zero_to_C_names_row(self, row):
        text = f"C=1\ntolerance=0.001\nbias=0\n0.5,-1\n{row}\n"
        with pytest.raises(ValueError, match=re.escape(f"model row 2 {row!r} has alpha")):
            SvmModel.from_text(text)

    def test_alpha_within_bound_slack_read(self):
        # train's models reach alpha = -2e-16; its at-bound slack accepts them
        text = "C=1\ntolerance=0.001\nbias=0\n-2e-16,1\n1.0000000000002,-1\n"
        assert SvmModel.from_text(text).alphas.tolist() == [-2e-16, 1.0000000000002]

    def test_infinite_C_read(self):
        text = "C=inf\ntolerance=0.001\nbias=0\n0.5,1\n0.5,-1\n"
        assert SvmModel.from_text(text).C == np.inf

    def test_infinite_tolerance_rejected(self):
        text = "C=1\ntolerance=inf\nbias=0\n0.5,1\n0.5,-1\n"
        with pytest.raises(ValueError, match="^tolerance must be finite, got inf$"):
            SvmModel.from_text(text)


def reference_splits(labels, folds, seed):
    """(train, test) indices of cross_validate's folds: one seeded shuffle, retried once."""
    n = len(labels)
    if len(np.unique(labels)) < 2:
        raise ValueError("both classes must be present for training")

    def fold_splits(shuffle_seed):
        order = np.random.default_rng(shuffle_seed).permutation(n)
        size = n // folds
        parts = [order[f * size:(f + 1) * size] for f in range(folds)]
        return [(np.concatenate(parts[:f] + parts[f + 1:]), parts[f]) for f in range(folds)]

    for shuffle_seed in (seed, seed + 1):
        splits = fold_splits(shuffle_seed)
        if all(len(np.unique(labels[tr])) >= 2 for tr, _ in splits):
            return splits
    raise ValueError("a fold is missing a class even after re-shuffle")


def reference_cross_validate(dataset, k, folds, C, tolerance, seed):
    """cross_validate's fold loop with two np.ix_ copies per fold, on one PSD matrix.

    The full matrix is clamped once, by its own dense eigendecomposition:
    when an eigenvalue is below -1e-6, every negative one is set to zero,
    with one warning.  Each fold then trains and scores on that matrix.
    """
    w, v = np.linalg.eigh(k)
    if w[0] < -1e-6:
        warnings.warn(f"Gram matrix has minimum eigenvalue {w[0]:.3e}; clamping to PSD",
                      RuntimeWarning)
        k = (v * np.clip(w, 0.0, None)) @ v.T
    train_acc, test_acc = [], []
    for train_idx, test_idx in reference_splits(dataset.labels, folds, seed):
        sub = k[np.ix_(train_idx, train_idx)]
        model = train(sub, dataset.labels[train_idx], C=C, tolerance=tolerance)
        train_acc.append(accuracy(model, sub, dataset.labels[train_idx]))
        test_rows = k[np.ix_(test_idx, train_idx)]
        test_acc.append(accuracy(model, test_rows, dataset.labels[test_idx]))
    return CvReport(tuple(train_acc), tuple(test_acc), seed)


def cyclic_splits(labels, folds, seed):
    """(train, test) of each fold in cross_validate's order: fold f trains on the
    reference blocks f + 1, ..., folds - 1, 0, ..., f - 1, in that order."""
    tests = [te for _, te in reference_splits(labels, folds, seed)]
    return [(np.concatenate(tests[f + 1:] + tests[:f]), te) for f, te in enumerate(tests)]


class TestCrossValidate:
    def make_separable(self, n=40):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, (3 * n, 2))
        pts = pts[np.abs(pts[:, 0]) > 0.2][:n]
        labels = np.where(pts[:, 0] > 0, 1, -1)
        return LabeledDataset(pts, labels)

    def test_separable_mean_train_one(self):
        ds = self.make_separable()
        # linear kernel separates on x1 directly
        p = ds.points
        report = cross_validate(ds, p @ p.T + 1.0, folds=5, C=1000.0)
        assert report.mean_train == 1.0

    def test_circle_ef1_band(self):
        ds = generate("circle", 100, seed=7)
        report = cross_validate(ds, gram(builtin("ef1"), ds.points), C=100.0)
        assert report.mean_train >= 0.95

    def test_same_seed_identical(self):
        ds = generate("xor", 40, seed=1)
        full = gram(builtin("ef1"), ds.points)
        a = cross_validate(ds, full, C=1.0, seed=3)
        b = cross_validate(ds, full.values, C=1.0, seed=3)
        assert a == b

    def test_report_means(self):
        r = CvReport((1.0, 0.9, 0.8, 0.7, 0.6), (0.5, 0.5, 0.5, 0.5, 0.5), 0)
        assert abs(r.mean_train - 0.8) < 1e-12
        assert abs(r.mean_test - 0.5) < 1e-12

    @pytest.mark.parametrize("folds", (0, 1, -1))
    def test_fewer_than_two_folds_rejected(self, folds):
        ds = generate("circle", 40, seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            cross_validate(ds, gram(builtin("ef1"), ds.points), folds=folds)

    @pytest.mark.parametrize("folds", (2.5, 5.0, np.float64(5), "5", None),
                             ids=["fraction", "whole float", "numpy float", "string", "None"])
    def test_non_integer_folds_rejected(self, folds):
        ds = generate("circle", 40, seed=0)
        message = f"folds must be an integer, got {folds!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cross_validate(ds, gram(builtin("ef1"), ds.points), folds=folds)

    def test_numpy_integer_folds_accepted(self):
        ds = generate("circle", 40, seed=0)
        k = gram(builtin("ef1"), ds.points)
        got = cross_validate(ds, k, folds=np.int64(5), C=10.0)
        want = cross_validate(ds, k, folds=5, C=10.0)
        assert (got.fold_train_accuracies, got.fold_test_accuracies) == \
            (want.fold_train_accuracies, want.fold_test_accuracies)

    def test_indivisible_size_rejected(self):
        ds = generate("circle", 42, seed=0)
        with pytest.raises(ValueError, match="divisible"):
            cross_validate(ds, gram(builtin("ef1"), ds.points), folds=5)

    def test_reshuffle_when_a_fold_misses_a_class(self):
        # two positives among six points in three folds: shuffle seeds 0 and
        # 36 put both positives in one test fold; seed 1 does not, 37 does
        ds = LabeledDataset(np.random.default_rng(0).uniform(-1, 1, (6, 2)),
                            np.array([1, 1, -1, -1, -1, -1]))
        full = gram(builtin("ef1"), ds.points)
        report = cross_validate(ds, full, folds=3, seed=0)
        assert report.seed == 0 and len(report.fold_test_accuracies) == 3
        with pytest.raises(ValueError, match="missing a class even after re-shuffle"):
            cross_validate(ds, full, folds=3, seed=36)

    @pytest.mark.parametrize("label", (1, -1))
    def test_one_class_rejected_before_the_shuffle(self, label):
        # no re-shuffle can give a fold both classes
        ds = LabeledDataset(np.zeros((10, 2)), np.full(10, label))
        with pytest.raises(ValueError, match="^both classes must be present for training$"):
            cross_validate(ds, np.eye(10), folds=5)

    def test_non_symmetric_gram_rejected(self):
        k = [[1, .9, 0, 0], [-.5, 1, 0, 0], [0, 0, 1, .2], [0, 0, .2, 1]]
        ds = LabeledDataset(np.zeros((4, 2)), [1, -1, 1, -1])
        with pytest.raises(ValueError, match=re.escape("max |K - K^T| is 1.400e+00 > 1e-6")):
            cross_validate(ds, k, folds=2, C=10.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_fold_order_is_the_reference_permutation(self, data):
        # few minority labels make the re-shuffle and the "missing a class" error
        # likely; folds from 2 to n, every divisor of n
        n = data.draw(st.integers(2, 40), label="n")
        folds = data.draw(st.sampled_from([f for f in range(2, n + 1) if n % f == 0]),
                          label="folds")
        minority = data.draw(st.integers(1, 3) | st.integers(0, n // 2), label="minority")
        sign = data.draw(st.sampled_from([1, -1]), label="sign")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        labels = np.full(n, -sign)
        labels[np.random.default_rng(seed).permutation(n)[:minority]] = sign
        try:
            splits = reference_splits(labels, folds, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                svm._fold_order(labels, folds, seed)
        else:
            order = svm._fold_order(labels, folds, seed)
            assert order.tobytes() == np.concatenate([te for _, te in splits]).tobytes()

    @pytest.mark.parametrize("folds", (2, 5))
    @pytest.mark.parametrize("route", ("exact", "pauli", "shots", "combined"))
    @pytest.mark.parametrize("kind, n", [("moon", 60), ("circle", 100), ("xor", 400)])
    def test_matches_reference_fold_loop(self, kind, n, route, folds):
        ds = generate(kind, n, seed=7)
        if route == "combined":
            full = combine([gram(builtin(e), ds.points) for e in ("ef1", "ef3")], [0.5, 1.5])
        else:
            full = gram(builtin("ef1"), ds.points, method=route, shots=1000, seed=7)
        reports = []
        for cv in (cross_validate, reference_cross_validate):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = cv(ds, full.values, folds, 100.0, 1e-3, 7)
            reports.append((report, [str(w.message) for w in caught]))
        assert reports[0] == reports[1]

    # (n, folds, a non-symmetric k): D's rows come in chunks of 65536 // n, which at
    # n = 270 is 242 rows, so chunks cross fold windows; 1600 is 40-row chunks.  Leave-
    # one-out at 270 is one (539, 538) matrix, 2.3 MB; a buffer per fold would be 157 MB
    FOLD_CASES = {"2 folds": (60, 2, False), "3 folds": (60, 3, False),
                  "4 folds": (60, 4, False), "5 folds": (60, 5, False),
                  "10 folds": (60, 10, False), "leave one out": (60, 60, False),
                  "leave one out 270": (270, 270, False), "non-symmetric": (60, 5, True),
                  "non-symmetric 270, 2 folds": (270, 2, True),
                  "non-symmetric 270, 3 folds": (270, 3, True),
                  "non-symmetric 270, 10 folds": (270, 10, True),
                  "non-symmetric 270, 90 folds": (270, 90, True),
                  "non-symmetric 1600, 2 folds": (1600, 2, True),
                  "non-symmetric 1600, 5 folds": (1600, 5, True),
                  "moon 1600": (1600, 5, False),
                  "below the cutoff": (svm._OVERLAP_FROM - 10, 5, False),
                  "at the cutoff": (svm._OVERLAP_FROM, 5, False)}

    @pytest.mark.parametrize("case", [*FOLD_CASES, "re-shuffle"])
    def test_folds_receive_reference_blocks(self, case):
        # every fold trains on k[tr, tr] and scores on it and on k[te, tr], byte for
        # byte, with tr its training points in cyclic block order, from its own lane's
        # start; all folds' arrays are views of one matrix.  The solves and starts are
        # stubbed, as only their inputs matter.  The matrix is built on a worker thread
        # from the cutoff on; the solves, scores and starts stay on this thread
        if case == "re-shuffle":  # fold seed 0 leaves a fold one class; seed 1 serves
            ds = LabeledDataset(np.random.default_rng(0).uniform(-1, 1, (6, 2)),
                                np.array([1, 1, -1, -1, -1, -1]))
            folds, seed, skew = 3, 0, False
        else:
            n, folds, skew = self.FOLD_CASES[case]
            ds, seed = generate("moon", n, seed=7), 7
        n = len(ds)
        if skew:  # a transposed block would show
            k = np.random.default_rng(n + folds).normal(size=(n, n))
        else:
            k = gram(builtin("ef1"), ds.points).values
        factor = np.random.default_rng(4).normal(size=(n, 3))
        trained, scored, threads = [], [], {}
        cyclic_gram = svm._cyclic_gram

        def fake_train(sub, labels, **kwargs):
            threads.setdefault("train", set()).add(threading.current_thread())
            trained.append((sub, labels, kwargs))
            return None

        def fake_accuracy(model, rows, labels):
            threads.setdefault("accuracy", set()).add(threading.current_thread())
            scored.append((rows, labels))
            return 0.5

        def lane_starts(g, y, C):
            """Each lane's start names the factor rows and labels it was given."""
            threads.setdefault("starts", set()).add(threading.current_thread())
            assert g.shape[0] == y.shape[0] == folds
            return [(lane_g, lane_y) for lane_g, lane_y in zip(g, y)]

        def builder(*args):
            threads.setdefault("builder", set()).add(threading.current_thread())
            return cyclic_gram(*args)

        with mock.patch.object(svm, "train", fake_train), \
                mock.patch.object(svm, "accuracy", fake_accuracy), \
                mock.patch.object(svm, "_warm_starts", lane_starts), \
                mock.patch.object(svm, "_cyclic_gram", builder), \
                mock.patch.object(svm, "_psd_factor", lambda k: (k, factor)):
            report = cross_validate(ds, k, folds=folds, seed=seed)
        here = threading.current_thread()
        assert threads["train"] == threads["accuracy"] == threads["starts"] == {here}
        assert (threads["builder"] == {here}) == (n < svm._OVERLAP_FROM)
        assert len(report.fold_test_accuracies) == len(trained) == folds
        bases = set()
        for f, (tr, te) in enumerate(cyclic_splits(ds.labels, folds, seed)):
            sub, labels, kwargs = trained[f]
            want_sub, want_test = k[np.ix_(tr, tr)], k[np.ix_(te, tr)]
            g, lane_y = kwargs["_start"]
            assert g.tobytes() == factor[tr].tobytes()
            assert lane_y.tolist() == labels.tolist() == ds.labels[tr].tolist()
            for got, want in ((sub, want_sub), (scored[2 * f][0], want_sub),
                              (scored[2 * f + 1][0], want_test)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                bases.add(id(got.base))
                assert got.base is not None and got.base.flags.owndata
            assert scored[2 * f][1].tolist() == ds.labels[tr].tolist()
            assert scored[2 * f + 1][1].tolist() == ds.labels[te].tolist()
        assert len(bases) == 1

    def test_model_lane_layout(self):
        # fold lane f holds its training rows, then its test rows at label 0; lane
        # `folds` is the whole factor with the dataset's labels; each fold starts from
        # its lane's first m entries, and the model, trained last on the whole PSD
        # matrix with the dataset's labels and points, from the last lane
        ds = generate("moon", 60, seed=7)
        k = gram(builtin("ef1"), ds.points).values
        psd = k.copy()  # the matrix _psd_factor returns, which the model's train reads
        factor = np.random.default_rng(4).normal(size=(60, 3))
        lanes, calls = [], []

        def lane_starts(g, y, C):
            lanes.append((g, y))
            return np.arange(y.size, dtype=float).reshape(y.shape)

        def fake_train(sub, labels, **kwargs):
            calls.append((sub, labels, kwargs))
            return len(calls)

        with mock.patch.object(svm, "train", fake_train), \
                mock.patch.object(svm, "accuracy", lambda *args: 0.5), \
                mock.patch.object(svm, "_warm_starts", lane_starts), \
                mock.patch.object(svm, "_psd_factor", lambda k: (psd, factor)):
            report, model = cross_validate(ds, k, folds=5, C=100.0, seed=7, _model=True)
        [(g, y)] = lanes
        assert g.shape == (6, 60, 3) and y.shape == (6, 60)
        for f, (tr, te) in enumerate(cyclic_splits(ds.labels, 5, 7)):
            assert g[f].tobytes() == factor[np.concatenate((tr, te))].tobytes()
            assert y[f].tolist() == ds.labels[tr].tolist() + [0.0] * len(te)
            assert calls[f][2]["_start"].tolist() == list(range(60 * f, 60 * f + len(tr)))
        assert g[5].tobytes() == factor.tobytes() and y[5].tolist() == ds.labels.tolist()
        assert len(calls) == 6 and model == 6  # the model is the last train call's
        sub, labels, kwargs = calls[5]
        assert sub is psd and labels is ds.labels and kwargs["points"] is ds.points
        assert kwargs["_start"].tolist() == list(range(300, 360))
        assert (kwargs["C"], kwargs["tolerance"]) == (100.0, 1e-3)
        assert report.fold_test_accuracies == (0.5,) * 5

    @pytest.mark.parametrize("kind", ("circle", "exp", "moon", "xor"))
    @pytest.mark.parametrize("n", (60, 400))
    def test_model_lane_keeps_reports(self, kind, n):
        # the padded fold lanes move their starts within the IPM's stop, not the
        # reports; the model, started by the model lane, is train's own on the full
        # Gram, byte for byte
        ds = generate(kind, n, seed=7)
        cases = [(eid, route) for eid in ("ef1", "ef3") for route in ("exact", "pauli", "shots")]
        for eid, route in cases if n == 60 else [("ef1", "exact")]:
            full = gram(builtin(eid), ds.points, method=route, shots=1000, seed=7).values
            for c in (1.0, 100.0):
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "Gram matrix has minimum", RuntimeWarning)
                    report, model = cross_validate(ds, full, 5, c, 1e-3, 7, _model=True)
                    assert report == cross_validate(ds, full, 5, c, 1e-3, 7)
                    alone = train(full, ds.labels, C=c, tolerance=1e-3, points=ds.points)
                assert model.to_text() == alone.to_text()
                assert model.alphas.tobytes() == alone.alphas.tobytes()
                assert (model.iterations, model.converged, model.final_gap) == \
                    (alone.iterations, alone.converged, alone.final_gap)

    @pytest.mark.parametrize("side", ("below", "at"))
    def test_block_builder_error_raised_and_joined(self, side):
        # a worker's exception is raised on the calling thread, after the join
        n = svm._OVERLAP_FROM - (10 if side == "below" else 0)
        ds = generate("moon", n, seed=7)
        full = gram(builtin("ef1"), ds.points)

        def no_memory(*args):
            raise MemoryError("Unable to allocate the cyclic Gram")

        before = threading.active_count()
        with mock.patch.object(svm, "_cyclic_gram", no_memory), \
                pytest.raises(MemoryError, match="^Unable to allocate the cyclic Gram$"):
            cross_validate(ds, full, folds=5, C=100.0, seed=7)
        assert threading.active_count() == before

    def test_ipm_error_joins_the_worker(self):
        # the IPM fails while the matrix is still being built: the build finishes,
        # and its thread is joined, before the error leaves cross_validate
        ds = generate("moon", svm._OVERLAP_FROM, seed=7)
        full = gram(builtin("ef1"), ds.points)
        cyclic_gram, built = svm._cyclic_gram, []

        def slow_builder(*args):
            time.sleep(0.2)
            built.append(cyclic_gram(*args))
            return built[-1]

        def failing_ipm(*args):
            raise MemoryError("Unable to allocate the IPM stack")

        before = threading.active_count()
        with mock.patch.object(svm, "_cyclic_gram", slow_builder), \
                mock.patch.object(svm, "_warm_starts", failing_ipm), \
                pytest.raises(MemoryError, match="^Unable to allocate the IPM stack$"):
            cross_validate(ds, full, folds=5, C=100.0, seed=7)
        assert threading.active_count() == before
        assert len(built) == 1

    @pytest.mark.parametrize("route", ("exact", "pauli", "shots"))
    @pytest.mark.parametrize("side", ("below", "above"))
    def test_overlap_keeps_reports_and_fold_bytes(self, route, side):
        # the worker builds the same matrix: both paths give the same reports, warnings
        # and fold models, and the reports equal the reference fold loop's
        n = svm._OVERLAP_FROM + (-100 if side == "below" else 100)
        ds = generate("moon", n, seed=7)
        full = gram(builtin("ef1"), ds.points, method=route, shots=1000, seed=7).values
        fold_train, runs = svm.train, []
        # the path that n takes, then the other one
        for cutoff in (svm._OVERLAP_FROM, n + 1 if side == "above" else 0):
            models = []

            def recording(*args, **kwargs):
                models.append(fold_train(*args, **kwargs))
                return models[-1]

            with mock.patch.object(svm, "train", recording), \
                    mock.patch.object(svm, "_OVERLAP_FROM", cutoff), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = cross_validate(ds, full, 5, 100.0, 1e-3, 7)
            runs.append((report, [str(w.message) for w in caught],
                         [(m.alphas.tobytes(), m.bias, m.iterations, m.converged,
                           m.final_gap) for m in models]))
        assert runs[0] == runs[1] and len(runs[0][2]) == 5
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Gram matrix has minimum", RuntimeWarning)
            assert runs[0][0] == reference_cross_validate(ds, full, 5, 100.0, 1e-3, 7)

    @pytest.mark.parametrize("route", ("exact", "pauli", "shots"))
    @pytest.mark.parametrize("n", (60, 400, 1600))
    def test_views_solve_and_score_as_copies(self, route, n):
        # each fold trains and scores on strided windows of one matrix: on C-contiguous
        # copies of its windows every fold gives the same model and decision bytes,
        # from its warm start and, at n = 60, from a cold one, where SMO takes updates
        ds = generate("moon", n, seed=7)
        full = gram(builtin("ef1"), ds.points, method=route, shots=1000, seed=7).values
        folds, C = 5, 100.0
        size, m = n // folds, n - n // folds
        order = svm._fold_order(ds.labels, folds, 7)
        ext = np.concatenate((order, order[:m]))
        rows = np.stack([ext[(f + 1) * size:(f + 1) * size + m] for f in range(folds)])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Gram matrix has minimum", RuntimeWarning)
            k, g = svm._psd_factor(full)
        starts = svm._warm_starts(g[rows], ds.labels[rows].astype(float), C)
        d = svm._cyclic_gram(k, ext, size)
        for f, (start, y) in enumerate(zip(starts, ds.labels[rows])):
            view = d[f * size:f * size + n, f * size:f * size + m]
            assert not view.flags.c_contiguous
            test_y = ds.labels[order[f * size:(f + 1) * size]]
            for first in (start, np.zeros(m)) if n == 60 else (start,):
                got = []
                for fold in (view, np.ascontiguousarray(view)):
                    model = train(fold[size:], y, C=C, _start=first)
                    got.append((model.alphas.tobytes(), model.bias, model.iterations,
                                model.final_gap, decide(model, fold[size:]).tobytes(),
                                decide(model, fold[:size]).tobytes(),
                                accuracy(model, fold[size:], y),
                                accuracy(model, fold[:size], test_y)))
                assert got[0] == got[1]

    def test_leave_one_out_memory_is_quadratic(self):
        # leave-one-out at n = 270 holds one (539, 538) matrix for all its folds; a
        # buffer per fold would hold 270 x 270 x 269 entries, 157 MB
        ds = generate("moon", 270, seed=7)
        full = gram(builtin("ef1"), ds.points)
        tracemalloc.start()
        try:
            cross_validate(ds, full, folds=270, C=100.0, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_shot_route_clamps_once(self):
        # the full Gram is clamped once, not once per fold
        ds = generate("moon", 60, seed=7)
        full = gram(builtin("ef1"), ds.points, method="shots", shots=1000, seed=7)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cross_validate(ds, full, folds=5, C=100.0, seed=7)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "clamping to PSD" in str(caught[0].message)

    @pytest.mark.parametrize("route, clamps", [("exact", 0), ("shots", 1)])
    def test_one_factor_per_run(self, route, clamps):
        # one certificate attempt on the full Gram; no fold factors, certifies or runs eigh
        ds = generate("moon", 100, seed=7)
        full = gram(builtin("ef1"), ds.points, method=route, shots=1000, seed=7)
        with mock.patch.object(svm, "_certified_factor", wraps=svm._certified_factor) as cf, \
                mock.patch.object(svm, "_clamp_psd", wraps=svm._clamp_psd) as cp, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Gram matrix has minimum", RuntimeWarning)
            cross_validate(ds, full, folds=5, C=100.0, seed=7)
        assert (cf.call_count, cp.call_count, eigh.call_count) == (1, clamps, clamps)

    @pytest.mark.parametrize("setting, message", [
        ({"tolerance": np.inf}, "^tolerance must be finite, got inf$"),
        ({"C": 0.0}, "^C and tolerance must be positive$"),
        ({"C": np.nan}, "^C and tolerance must be positive$"),
    ], ids=["infinite tolerance", "zero C", "NaN C"])
    def test_setting_misuse_fails_before_the_factor(self, setting, message):
        # a shot Gram would be clamped with a warning; the misuse is reported first
        ds = generate("moon", 60, seed=7)
        full = gram(builtin("ef1"), ds.points, method="shots", shots=1000, seed=7)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                cross_validate(ds, full, folds=5, seed=7, **{"C": 100.0, **setting})
        assert caught == [] and eigh.call_count == 0

    def test_infinite_C_trains_every_fold_from_zero(self):
        # C = inf fails every lane of the IPM, so each fold's SMO starts from zero
        ds = generate("xor", 40, seed=7)
        full = gram(builtin("ef1"), ds.points).values
        starts, fold_train = [], svm.train

        def recording(*args, **kwargs):
            starts.append(kwargs["_start"])
            return fold_train(*args, **kwargs)

        with mock.patch.object(svm, "train", recording):
            report = cross_validate(ds, full, 5, np.inf, 1e-3, 7)
        assert [start.tobytes() for start in starts] == [np.zeros(32).tobytes()] * 5
        assert report == reference_cross_validate(ds, full, 5, np.inf, 1e-3, 7)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_gram_rejected(self, bad):
        # with 2 folds an entry between the folds appears only in test rows
        ds = generate("circle", 40, seed=0)
        order = np.random.default_rng(0).permutation(40)  # the folds of seed 0
        i, j = order[0], order[-1]
        full = gram(builtin("ef1"), ds.points).values.copy()
        full[i, j] = full[j, i] = bad
        with pytest.raises(ValueError, match="gram has non-finite entries"):
            cross_validate(ds, full, folds=2)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("where", NON_FINITE_PLACES)
    def test_non_finite_gram_rejected_without_clamp(self, bad, where):
        k, labels = non_finite_gram(bad, where)
        ds = LabeledDataset(np.zeros((len(labels), 2)), labels)
        with warnings.catch_warnings(), pytest.raises(ValueError, match="gram has non-finite"):
            warnings.simplefilter("error")  # no clamp warning on the way
            cross_validate(ds, k, folds=2)

    @pytest.mark.parametrize("full", [GramMatrix(np.eye(10)), np.eye(40), np.ones((20, 40))],
                             ids=["smaller", "larger", "non-square"])
    def test_gram_size_must_match_dataset(self, full):
        # a larger Gram used to be sliced silently, a smaller one raised IndexError
        ds = generate("circle", 20, seed=0)
        with pytest.raises(ValueError, match="but the dataset has 20 points"):
            cross_validate(ds, full, folds=5)


MOON_20 = generate("moon", 20, 3)
SEEDED = {  # the library's seeded entry points
    "generate": lambda seed: generate("moon", 20, seed),
    "gram shots": lambda seed: gram(builtin("ef1"), MOON_20.points, "shots", 100, seed),
    "cross_validate": lambda seed: cross_validate(
        MOON_20, gram(builtin("ef1"), MOON_20.points), seed=seed),
}


@pytest.mark.parametrize("seed, message", [
    (2.5, "seed must be an integer, got 2.5"),
    ("3", "seed must be an integer, got '3'"),
    (None, "seed must be an integer, got None"),
    (-1, "seed must be a non-negative integer, got -1"),
], ids=["fraction", "string", "None", "negative"])
@pytest.mark.parametrize("entry", SEEDED)
def test_library_seed_rule(entry, seed, message):
    # 2.5 and "3" raised numpy's bare TypeError, -1 an unnamed ValueError; None drew OS
    # entropy in generate and gram and failed on seed + 1 in cross_validate
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SEEDED[entry](seed)


def as_bytes(result):
    if isinstance(result, LabeledDataset):
        return result.points.tobytes() + result.labels.tobytes()
    if isinstance(result, CvReport):
        return result.summary().encode()
    return result.values.tobytes() + f"seed={result.seed}".encode()  # the CSV header's


@pytest.mark.parametrize("entry", SEEDED)
def test_numpy_integer_seed_accepted(entry):
    assert as_bytes(SEEDED[entry](np.int64(5))) == as_bytes(SEEDED[entry](5))


def test_largest_uint64_seed_does_not_wrap():
    # seed + 1 of np.uint64(2**64 - 1) overflowed with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = SEEDED["cross_validate"](np.uint64(2 ** 64 - 1))
    assert report.seed == 2 ** 64 - 1


# (encoding, weight) per component of the paper-bound oracle's sum-of-kernels routes:
# every pair of built-ins, with weights (1, 1) and (1.5, 0.5) in turn
COMBINATIONS = {
    "combined": [((a, w), (b, 2.0 - w)) for (a, b), w in zip(
        itertools.combinations(("ef1", "ef2", "ef3", "ef4", "ef5"), 2),
        itertools.cycle((1.0, 1.5)))],
    "zero weight": [(("ef2", 1.5), ("ef5", 1.5), ("ef1", 0.0))],
}


@pytest.mark.parametrize("route", ("exact", "pauli", "shots", "combined", "zero weight"))
def test_fold_training_accuracy_meets_paper_bound(route):
    """The paper's bound: a linear classifier in the Pauli feature space reaches
    at least the best single-axis accuracy max_i R_i on its training set.

    The bound holds for the soft margin only at large C (at C = 1 some
    exact full-set solves fall below it), so C = 100.  A combination
    sum_i w_i K_i has every component with w_i > 0 in its feature space,
    scaled by sqrt(w_i), so each such component's single-axis thresholds
    are linear classifiers there: its bound is the largest of those
    components' bounds, and a zero-weight component adds nothing to it.
    """
    if route in COMBINATIONS:
        cases = itertools.product(("circle", "exp", "moon", "xor"), COMBINATIONS[route], (1, 7))
    else:
        cases = itertools.product(("circle", "exp", "moon", "xor"),
                                  [((eid, 1.0),) for eid in ("ef1", "ef2", "ef3", "ef4", "ef5")],
                                  (1, 7))
    below = []
    for kind, parts, seed in cases:
        ds = generate(kind, 100, seed=seed)
        if route in COMBINATIONS:
            full = combine([gram(builtin(eid), ds.points) for eid, _ in parts],
                           [w for _, w in parts])
        else:
            full = gram(builtin(parts[0][0]), ds.points, method=route, shots=1000, seed=seed)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Gram matrix has minimum", RuntimeWarning)
            report = cross_validate(ds, full, folds=5, C=100.0, seed=seed)
        for f, (tr, _) in enumerate(reference_splits(ds.labels, 5, seed)):
            fold = LabeledDataset(ds.points[tr], ds.labels[tr])
            bound = max(minimum_accuracy(fold, builtin(eid)).minimum_accuracy
                        for eid, w in parts if w > 0)
            if report.fold_train_accuracies[f] < bound - 1e-12:
                below.append((kind, parts, seed, f, report.fold_train_accuracies[f], bound))
    assert not below
