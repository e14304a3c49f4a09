"""Soft-margin kernel SVM trained by sequential minimal optimization.

The solver works on a precomputed Gram matrix.  The working pair is the
maximal violating pair in Keerthi's sense: with g_i = sum_j alpha_j y_j
K_ij and c_i = y_i - g_i, feasibility of the bias requires
max(c over the lower set) <= min(c over the upper set) + 2 * tolerance;
the pair attaining that gap is updated analytically each step.  At
convergence the bias is the midpoint of the feasible interval, which
makes every KKT residual at most the tolerance by construction.

Before solving, the Gram matrix is checked for positive semidefiniteness:
first a Cholesky factorisation of K + 1e-6 I (exact and Pauli Grams pass
here), and only if that fails an eigendecomposition, which clamps
eigenvalues below -1e-6 to zero with a RuntimeWarning naming the minimum
eigenvalue (shot Grams).  Each model records ``iterations``,
``converged`` and ``final_gap``; stopping after ``MAX_PASSES`` pair
updates or on a stalled step with the gap still above 2 * tolerance
raises a RuntimeWarning naming the gap and the tolerance.

Everything after training is batched: :func:`decide` maps an (m, n)
block of kernel rows against the n training points to m decision
values, and :func:`cross_validate` slices every fold out of the one
full-dataset Gram matrix it is given.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import GramMatrix

MAX_PASSES = 10_000  # SMO pair updates before train stops unconverged


@dataclass(frozen=True)
class LabeledDataset:
    """Points in the plane with binary labels in {-1, +1}."""

    points: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        lab = np.asarray(self.labels, dtype=int)
        if pts.ndim != 2 or pts.shape[0] != lab.shape[0]:
            raise ValueError("points and labels must have equal length")
        if not np.all(np.isin(lab, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        pts = pts.copy()
        lab = lab.copy()
        pts.setflags(write=False)
        lab.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lab)

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class SvmModel:
    """Dual solution: multipliers, bias, and the training labels/points.

    ``iterations``, ``converged`` and ``final_gap`` are the solver's stats
    (pair updates taken, whether the gap closed to 2*tolerance, and the
    last gap); they are None for a model not produced by ``train``, such
    as one read with ``from_text``, and are not serialised.
    """

    alphas: np.ndarray = field(repr=False)
    bias: float
    labels: np.ndarray = field(repr=False)
    C: float
    tolerance: float
    points: np.ndarray | None = field(default=None, repr=False)
    iterations: int | None = None
    converged: bool | None = None
    final_gap: float | None = None

    def dual_objective(self, gram_values: np.ndarray) -> float:
        ay = self.alphas * self.labels
        return float(self.alphas.sum() - 0.5 * ay @ gram_values @ ay)

    def to_text(self) -> str:
        lines = [f"C={float(self.C)!r}", f"tolerance={float(self.tolerance)!r}",
                 f"bias={float(self.bias)!r}"]
        for i, (a, y) in enumerate(zip(self.alphas, self.labels)):
            coords = ""
            if self.points is not None:
                coords = "," + ",".join(repr(float(v)) for v in self.points[i])
            lines.append(f"{float(a)!r},{int(y)}{coords}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SvmModel":
        """Parse :meth:`to_text` output; malformed text raises ValueError."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = dict(ln.split("=", 1) for ln in lines[:3] if "=" in ln)
        for key in ("C", "tolerance", "bias"):
            if key not in header:
                raise ValueError(f"model text is missing the {key!r} header line")
        rows = [ln.split(",") for ln in lines[3:]]
        if not rows:
            raise ValueError("model text has no alpha,label rows")
        widths = {len(r) for r in rows}
        if len(widths) > 1 or min(widths) < 2:
            raise ValueError("model rows mix forms or are malformed; expected every "
                             "row as alpha,label or every row as alpha,label,x1,x2")
        labels, values = [], []
        for i, r in enumerate(rows, start=1):
            try:
                labels.append(int(r[1]))
                values.append([float(v) for v in r[:1] + r[2:]])
            except ValueError:
                raise ValueError(f"model row {i} {','.join(r)!r} is malformed; expected a "
                                 "numeric alpha and coordinates and an integer label") from None
            if labels[-1] not in (-1, 1):
                raise ValueError(f"model row {i} {','.join(r)!r} has label {labels[-1]}; "
                                 "expected -1 or +1")
        values = np.array(values)
        pts = values[:, 1:] if min(widths) > 2 else None
        return cls(values[:, 0], float(header["bias"]), np.array(labels, dtype=int),
                   float(header["C"]), float(header["tolerance"]), pts)


def _clamp_psd(values: np.ndarray) -> np.ndarray:
    """Clamp negative eigenvalues to zero (shot noise can break PSD-ness).

    A Cholesky factorisation of ``values + 1e-6 I`` succeeds exactly when
    no eigenvalue lies below the -1e-6 acceptance threshold (up to
    round-off), so PSD Grams return after one O(n^3/3) factorisation and
    only the others pay for the eigendecomposition.
    """
    jittered = values.copy()
    jittered.flat[::len(values) + 1] += 1e-6
    try:
        np.linalg.cholesky(jittered)
        return values
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(values)
    if w[0] >= -1e-6:
        return values
    warnings.warn(
        f"Gram matrix has minimum eigenvalue {w[0]:.3e}; clamping to PSD",
        RuntimeWarning,
    )
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.T


def train(gram, labels, C: float = 1.0, tolerance: float = 1e-3,
          points=None) -> SvmModel:
    """Solve the soft-margin dual over a precomputed Gram matrix.

    Deterministic: pair selection is the maximal violating pair with
    lowest-index tie-breaks.  Warns (RuntimeWarning) when it stops at
    ``MAX_PASSES`` or on a stalled step before the gap closes; the
    model's ``converged``, ``iterations`` and ``final_gap`` say the same.
    """
    k = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = len(y)
    if k.shape != (n, n):
        raise ValueError("gram size does not match number of labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.all(y == y[0]):
        raise ValueError("both classes must be present for training")
    if not (C > 0 and tolerance > 0):  # also rejects NaN
        raise ValueError("C and tolerance must be positive")
    if not np.all(np.isfinite(k)):
        raise ValueError("gram has non-finite entries")
    k = _clamp_psd(k)

    # Python floats for the pair arithmetic; numpy only for n-vectors.
    ys = y.tolist()
    diag = k.diagonal().tolist()
    alphas = [0.0] * n
    cap = C - 1e-12
    g = np.zeros(n)  # sum_j alpha_j y_j K_ij, bias-free margin
    step = np.empty(n)
    step_j = np.empty(n)
    # c = y - g on the lower (upper) set and -inf (+inf) off it is
    # y_low - g (y_up - g), where y_low holds y on the lower set and -inf
    # off it.  Only the updated pair can change sets, so y_low and y_up
    # are kept incrementally.
    y_low = np.empty(n)
    y_up = np.empty(n)
    c_low = np.empty(n)
    c_up = np.empty(n)

    def place(m):
        """Put index m in or out of the lower and upper sets by its alpha."""
        a, y_m = alphas[m], ys[m]
        at_zero = a <= 1e-12
        at_c = a >= cap
        free = not (at_zero or at_c)
        # lower: alpha=0 & y=+1, alpha=C & y=-1, free (force b >= c_m - tol)
        # upper: alpha=0 & y=-1, alpha=C & y=+1, free (force b <= c_m + tol)
        in_low = free or (at_zero and y_m > 0) or (at_c and y_m < 0)
        in_up = free or (at_zero and y_m < 0) or (at_c and y_m > 0)
        y_low[m] = y_m if in_low else -np.inf
        y_up[m] = y_m if in_up else np.inf

    for m in range(n):
        place(m)

    def feasibility():
        """(gap, i_low, i_up, b) for the current multipliers."""
        np.subtract(y_low, g, out=c_low)
        np.subtract(y_up, g, out=c_up)
        i_low = int(np.argmax(c_low))
        i_up = int(np.argmin(c_up))
        top, bottom = c_low.item(i_low), c_up.item(i_up)
        return top - bottom, i_low, i_up, (top + bottom) / 2.0

    iterations = 0
    for _ in range(MAX_PASSES):
        gap, i, j, b = feasibility()
        if gap <= 2.0 * tolerance:
            break
        # two-variable analytic update of (alpha_i, alpha_j)
        a_i, a_j, y_i, y_j = alphas[i], alphas[j], ys[i], ys[j]
        if y_i != y_j:
            lo = max(0.0, a_j - a_i)
            hi = min(C, C + a_j - a_i)
        else:
            lo = max(0.0, a_i + a_j - C)
            hi = min(C, a_i + a_j)
        eta = diag[i] + diag[j] - 2.0 * k.item(i, j)
        eta = max(eta, 1e-12)
        e_i = g.item(i) - y_i
        e_j = g.item(j) - y_j
        aj_new = min(max(a_j + y_j * (e_i - e_j) / eta, lo), hi)
        d_j = aj_new - a_j
        if abs(d_j) < 1e-14:
            break  # numerically stuck; bias midpoint still minimizes residuals
        d_i = -y_i * y_j * d_j
        alphas[i] += d_i
        alphas[j] += d_j
        iterations += 1
        np.multiply(k[i], d_i * y_i, out=step)
        np.multiply(k[j], d_j * y_j, out=step_j)
        np.add(step, step_j, out=step)
        np.add(g, step, out=g)
        place(i)
        place(j)
    else:
        gap, _, _, b = feasibility()

    converged = gap <= 2.0 * tolerance
    if not converged:
        why = (f"max_passes={MAX_PASSES} reached" if iterations == MAX_PASSES
               else "step stalled below 1e-14")
        warnings.warn(
            f"SMO stopped unconverged after {iterations} iterations ({why}): "
            f"gap {gap:.3e} > 2*tolerance {2.0 * tolerance:.3e}",
            RuntimeWarning,
        )
    return SvmModel(np.array(alphas), float(b), np.asarray(labels, dtype=int), C,
                    tolerance, None if points is None else np.asarray(points, dtype=float),
                    iterations, converged, gap)


def decide(model: SvmModel, kernel_rows) -> np.ndarray:
    """(m,) decision values sum_i alpha_i y_i K(x_i, x) + b for (m, n) kernel rows.

    Row r holds K(x_i, x_r) against the n training points; the predicted
    label is the sign of its value, with exact zero resolving to +1.
    """
    rows = np.asarray(kernel_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(model.alphas):
        raise ValueError("kernel row length does not match training size")
    return rows @ (model.alphas * model.labels) + model.bias


def accuracy(model: SvmModel, kernel_rows: np.ndarray, labels) -> float:
    """Fraction of rows classified with the correct label (zero counts as +1)."""
    values, labels = decide(model, kernel_rows), np.asarray(labels)
    if labels.shape != values.shape or not len(values):
        raise ValueError(f"{len(values)} kernel rows and {labels.size} labels; accuracy "
                         "needs one label per row and at least one row")
    return float(np.mean(np.where(values >= 0.0, 1, -1) == labels))


def kkt_residuals(model: SvmModel, gram_values: np.ndarray) -> np.ndarray:
    """Per-point violation of the KKT conditions (0 when satisfied)."""
    y = model.labels.astype(float)
    u = (model.alphas * y) @ gram_values + model.bias
    margin = y * u
    res = np.zeros(len(y))
    at_zero = model.alphas <= 1e-12
    at_c = model.alphas >= model.C - 1e-12
    free = ~at_zero & ~at_c
    res[at_zero] = np.maximum(0.0, 1.0 - margin[at_zero])
    res[at_c] = np.maximum(0.0, margin[at_c] - 1.0)
    res[free] = np.abs(margin[free] - 1.0)
    return res


@dataclass(frozen=True)
class CvReport:
    """Per-fold and mean accuracies of a k-fold cross validation."""

    fold_train_accuracies: tuple
    fold_test_accuracies: tuple
    seed: int

    @property
    def mean_train(self) -> float:
        return float(np.mean(self.fold_train_accuracies))

    @property
    def mean_test(self) -> float:
        return float(np.mean(self.fold_test_accuracies))

    def summary(self) -> str:
        folds = " ".join(
            f"{tr:.4f}/{te:.4f}"
            for tr, te in zip(self.fold_train_accuracies, self.fold_test_accuracies)
        )
        return (f"folds(train/test): {folds}  "
                f"mean train={self.mean_train:.4f} test={self.mean_test:.4f} "
                f"seed={self.seed}")


def cross_validate(dataset: LabeledDataset, gram, folds: int = 5,
                   C: float = 1.0, tolerance: float = 1e-3, seed: int = 0) -> CvReport:
    """Seeded k-fold cross validation over a full-dataset Gram matrix.

    ``gram`` (a GramMatrix or a square array) holds the kernel between
    every pair of the dataset's points, in dataset order; fold sub-blocks
    are sliced out of it.  Folds are contiguous blocks of one seeded
    shuffle.  If a fold misses a class the shuffle is retried once with a
    derived seed, then an error is raised.
    """
    n = len(dataset)
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    if n % folds != 0:
        raise ValueError(f"dataset size {n} not divisible by {folds} folds")
    k = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    if k.shape != (n, n):
        raise ValueError(f"gram has shape {k.shape} but the dataset has {n} points")

    def fold_splits(shuffle_seed):
        order = np.random.default_rng(shuffle_seed).permutation(n)
        size = n // folds
        parts = [order[f * size:(f + 1) * size] for f in range(folds)]
        return [(np.concatenate(parts[:f] + parts[f + 1:]), parts[f]) for f in range(folds)]

    for shuffle_seed in (seed, seed + 1):
        splits = fold_splits(shuffle_seed)
        if all(len(np.unique(dataset.labels[tr])) >= 2 for tr, _ in splits):
            break
    else:
        raise ValueError("a fold is missing a class even after re-shuffle")

    train_acc, test_acc = [], []
    for train_idx, test_idx in splits:
        sub = k[np.ix_(train_idx, train_idx)]
        model = train(sub, dataset.labels[train_idx], C=C, tolerance=tolerance)
        train_acc.append(accuracy(model, sub, dataset.labels[train_idx]))
        test_rows = k[np.ix_(test_idx, train_idx)]
        test_acc.append(accuracy(model, test_rows, dataset.labels[test_idx]))
    return CvReport(tuple(train_acc), tuple(test_acc), seed)
