"""Soft-margin kernel SVM: an interior-point start on a Gram factor, finished by SMO.

The solver works on a precomputed Gram matrix, by one path for every
finite C: factor, interior point, SMO.  Every exact or Pauli Gram is
Phi Phi^T with Phi of width 16 (a combination of m encodings: at most
16m), so ``train`` first takes a pivoted Cholesky factor K ~ G G^T of at
most n // 4 columns.  When every row of R = K - G G^T sums to at most
1e-6 in absolute value, Gershgorin gives lambda_min(K) >= -1e-6, which
certifies K as PSD at O(n^2 r); a K with a non-finite entry never
certifies.  Any other Gram (shot Grams, full-rank or non-PSD matrices,
rank above n // 4) must be finite, and symmetric within 1e-6 as eigh
reads one triangle, and goes through the PSD check, one
eigendecomposition that clamps eigenvalues below -1e-6 to zero with a
RuntimeWarning naming the minimum eigenvalue, and whose eigenvectors
factor the clamped matrix.  A Mehrotra predictor-corrector
interior-point method then solves the dual in the factor's r-dimensional
space, one r x r Cholesky and one r x n operator per step (Fine &
Scheinberg, JMLR 2, 243 (2001); Ferris & Munson, SIAM J. Optim. 13, 783
(2002)).  It steps a stack of same-sized problems (lanes) in lockstep,
each numpy call acting on every live lane; ``train`` is its one-lane
case.  Its points, put on the box and on y^T alpha = 0, start SMO as one
float array, a row per lane: a lane it fails on (NaN, as at C = inf) or
left off balance is a zero row, SMO's cold start.

SMO's working pair is the maximal violating pair in Keerthi's sense:
with g_i = sum_j alpha_j y_j K_ij and c_i = y_i - g_i, feasibility of the
bias requires max(c over the lower set) <= min(c over the upper set) + 2
* tolerance; the pair attaining that gap is updated analytically each
step.  From the interior-point start SMO takes few updates or none, so
each step rebuilds both sets from alpha rather than keeping them.  At
convergence the bias is the midpoint of the feasible interval, which
makes every KKT residual at most the tolerance by construction.

Each model records ``iterations`` (SMO pair updates), ``converged`` and
``final_gap``; stopping after ``MAX_PASSES`` pair updates or on a stalled
step (below 1e-14, or below 1e-14 * C / 4e-12 under C = 4e-12, as no step
exceeds C) with the gap still above 2 * tolerance raises a RuntimeWarning
naming the gap and the tolerance.

Everything after training is batched: :func:`decide` maps an (m, n)
block of kernel rows against the n training points to m decision
values, and :func:`cross_validate` slices every fold out of one PSD
matrix and factor, made once from the full-dataset Gram it is given.
Its folds share their size and the factor's rank, so one lockstep IPM
over the folds' stacked factor rows starts every fold's SMO; for
``qkmap train --model-out`` the same call also trains the full-set
model on that matrix, started by one more lane, each fold lane padded
to n by its test rows at label 0, which the IPM leaves out of the
objective's quadratic term and the balance.  Fold f
tests on block f of one seeded permutation and trains on the blocks
after it in cyclic order, f + 1, ..., f - 1, so its test and training
points are one window of the permutation followed by its own head, and
every fold's training block and test rows are views of one matrix over
that doubled order.  From ``_OVERLAP_FROM`` points on, a one-worker
``ThreadPoolExecutor`` builds that matrix while the calling thread runs
the IPM; the same numpy calls fill it, so the results keep their bytes.
Solves and scores stay on the calling thread.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import GramMatrix
from .pauli import _integer, _seed

MAX_PASSES = 10_000  # SMO pair updates before train stops unconverged
IPM_STEPS = 100  # interior-point steps before the warm start is taken as it is
# From this many points cross_validate builds its folds' matrix on a worker thread
# while the IPM runs; below it the thread gains too little to tell.  5-fold CV,
# C = 100, moon ef1, 2 CPUs, medians of 21 alternating calls, inline against
# overlapped: n = 200 13.1 / 12.5 ms, 300 13.8 / 14.2, 400 16.7 / 16.2,
# 800 35.9 / 31.6, 1600 108 / 79.
_OVERLAP_FROM = 300


def _check_finite(points: np.ndarray) -> None:
    """Raise naming the first row of an (N, 2) point array with a non-finite coordinate."""
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad):
        raise ValueError(f"point {bad[0]} {points[bad[0]].tolist()} is not finite")


@dataclass(frozen=True)
class LabeledDataset:
    """Finite points in the plane with binary labels in {-1, +1}."""

    points: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        lab = np.asarray(self.labels)
        if pts.ndim != 2 or pts.shape[1] != 2 or lab.shape != pts.shape[:1]:
            raise ValueError(f"points must have shape (N, 2) with one label each, got "
                             f"{pts.shape} points and {lab.shape} labels")
        if not np.all(np.isin(lab, (-1, 1))):  # before the cast, which would make 1.9 a 1
            raise ValueError("labels must be -1 or +1")
        _check_finite(pts)
        pts = pts.copy()
        lab = lab.astype(int)
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

    def to_text(self) -> str:
        lines = [f"C={float(self.C)!r}", f"tolerance={float(self.tolerance)!r}",
                 f"bias={float(self.bias)!r}"]
        rows = zip(np.asarray(self.alphas, dtype=float).tolist(),
                   np.asarray(self.labels, dtype=int).tolist())
        if self.points is None:
            lines += [f"{a!r},{y}" for a, y in rows]
        else:
            lines += [f"{a!r},{y}," + ",".join(map(repr, p)) for (a, y), p
                      in zip(rows, np.asarray(self.points, dtype=float).tolist())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SvmModel":
        """Parse :meth:`to_text` output; malformed text raises ValueError."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = dict(ln.split("=", 1) for ln in lines[:3] if "=" in ln)
        head = []
        for key in ("C", "tolerance", "bias"):
            if key not in header:
                raise ValueError(f"model text is missing the {key!r} header line")
            try:
                head.append(float(header[key]))
            except ValueError:
                raise ValueError(f"model header line {key + '=' + header[key]!r} is not "
                                 "a number") from None
        c, tolerance, bias = head
        if not (c > 0 and tolerance > 0 and np.isfinite(bias)):  # as train; NaN fails
            raise ValueError(f"model header has C={c!r}, tolerance={tolerance!r}, "
                             f"bias={bias!r}; expected C > 0, tolerance > 0, finite bias")
        _check_settings(c, tolerance)
        rows = [ln.split(",") for ln in lines[3:]]
        if not rows:
            raise ValueError("model text has no alpha,label rows")
        widths = {len(r) for r in rows}
        if widths not in ({2}, {4}):
            raise ValueError("model rows mix forms or are malformed; expected every "
                             "row as alpha,label or every row as alpha,label,x1,x2")
        labels, values, eps = [], [], _bound_eps(c)
        for i, r in enumerate(rows, start=1):
            try:
                labels.append(int(r[1]))
                values.append([float(v) for v in r[:1] + r[2:]])
                if not np.isfinite(values[-1][1:]).all():  # gram would name no row
                    raise ValueError("non-finite coordinate")
            except ValueError:
                raise ValueError(f"model row {i} {','.join(r)!r} is malformed; expected a numeric "
                                 "alpha, finite coordinates and an integer label") from None
            if labels[-1] not in (-1, 1):
                raise ValueError(f"model row {i} {','.join(r)!r} has label {labels[-1]}; "
                                 "expected -1 or +1")
            alpha = values[-1][0]
            if not (np.isfinite(alpha) and -eps <= alpha <= c + eps):  # train writes -2e-16
                raise ValueError(f"model row {i} {','.join(r)!r} has alpha {alpha!r}; "
                                 f"expected a finite value in [0, C={c!r}]")
        values = np.array(values)
        pts = values[:, 1:] if widths == {4} else None
        return cls(values[:, 0], bias, np.array(labels, dtype=int), c, tolerance, pts)


def _clamp_psd(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, G): the Gram, clamped to PSD if it must be, and G G^T ~ matrix.

    One eigendecomposition: eigenvalues below -1e-6 (shot noise) are set to
    zero with a RuntimeWarning naming the minimum, giving the nearest PSD
    matrix in the Frobenius norm (Higham, Linear Algebra Appl. 103, 103
    (1988)).  G holds the eigenvectors scaled by sqrt(w) for every
    eigenvalue w above 1e-12 * the largest.
    """
    w, v = np.linalg.eigh(values)
    if w[0] < -1e-6:
        warnings.warn(
            f"Gram matrix has minimum eigenvalue {w[0]:.3e}; clamping to PSD",
            RuntimeWarning,
        )
        values = (v * np.clip(w, 0.0, None)) @ v.T
    keep = w > 1e-12 * w[-1]
    return values, v[:, keep] * np.sqrt(w[keep])


def _certified_factor(k: np.ndarray) -> np.ndarray | None:
    """G with K = G G^T + R and every row of |R| summing to at most 1e-6, or None.

    The pivot is the largest residual diagonal.  The factor is complete
    once that falls to 1e-12 * max diag(K); it fails at n // 4 columns or
    once a residual diagonal is below -1e-6, since residual diagonals
    only fall and each is the diagonal entry of its row of R.
    """
    n = len(k)
    d = k.diagonal().copy()
    stop = 1e-12 * d.max()
    rows = np.empty((n // 4, n))  # the columns of G, one per row
    r = 0
    while True:
        p = int(np.argmax(d))
        if d[p] <= stop:
            break
        if r == len(rows) or d.min() < -1e-6:
            return None
        rows[r] = (k[p] - rows[:r, p] @ rows[:r]) / np.sqrt(d[p])
        d -= rows[r] ** 2
        d[p] = 0.0
        r += 1
    g = rows[:r].T
    for i in range(0, n, 128):  # row blocks keep R out of main memory
        block = g[i:i + 128] @ g.T
        np.subtract(k[i:i + 128], block, out=block)
        if not np.abs(block, out=block).sum(axis=1).max() <= 1e-6:  # NaN fails too
            return None
    return g


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L,) per-lane dot products of two (L, m) stacks, each the BLAS dot a_l . b_l."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _interior_points(v: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """One (a, s) per lane, (L, 2, m): Mehrotra predictor-corrector on the dual with Q = V V^T.

    v stacks L problems' factor rows, (L, m, r), and y their labels, (L, m);
    all lanes step together, each numpy call acting on every live lane.
    For each lane it minimises 1/2 a^T Q a - sum(a) subject to y^T a = 0
    and a + s = C, a, s >= 0, with the slack s its own variable so that a
    multiplier near C keeps its distance to C to full precision.  Per
    step, one r x r Cholesky L L^T = I + V^T D^{-1} V and one r x m operator
    p = L^{-1} V^T D^{-1} give (D + V V^T)^{-1} = D^{-1} - p^T p
    (Sherman-Morrison-Woodbury), O(m r^2).  A lane stops when its duality
    measure is at most 1e-9 * C, or after IPM_STEPS steps, and keeps its NaN
    point once that measure is not finite; a lane whose Cholesky fails steps
    to NaN.  A stopped lane is dropped from every stack; each product is a
    per-slice ``np.matmul``, so every lane's bytes are those it would have alone
    on rows of the same memory layout: a stack's rows are C-ordered, F-ordered
    rows take other BLAS paths, so ``train`` runs its lane on C-ordered rows.
    A step makes the plain step's IEEE operations, operands and order, each
    once: w / s, -x, a z and s w are shared, the Newton steps fill one reused
    buffer, x steps in place, and sigma is a float64 scalar power per lane.
    """
    lanes, m, r = v.shape
    points, live = np.full((lanes, 2, m), np.nan), np.arange(lanes)
    x = np.empty((lanes, 4, m))  # a, s, z, w of each lane, stepped in place
    x[:, :2], x[:, 2:] = C / 2.0, 1.0
    beta, eye = np.zeros(lanes), np.eye(r)

    def measure(x):
        """The duality measure (a.z + s.w) / 2m of each lane, both dots from one np.matmul."""
        dots = np.matmul(x[:, :2, None, :], x[:, 2:, :, None])
        return (dots[:, 0, 0, 0] + dots[:, 1, 0, 0]) / (2.0 * m)

    def solve(rhs):
        """(D + V V^T)^{-1} rhs by Sherman-Morrison-Woodbury, per lane."""
        return rhs / d - np.matmul(np.matmul(p, rhs[:, :, None])[:, None, :, 0], p)[:, 0]

    def newton(r_az, r_sw):
        """The step of beta, writing those of a, s, z, w into dx: d_z = -(r_az + z d_a) / a."""
        m_rho = solve(neg_r_d - r_az / a + r_sw / s - w_s_r_u)
        d_beta = (_dots(y, m_rho) + r_e) / y_m_y
        np.subtract(m_rho, d_beta[:, None] * m_y, out=d_a)
        np.subtract(neg_r_u, d_a, out=d_s)
        np.divide(-(r_az + z * d_a), a, out=d_z)
        np.divide(-(r_sw + w * d_s), s, out=d_w)
        return d_beta

    def longest():
        """Largest step in (0, 1] per lane along dx keeping a, s, z, w nonnegative: the
        quotients of entries with dx >= 0, divisions by zero among them, are dropped."""
        return np.minimum.reduce(np.where(dx < 0.0, neg_x / dx, 1.0), axis=(1, 2), initial=1.0)

    mu = measure(x)
    for step in range(IPM_STEPS):
        keep = (finite := np.isfinite(mu)) & (mu > 1e-9 * C)
        if not step or not keep.all():  # the first step, or a lane stopped: bind the stack
            points[live[finite & ~keep]] = x[finite & ~keep, :2]
            if not keep.any():
                return points
            live, x, beta, v, y, mu = (t[keep] for t in (live, x, beta, v, y, mu))
            vt, dx = v.transpose(0, 2, 1), np.empty_like(x)  # dx: both Newton steps in turn
            a, s, z, w = x.transpose(1, 0, 2)
            d_a, d_s, d_z, d_w = dx.transpose(1, 0, 2)
        w_s, neg_x, az, sw = w / s, -x, a * z, s * w
        d = z / a + w_s
        vd = v / d[:, :, None]
        p = np.matmul(_inverse_factors(np.matmul(vt, vd) + eye), vd.transpose(0, 2, 1))
        neg_r_d = -(np.matmul(v, np.matmul(vt, a[:, :, None]))[:, :, 0] - 1.0
                    + beta[:, None] * y - z + w)
        r_u, r_e, m_y = a + s - C, _dots(y, a), solve(y)
        neg_r_u, w_s_r_u, y_m_y = -r_u, w_s * r_u, _dots(y, m_y)
        # predictor: the affine-scaling step, which sets the centering sigma
        newton(az, sw)
        mu_aff = measure(x + longest()[:, None, None] * dx)
        sigma = np.array([q ** 3 for q in mu_aff / mu])  # scalar powers: an array's moves bits
        # corrector: centred, with the predictor's second-order term, formed before dx is reused
        centre = (sigma * mu)[:, None]
        d_beta = newton(az + d_a * d_z - centre, sw + d_s * d_w - centre)
        t = 0.995 * longest()
        x += t[:, None, None] * dx
        beta = beta + t * d_beta
        mu = measure(x)
    points[live] = x[:, :2]
    return points


def _inverse_factors(q: np.ndarray) -> np.ndarray:
    """inv(L) per lane, L L^T = q, for a stack q of (r, r) matrices; NaN where that fails.

    A batched Cholesky raises for the whole stack when one lane fails, so
    the lanes are then factored one at a time; a lane whose Cholesky (or
    inverse) raises LinAlgError keeps its NaNs.
    """
    try:
        return np.linalg.inv(np.linalg.cholesky(q))
    except np.linalg.LinAlgError:
        pass
    factors = np.full_like(q, np.nan)
    for i, lane in enumerate(q):
        try:
            factors[i] = np.linalg.inv(np.linalg.cholesky(lane))
        except np.linalg.LinAlgError:
            pass
    return factors


def _warm_starts(g: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """SMO's starting multipliers per lane, (L, m), from the IPM on K ~ G G^T.

    g stacks each lane's factor rows, (L, m, r), and y its labels, (L, m).
    A multiplier within 1e-6 * C of a bound, read from the IPM point's a or
    its carried slack s, is set to the bound, so that SMO does not spend a
    pair update on each one; the others take their Euclidean projection
    onto y^T a = 0, clipped to the box.  A lane then more than 1e-9 * C off
    y^T a = 0 is a zero row, SMO's cold start.  So is a NaN lane, on which
    the IPM failed (every lane at C = inf, whose duality measure is
    infinite from the first step), as NaN fails that comparison.
    """
    with np.errstate(all="ignore"):  # NaN lanes, and lanes with no free multiplier
        a, s = _interior_points(y[:, :, None] * g, y, C).transpose(1, 0, 2)
        at_zero = a <= 1e-6 * C
        at_c = ~at_zero & (s <= 1e-6 * C)
        free = ~(at_zero | at_c)
        a = np.where(at_zero, 0.0, np.where(at_c, C, a))
        shift = _dots(y, a) / np.count_nonzero(free, axis=1)
        a = np.where(free, np.clip(a - shift[:, None] * y, 0.0, C), a)
        return np.where((np.abs(_dots(y, a)) <= 1e-9 * C)[:, None], a, 0.0)


def _psd_factor(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, G): K's certified pivoted Cholesky, or else the PSD check's clamp of a symmetric K.

    G G^T factors the returned matrix, and the rows G[idx] factor its
    principal sub-block k[idx][:, idx]: each row of a sub-block of |R|
    sums to no more than the full row, so the certificate carries over.
    Only an uncertified K is scanned for non-finite entries and asymmetry:
    a non-finite entry leaves its residual row non-finite, which fails the
    certificate, and a certified factor bounds |K - K^T| by 2e-6 per entry.
    """
    with np.errstate(all="ignore"):  # a non-finite residual fails the certificate
        g = _certified_factor(k)
    if g is not None:
        return k, g
    if not np.all(np.isfinite(k)):
        raise ValueError("gram has non-finite entries")
    if (skew := np.max(np.abs(k - k.T))) > 1e-6:  # eigh reads one triangle
        raise ValueError(f"gram is not symmetric: max |K - K^T| is {skew:.3e} > 1e-6")
    return _clamp_psd(k)


def _check_settings(C: float, tolerance: float) -> None:
    """C > 0 (inf is the hard margin) and a finite tolerance > 0; NaN fails."""
    if not (C > 0 and tolerance > 0):
        raise ValueError("C and tolerance must be positive")
    if tolerance == np.inf:  # every gap is within 2 * inf: each solve would converge
        raise ValueError(f"tolerance must be finite, got {tolerance!r}")


def train(gram, labels, C: float = 1.0, tolerance: float = 1e-3, points=None, *,
          _start: np.ndarray | None = None) -> SvmModel:
    """Solve the soft-margin dual over a precomputed Gram matrix.

    Deterministic: the Gram is factored (certified pivoted Cholesky, or
    the PSD check's eigendecomposition), the IPM on that factor starts
    SMO, and SMO finishes, choosing the maximal violating pair with
    lowest-index tie-breaks.  Warns (RuntimeWarning) when the PSD check
    clamps, and when SMO stops at ``MAX_PASSES`` or on a stalled step
    before the gap closes; the model's ``converged``, ``iterations`` and
    ``final_gap`` say the same.  The private keyword ``_start`` takes SMO's
    start on ``gram`` (a PSD matrix) that :func:`cross_validate` has already
    computed, one row of :func:`_warm_starts`, zeros for a cold start; given
    a start, train neither factors nor runs the IPM.
    """
    k = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float)
    if y.ndim != 1:  # (n, 1) labels would fail at unpacking in SMO
        raise ValueError(f"labels must have shape (N,), got {y.shape}")
    n = len(y)
    if k.shape != (n, n):
        raise ValueError("gram size does not match number of labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.all(y == y[0]):
        raise ValueError("both classes must be present for training")
    _check_settings(C, tolerance)
    if points is not None:  # as from_text reads them
        if np.shape(points) != (n, 2):
            raise ValueError(f"points must have shape ({n}, 2), got {np.shape(points)}")
        _check_finite(np.asarray(points, dtype=float))
    if _start is None:  # train is the IPM's one-lane case
        k, g = _psd_factor(k)  # both factors are F-ordered; a stack's rows are C-ordered
        _start = _warm_starts(np.ascontiguousarray(g)[None], y[None], C)[0]
    return _smo(k, labels, C, tolerance, points, _start)


def _bound_eps(C: float) -> float:
    """How near 0 or C a multiplier is at that bound: 1e-12, or 8 ulps of C >= 1024.

    A pair update next to a multiplier near C resolves no finer than C's ulp;
    below C = 4e-12 the slack is C / 4, so that no multiplier is at both bounds.
    """
    return min(float(np.fmax(1e-12, 8.0 * np.spacing(C))), C / 4)  # fmax drops inf's NaN


def _smo(k: np.ndarray, labels, C: float, tolerance: float, points, start) -> SvmModel:
    """The SMO loop over a PSD Gram k from the multipliers ``start`` (zeros: a cold start)."""
    y = np.asarray(labels, dtype=float)
    alphas = start.copy()
    g = k @ (start * y)  # sum_j alpha_j y_j K_ij
    eps = _bound_eps(C)
    stall = 1e-14 * min(1.0, C / 4e-12)  # every step is at most C
    pos, neg = y > 0, y < 0

    def feasibility():
        """(gap, i_low, i_up, b) for the current multipliers."""
        c = y - g
        # lower set: indices forcing b >= c_i - tol
        #   alpha=0 & y=+1, alpha=C & y=-1, 0<alpha<C
        # upper set: indices forcing b <= c_i + tol
        #   alpha=0 & y=-1, alpha=C & y=+1, 0<alpha<C
        at_zero = alphas <= eps
        at_c = alphas >= C - eps
        free = ~(at_zero | at_c)
        c_low = np.where(free | (at_zero & pos) | (at_c & neg), c, -np.inf)
        c_up = np.where(free | (at_zero & neg) | (at_c & pos), c, np.inf)
        i_low, i_up = int(np.argmax(c_low)), int(np.argmin(c_up))
        top, bottom = c_low.item(i_low), c_up.item(i_up)
        return top - bottom, i_low, i_up, (top + bottom) / 2.0

    for iterations in range(MAX_PASSES + 1):  # iterations: pair updates so far
        gap, i, j, b = feasibility()
        if gap <= 2.0 * tolerance or iterations == MAX_PASSES:
            break
        # two-variable analytic update of (alpha_i, alpha_j)
        a_i, a_j, y_i, y_j = alphas.item(i), alphas.item(j), y.item(i), y.item(j)
        if y_i != y_j:
            lo, hi = max(0.0, a_j - a_i), min(C, C + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - C), min(C, a_i + a_j)
        eta = max(k.item(i, i) + k.item(j, j) - 2.0 * k.item(i, j), 1e-12)
        e_i = g.item(i) - y_i
        e_j = g.item(j) - y_j
        d_j = min(max(a_j + y_j * (e_i - e_j) / eta, lo), hi) - a_j
        if abs(d_j) < stall:
            break  # numerically stuck; bias midpoint still minimizes residuals
        d_i = -y_i * y_j * d_j
        alphas[i] += d_i
        alphas[j] += d_j
        g += (d_i * y_i) * k[i] + (d_j * y_j) * k[j]

    converged = gap <= 2.0 * tolerance
    if not converged:
        why = (f"max_passes={MAX_PASSES} reached" if iterations == MAX_PASSES
               else f"step stalled below {stall:g}")
        warnings.warn(f"SMO stopped unconverged after {iterations} iterations ({why}): "
                      f"gap {gap:.3e} > 2*tolerance {2.0 * tolerance:.3e}", RuntimeWarning)
    return SvmModel(alphas, float(b), np.asarray(labels, dtype=int), C,
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
    """Fraction of rows classified with the correct label (zero counts as +1);
    a row whose decision value is not finite has no sign and raises ValueError."""
    values, labels = decide(model, kernel_rows), np.asarray(labels)
    if labels.shape != values.shape or not len(values):
        raise ValueError(f"{len(values)} kernel rows and {labels.size} labels; accuracy "
                         "needs one label per row and at least one row")
    if not np.all(np.abs(labels) == 1):  # 0/1 labels would score as if every 0 were wrong
        raise ValueError("labels must be -1 or +1")
    bad = np.flatnonzero(~np.isfinite(values))  # NaN >= 0 is False: it would score as -1
    if len(bad):
        raise ValueError(f"kernel row {bad[0]} has a non-finite decision value")
    return float(np.mean(np.where(values >= 0.0, 1, -1) == labels))


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


def _fold_order(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """The seeded shuffle whose block f is fold f's test points; misuse raises ValueError."""
    n = len(labels)
    folds = _integer(folds, "folds")  # 2.5 or 5.0 would fail in numpy's reshape
    seed = _seed(seed)  # an np.uint64 seed would wrap at seed + 1
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    if n % folds != 0:
        raise ValueError(f"dataset size {n} not divisible by {folds} folds")
    if not (np.any(labels > 0) and np.any(labels < 0)):  # no shuffle can help
        raise ValueError("both classes must be present for training")
    for shuffle_seed in (seed, seed + 1):
        order = np.random.default_rng(shuffle_seed).permutation(n)
        held = np.count_nonzero((labels[order] > 0).reshape(folds, -1), axis=1)
        trained = held.sum() - held  # each fold's training positives, of n - n // folds
        if np.all((trained > 0) & (trained < n - n // folds)):
            return order
    raise ValueError("a fold is missing a class even after re-shuffle")


def _cyclic_gram(k: np.ndarray, ext: np.ndarray, size: int) -> np.ndarray:
    """D = k[ext][:, ext[size:]], taken in chunks of 65536 // n rows (512 KB of k).

    With ``ext`` the fold order followed by its first n - size points, fold
    f's test block and its training points in cyclic order are the window
    ext[f * size:f * size + n].  Pure numpy: it may run on a worker thread.
    """
    d = np.empty((len(ext), len(ext) - size))
    step = max(1, 65536 // len(k))  # rows of D per chunk
    for i in range(0, len(ext), step):
        d[i:i + step] = k.take(ext[i:i + step], 0).take(ext[size:], 1)
    return d


def cross_validate(dataset: LabeledDataset, gram, folds: int = 5, C: float = 1.0,
                   tolerance: float = 1e-3, seed: int = 0, *, _model: bool = False):
    """Seeded k-fold cross validation over a full-dataset Gram matrix.

    ``gram`` (a GramMatrix or a square array) holds the kernel between
    every pair of the dataset's points, in dataset order.  It is factored
    once, and clamped to PSD once if it must be (with one warning), after
    the folds, C and tolerance are checked; every fold trains on its
    principal sub-block of that one matrix, started by its lane of one
    lockstep IPM on the factor's rows, and scores training and test points
    on that matrix too.  The clamp sees test points' kernel entries but
    not their labels.  Folds are contiguous blocks of one seeded shuffle;
    fold f trains on blocks f + 1, ..., f - 1 in cyclic order, on views of
    one (2n - n/folds) x (2n - 2n/folds) matrix.  If a fold misses a class
    the shuffle is retried once with seed + 1, then an error is raised; a
    one-class dataset raises at once.  ``folds`` and ``seed`` must be
    integers, ``seed`` non-negative.

    For ``qkmap train --model-out``: ``_model=True`` returns ``(report,
    model)``, where ``model`` is ``train`` of the full set on that one PSD
    matrix, with the dataset's labels and points.  One more lane of the
    folds' IPM starts it, byte for byte as ``train`` would start itself,
    and it trains after the folds.  The fold lanes are then padded to n,
    which may move their starts within the IPM's stop but not the report.
    """
    n = len(dataset)
    order = _fold_order(dataset.labels, folds, seed)
    _check_settings(C, tolerance)
    k = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    if k.shape != (n, n):
        raise ValueError(f"gram has shape {k.shape} but the dataset has {n} points")
    k, g = _psd_factor(k)
    size, m = n // folds, n - n // folds
    ext = np.concatenate((order, order[:m]))
    # row f: fold f's test block, then the m points after it in cyclic order, its training set
    windows = ext[size * np.arange(folds)[:, None] + np.arange(n)]
    labels = dataset.labels[windows]
    # every fold has the same size and the factor's rank: one lockstep IPM starts them all
    rows, lane_y = windows[:, size:], labels[:, size:].astype(float)
    if _model:  # lane `folds` is the full set; fold lanes pad with their test rows at y = 0
        rows = np.vstack((np.hstack((rows, windows[:, :size])), np.arange(n)))
        lane_y = np.vstack((np.hstack((lane_y, np.zeros((folds, size)))), dataset.labels))
    lanes = (g[rows], lane_y, C)  # fancy indexing: C-ordered rows, as train's one lane
    if n < _OVERLAP_FROM:
        d, starts = _cyclic_gram(k, ext, size), _warm_starts(*lanes)
    else:  # the builder reads only k, the IPM only the factor rows, so they overlap
        from concurrent.futures import ThreadPoolExecutor  # here: its import costs ~5 ms
        with ThreadPoolExecutor(1) as pool:  # leaving the block joins the worker
            building = pool.submit(_cyclic_gram, k, ext, size)
            starts = _warm_starts(*lanes)
        d = building.result()  # raises the worker's exception, BaseException included
    if _model:  # the pads are cut off
        full_start, starts = starts[folds], starts[:folds, :m]
    train_acc, test_acc = [], []
    for f, (start, y) in enumerate(zip(starts, labels)):
        view = d[f * size:f * size + n, f * size:f * size + m]  # rows in window f's order
        model = train(view[size:], y[size:], C=C, tolerance=tolerance, _start=start)
        train_acc.append(accuracy(model, view[size:], y[size:]))
        test_acc.append(accuracy(model, view[:size], y[:size]))
    report = CvReport(tuple(train_acc), tuple(test_acc), seed)
    if _model:  # after the folds, so that its warnings follow theirs
        return report, train(k, dataset.labels, C=C, tolerance=tolerance,
                             points=dataset.points, _start=full_start)
    return report
