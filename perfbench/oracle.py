"""Output oracle for the benchmark, independent of the package under test.

Everything here is recomputed from the circuit definition with dense
matrices: the 4x4 Paulis, H (x) H, and the diagonal phase layer
exp(-i/2 (phi1 z1 + phi2 z2 + phi12 z1 z2)).  Nothing imports qkmap.
Qubit 1 is the least-significant bit of the amplitude index, so the
Pauli with index i = d1 + 4 d2 is kron(P[d2], P[d1]).

Each ``check_*`` function reads what one CLI command wrote and returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

_PHI12 = {
    "ef1": lambda x1, x2: np.pi * x1 * x2,
    "ef2": lambda x1, x2: (np.pi / 2.0) * (1.0 - x1) * (1.0 - x2),
    "ef3": lambda x1, x2: np.exp((x1 - x2) ** 2 / (8.0 / np.log(np.pi))),
    "ef4": lambda x1, x2: np.pi / (3.0 * np.cos(x1) * np.cos(x2)),
    "ef5": lambda x1, x2: np.pi * np.cos(x1) * np.cos(x2),
}
ENCODINGS = tuple(_PHI12)

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_P = (_I, _X, _Y, _Z)
PAULIS = np.array([np.kron(_P[i >> 2], _P[i & 3]) for i in range(16)])
LABELS = tuple("IXYZ"[i & 3] + "IXYZ"[i >> 2] for i in range(16))
_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
_HH = np.kron(_H, _H)
_BITS = np.arange(4)
_Z1 = 1.0 - 2.0 * (_BITS & 1)
_Z2 = 1.0 - 2.0 * ((_BITS >> 1) & 1)

# Shot-noise band for an estimated kernel entry: |count - shots K| must not
# exceed SHOT_BAND_SIGMAS standard deviations plus SHOT_BAND_SLACK counts.
SHOT_BAND_SIGMAS = 7.0
SHOT_BAND_SLACK = 7.0
TOL = 1e-12


def states(encoding: str, points) -> np.ndarray:
    """(N, 4) feature states D H D H |00> for a built-in encoding."""
    x = np.asarray(points, dtype=float).reshape(-1, 2)
    x1, x2 = x[:, 0], x[:, 1]
    phi12 = _PHI12[encoding](x1, x2)
    phase = -0.5 * (np.outer(x1, _Z1) + np.outer(x2, _Z2) + np.outer(phi12, _Z1 * _Z2))
    diag = np.exp(1j * phase)
    psi = np.zeros((len(x), 4), dtype=complex)
    psi[:, 0] = 1.0
    for _ in range(2):
        psi = diag * (psi @ _HH.T)
    return psi


def coefficients(encoding: str, points) -> np.ndarray:
    """(N, 16) Pauli coefficients a_i = <psi|sigma_i|psi> / 4."""
    psi = states(encoding, points)
    return np.einsum("na,iab,nb->ni", psi.conj(), PAULIS, psi).real / 4.0


def gram(encoding: str, points) -> np.ndarray:
    """Exact kernel |<psi(x)|psi(z)>|^2."""
    return np.concatenate([block for _, block in gram_blocks(encoding, points)])


def gram_blocks(encoding: str, points, rows: int = 256):
    """(row slice, block) pairs of the exact Gram, to bound the oracle's memory."""
    psi = states(encoding, points)
    for start in range(0, len(psi), rows):
        part = slice(start, start + rows)
        yield part, np.abs(psi[part].conj() @ psi.T) ** 2


def read_dataset(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, :2], data[:, 2].astype(int)


def read_matrix_csv(path):
    """(header line, values) of a CSV matrix with an optional '#' header."""
    with open(path) as fh:
        first = fh.readline()
    header = first.strip() if first.startswith("#") else ""
    values = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    return header, values


def _header_fields(header):
    return dict(part.split("=", 1) for part in header.lstrip("# ").split() if "=" in part)


def _best_split_accuracy(values, labels):
    """Best single-threshold accuracy, every threshold tried.

    Values closer than TOL count as one value, so round-off between two
    routes to the same coefficient does not create a split.
    """
    order = np.argsort(values, kind="stable")
    v, y = values[order], labels[order]
    starts = np.flatnonzero(np.diff(v) > TOL) + 1
    thresholds = np.concatenate(([v[0] - 1.0], (v[starts - 1] + v[starts]) / 2.0))
    left = v[None, :] < thresholds[:, None]
    pos = (y == 1)[None, :]
    left_positive = np.sum(left == pos, axis=1)
    best = max(int(left_positive.max()), int((len(v) - left_positive).max()))
    return best


def check_screen(stdout: str, dataset_path, encodings) -> list[str]:
    """``screen --csv``: each minimum accuracy against a brute-force search."""
    points, labels = read_dataset(dataset_path)
    n = len(labels)
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "encoding,minimum_accuracy,best_axis,best_threshold,orientation":
        return [f"screen: unexpected header {lines[:1]!r}"]
    rows = [ln.split(",") for ln in lines[1:]]
    if [r[0] for r in rows] != list(encodings):
        return [f"screen: encodings {[r[0] for r in rows]} != {list(encodings)}"]
    problems = []
    for eid, acc, axis, thr, orient in rows:
        a = coefficients(eid, points)
        best = max(_best_split_accuracy(a[:, i], labels) for i in range(16))
        if float(acc) != best / n:
            problems.append(f"screen {eid}: minimum accuracy {acc} != oracle {best}/{n}")
            continue
        if axis not in LABELS:
            problems.append(f"screen {eid}: unknown axis {axis!r}")
            continue
        left = a[:, LABELS.index(axis)] < float(thr)
        sign = {"left-positive": 1, "left-negative": -1}.get(orient)
        if sign is None:
            problems.append(f"screen {eid}: unknown orientation {orient!r}")
            continue
        pred = np.where(left, sign, -sign)
        if int(np.sum(pred == labels)) != best:
            problems.append(f"screen {eid}: axis {axis} threshold {thr} does not reach {acc}")
    return problems


def check_exact_gram(path, dataset_path, encoding) -> list[str]:
    header, k = read_matrix_csv(path)
    points, _ = read_dataset(dataset_path)
    fields = _header_fields(header)
    problems = []
    if fields.get("method") != "exact" or fields.get("size") != str(len(points)):
        problems.append(f"gram header {header!r}")
    if k.shape != (len(points), len(points)):
        return problems + [f"gram shape {k.shape}"]
    err = max(float(np.max(np.abs(k[part] - block)))
              for part, block in gram_blocks(encoding, points))
    if err > TOL:
        problems.append(f"exact gram differs from oracle by {err:.3e}")
    return problems


def check_shot_gram(path, dataset_path, encoding, shots) -> list[str]:
    """Diagonal exactly 1, symmetric, every entry inside the binomial band."""
    header, k = read_matrix_csv(path)
    points, _ = read_dataset(dataset_path)
    fields = _header_fields(header)
    problems = []
    if fields.get("method") != "shots" or fields.get("shots") != str(shots):
        problems.append(f"shot gram header {header!r}")
    if k.shape != (len(points), len(points)):
        return problems + [f"shot gram shape {k.shape}"]
    if not np.all(np.diag(k) == 1.0):
        problems.append("shot gram diagonal is not exactly 1")
    if not np.array_equal(k, k.T):
        problems.append("shot gram is not symmetric")
    exact = gram(encoding, points)
    sigma = np.sqrt(shots * exact * (1.0 - exact).clip(0.0))
    dev = np.abs(k * shots - exact * shots)
    outside = dev > SHOT_BAND_SIGMAS * sigma + SHOT_BAND_SLACK
    if outside.any():
        i, j = np.argwhere(outside)[0]
        problems.append(f"shot gram entry ({i}, {j}) = {k[i, j]!r} outside the band "
                        f"around {exact[i, j]!r} ({int(outside.sum())} entries)")
    return problems


def lattice(lo, hi, resolution):
    """Grid points in heat-map order: x2 descending by row, x1 ascending."""
    x1s = np.linspace(lo, hi, resolution)
    x1, x2 = np.meshgrid(x1s, x1s[::-1])
    return np.stack([x1.ravel(), x2.ravel()], axis=1)


def check_heatmap(out_dir, encoding, labels, lo, hi, resolution, pgm) -> list[str]:
    """Each grid CSV against the oracle at every lattice point; PGM headers."""
    a = coefficients(encoding, lattice(lo, hi, resolution))
    problems = []
    for label in labels:
        want = a[:, LABELS.index(label)].reshape(resolution, resolution)
        _, got = read_matrix_csv(f"{out_dir}/{label}.csv")
        if got.shape != want.shape:
            problems.append(f"grid {label} shape {got.shape}")
            continue
        err = float(np.max(np.abs(got - want)))
        if err > TOL:
            problems.append(f"grid {label} differs from oracle by {err:.3e}")
        if pgm:
            problems += _check_pgm(f"{out_dir}/{label}.pgm", want)
    return problems


def _check_pgm(path, want) -> list[str]:
    rows, cols = want.shape
    head = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(head) or len(data) != len(head) + rows * cols:
        return [f"{path}: bad PGM header or size"]
    span = want.max() - want.min()
    if span < 1e-9:
        return []  # constant up to round-off: normalising leaves the pixels undetermined
    pixels = np.frombuffer(data[len(head):], dtype=np.uint8).reshape(rows, cols)
    if np.max(np.abs(pixels - (want - want.min()) / span * 255.0)) > 1.0:
        return [f"{path}: pixels differ from the normalised oracle grid"]
    return []


def check_train_csv(stdout: str, folds: int) -> list[str]:
    """``train --csv``: one row per fold plus the mean row."""
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "fold,train_accuracy,test_accuracy":
        return [f"train: unexpected header {lines[:1]!r}"]
    rows = [ln.split(",") for ln in lines[1:folds + 2]]
    if len(rows) != folds + 1 or rows[-1][0] != "mean":
        return ["train: expected one row per fold and a mean row"]
    acc = np.array([[float(r[1]), float(r[2])] for r in rows[:-1]])
    mean = np.array([float(rows[-1][1]), float(rows[-1][2])])
    if np.any(acc < 0.0) or np.any(acc > 1.0):
        return ["train: accuracy outside [0, 1]"]
    if np.max(np.abs(acc.mean(axis=0) - mean)) > TOL:
        return ["train: mean row is not the mean of the folds"]
    return []


def read_model(path):
    """(header dict, alphas, labels, points) of a saved model file."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    header = dict(ln.split("=", 1) for ln in lines[:3])
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[3:]])
    return ({k: float(v) for k, v in header.items()},
            rows[:, 0], rows[:, 1].astype(int), rows[:, 2:])


def kkt_residuals(alphas, labels, bias, C, decision) -> np.ndarray:
    """Per-point KKT violation of a soft-margin dual solution.

    ``decision`` holds K @ (alpha * y) without the bias.
    """
    y = labels.astype(float)
    margin = y * (decision + bias)
    at_zero = alphas <= 1e-12
    at_c = alphas >= C - 1e-12
    free = ~at_zero & ~at_c
    res = np.zeros(len(y))
    res[at_zero] = np.maximum(0.0, 1.0 - margin[at_zero])
    res[at_c] = np.maximum(0.0, margin[at_c] - 1.0)
    res[free] = np.abs(margin[free] - 1.0)
    return res


def psd_project(k: np.ndarray) -> np.ndarray:
    """k with negative eigenvalues clipped to zero."""
    w, v = np.linalg.eigh(k)
    return (v * np.clip(w, 0.0, None)) @ v.T


def check_model(path, dataset_path, encoding, C):
    """Saved model: feasibility, labels and points.

    Returns (problems, max KKT residual on the oracle Gram, solver tolerance).
    """
    header, alphas, labels, points = read_model(path)
    want_points, want_labels = read_dataset(dataset_path)
    problems = []
    if header.get("C") != C:
        problems.append(f"model C={header.get('C')} != {C}")
    if points.shape != want_points.shape or not np.array_equal(points, want_points) \
            or not np.array_equal(labels, want_labels):
        return (problems + ["model points or labels differ from the dataset"], math.inf,
                header.get("tolerance", 0.0))
    if np.any(alphas < -TOL * C) or np.any(alphas > C * (1.0 + TOL)):
        problems.append("model has an alpha outside [0, C]")
    balance = abs(float(np.sum(alphas * labels)))
    if balance > 1e-9 * C * len(alphas):
        problems.append(f"model sum(alpha * y) = {balance:.3e}")
    ay = alphas * labels
    decision = np.empty(len(alphas))
    for part, block in gram_blocks(encoding, points):
        decision[part] = block @ ay
    residual = float(np.max(kkt_residuals(alphas, labels, header["bias"], C, decision)))
    return problems, residual, header["tolerance"]
