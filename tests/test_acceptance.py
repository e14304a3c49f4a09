"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qkmap as qk
from qkmap.encodings import phase_states
from qkmap.pauli import closed_form_table

SRC = Path(__file__).resolve().parent.parent / "src"
DATASET_SEED = 7
TABLE_C = 100.0  # solver settings behind the published tables are unknown


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def pair_kernel(spec, x, z, method="exact", **shot_args):
    """One kernel value: the off-diagonal entry of the two-point Gram."""
    return qk.gram(spec, [x, z], method=method, **shot_args).values[0, 1]


# the 16 dense two-qubit Paulis in index order, qubit 1 the right kron factor
_SINGLE = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0])]
PAULIS = np.array([np.kron(q2, q1) for q2 in _SINGLE for q1 in _SINGLE])


def pauli_vector(state):
    """The 16 coefficients <psi|sigma_i|psi> / 4 of one state, from the dense Paulis."""
    return np.einsum("b,kbc,c->k", state.conj(), PAULIS, state).real / 4


def all_datasets():
    return {kind: qk.generate(kind, 100, seed=DATASET_SEED)
            for kind in ("circle", "exp", "moon", "xor")}


def test_criterion_1_closed_form_equivalence():
    """Simulator decomposition matches the closed-form coefficient table."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p1, p2, p12 = rng.uniform(-np.pi, np.pi, 3)
        got = pauli_vector(phase_states([p1, p2, p12]))
        want = closed_form_table((p1, p2, p12))
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    report("criterion 1: closed-form oracle equivalence",
           worst <= 1e-10 and elapsed < 5.0,
           f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_coefficient_inner_product_identity():
    """The Pauli route's kernel equals the exact route's for every built-in."""
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for eid in qk.BUILTIN_IDS:
        spec = qk.builtin(eid)
        for _ in range(100):
            x, z = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            diff = abs(pair_kernel(spec, x, z, "pauli") - pair_kernel(spec, x, z))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    report("criterion 2: kernel route equivalence",
           worst <= 1e-10 and elapsed < 5.0,
           f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_purity_and_normalization():
    """a_II = 1/4, sum a_i^2 = 1/4, K(x, x) = 1 on random feature states."""
    rng = np.random.default_rng(103)
    worst_ii = worst_purity = worst_self = 0.0
    for _ in range(1000):
        eid = qk.BUILTIN_IDS[rng.integers(5)]
        spec = qk.builtin(eid)
        x = rng.uniform(-1, 1, 2)
        vec = pauli_vector(qk.feature_states(spec, [x])[0])
        worst_ii = max(worst_ii, abs(vec[0] - 0.25))
        worst_purity = max(worst_purity, abs(np.sum(vec ** 2) - 0.25))
        if _ % 10 == 0:
            worst_self = max(worst_self, abs(pair_kernel(spec, x, x) - 1.0))
    report("criterion 3: purity and normalization",
           worst_ii <= 1e-9 and worst_purity <= 1e-9 and worst_self <= 1e-10,
           f"a_II {worst_ii:.2e}, purity {worst_purity:.2e}, self-K {worst_self:.2e}")


def test_criterion_4_shot_estimator_calibration():
    """10k-shot estimates sit in the 4-sigma band and halve per 4x shots."""
    rng = np.random.default_rng(104)
    spec = qk.builtin("ef1")
    t0 = time.perf_counter()
    pairs = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(100)]
    exact = [pair_kernel(spec, x, z) for x, z in pairs]
    within = 0
    for t, ((x, z), k) in enumerate(zip(pairs, exact)):
        est = pair_kernel(spec, x, z, "shots", shots=10_000, seed=t)
        if abs(est - k) <= 0.02:
            within += 1

    # RMS error over the same pairs at geometric shot levels
    levels = [100, 400, 1600, 6400]
    rms = []
    for li, shots in enumerate(levels):
        errs = [pair_kernel(spec, x, z, "shots", shots=shots, seed=10_000 + li * 100 + t) - k
                for t, ((x, z), k) in enumerate(zip(pairs, exact))]
        rms.append(float(np.sqrt(np.mean(np.square(errs)))))
    ratios = [rms[i + 1] / rms[i] for i in range(3)]
    halving = all(0.35 <= r <= 0.7 for r in ratios)
    elapsed = time.perf_counter() - t0
    report("criterion 4: shot estimator calibration",
           within >= 98 and halving and elapsed < 30.0,
           f"{within}/100 in band, rms ratios {[round(r, 3) for r in ratios]}, "
           f"{elapsed:.1f}s")


def brute_force_dual(k, y, C):
    import itertools

    n = len(y)
    q = k * np.outer(y, y)
    best = -np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        a = np.zeros(n)
        bound = [i for i, p in enumerate(pattern) if p == 1]
        free = [i for i, p in enumerate(pattern) if p == 2]
        a[bound] = C
        if free:
            m = len(free)
            A = np.zeros((m + 1, m + 1))
            A[:m, :m] = q[np.ix_(free, free)]
            A[:m, m] = y[free]
            A[m, :m] = y[free]
            rhs = np.zeros(m + 1)
            rhs[:m] = 1.0 - (q[np.ix_(free, bound)] @ a[bound] if bound else 0.0)
            rhs[m] = -(y[bound] @ a[bound]) if bound else 0.0
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            if np.max(np.abs(A @ sol - rhs)) > 1e-8:
                continue
            a[free] = sol[:m]
            if np.any(a[free] < -1e-9) or np.any(a[free] > C + 1e-9):
                continue
        if abs(a @ y) > 1e-8:
            continue
        a = np.clip(a, 0, C)
        best = max(best, a.sum() - 0.5 * a @ q @ a)
    return best


def dual_objective(model, k):
    ay = model.alphas * model.labels
    return float(model.alphas.sum() - 0.5 * ay @ k @ ay)


def bound_slack(C):
    """README's at-bound slack: 1e-12, 8 ulps of C for C >= 1024, C / 4 below C = 4e-12."""
    if C < 4e-12:
        return C / 4
    return 8 * math.ulp(C) if 1024 <= C < math.inf else 1e-12


def kkt_residuals(model, k):
    """Per-point KKT violation of a model on the Gram k (0 when satisfied)."""
    y = model.labels.astype(float)
    margin = y * ((model.alphas * y) @ k + model.bias)
    eps = bound_slack(model.C)
    return np.where(model.alphas <= eps, np.maximum(0.0, 1.0 - margin),
                    np.where(model.alphas >= model.C - eps, np.maximum(0.0, margin - 1.0),
                             np.abs(margin - 1.0)))


def test_criterion_5_smo_correctness():
    """Dual optimum matches brute force; KKT residuals within tolerance."""
    rng = np.random.default_rng(105)
    spec = qk.builtin("ef1")
    worst_gap = 0.0
    worst_kkt = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        pts = rng.uniform(-1, 1, (n, 2))
        labels = rng.choice([-1, 1], size=n)
        if len(np.unique(labels)) < 2:
            labels[0] = -labels[1]
        c = float(rng.choice([0.5, 1.0, 10.0]))
        g = qk.gram(spec, pts)
        model = qk.train(g, labels, C=c, tolerance=1e-5)
        got = dual_objective(model, g.values)
        want = brute_force_dual(g.values, labels.astype(float), c)
        worst_gap = max(worst_gap, abs(got - want))
        worst_kkt = max(worst_kkt, float(np.max(kkt_residuals(model, g.values))))

    # separable two-point problems classify perfectly
    two_point_ok = True
    for trial in range(20):
        pts = rng.uniform(-1, 1, (2, 2))
        if np.linalg.norm(pts[0] - pts[1]) < 1e-3:
            continue
        g = qk.gram(spec, pts)
        labels = np.array([1, -1])
        model = qk.train(g, labels, C=1000.0)
        two_point_ok &= qk.accuracy(model, g.values, labels) == 1.0

    report("criterion 5: SMO correctness",
           worst_gap <= 1e-6 and worst_kkt <= 1e-5 + 1e-9 and two_point_ok,
           f"max dual gap {worst_gap:.2e}, max KKT {worst_kkt:.2e}")


def test_criterion_6_screening_lower_bound():
    """Hard-margin training accuracy >= minimum accuracy - 0.05 everywhere."""
    t0 = time.perf_counter()
    failures = []
    for kind, ds in all_datasets().items():
        for eid in qk.BUILTIN_IDS:
            spec = qk.builtin(eid)
            min_acc = qk.minimum_accuracy(ds, spec).minimum_accuracy
            g = qk.gram(spec, ds.points)
            model = qk.train(g, ds.labels, C=1000.0)
            train_acc = qk.accuracy(model, g.values, ds.labels)
            if train_acc < min_acc - 0.05:
                failures.append((kind, eid, train_acc, min_acc))
    elapsed = time.perf_counter() - t0
    report("criterion 6: screening lower-bound band",
           not failures and elapsed < 600.0,
           f"failures {failures}, {elapsed:.1f}s")


def test_criterion_7_published_table_bands():
    """Circle screening, the strong encoding's training band, and the
    combined-kernel improvement on the Moon dataset."""
    ds = all_datasets()

    circle_ok = True
    for eid in qk.BUILTIN_IDS:
        rep = qk.minimum_accuracy(ds["circle"], qk.builtin(eid))
        circle_ok &= rep.minimum_accuracy >= 0.95 and rep.best_axis_label == "ZZ"

    ef2_ok = True
    ef2_detail = {}
    for kind, data in ds.items():
        rep = qk.cross_validate(data, qk.gram(qk.builtin("ef2"), data.points),
                                C=TABLE_C, seed=0)
        ef2_detail[kind] = round(rep.mean_train, 3)
        ef2_ok &= rep.mean_train >= 0.90

    def cv_mean(enc_ids):
        gs = [qk.gram(qk.builtin(e), ds["moon"].points) for e in enc_ids]
        full = gs[0] if len(gs) == 1 else qk.combine(gs, (1.0,) * len(gs))
        return qk.cross_validate(ds["moon"], full, C=TABLE_C, seed=0).mean_train

    combined = cv_mean(["ef3", "ef1"])
    alone3, alone1 = cv_mean(["ef3"]), cv_mean(["ef1"])
    combo_ok = combined >= 0.95 or (combined >= alone3 + 0.02 and combined >= alone1 + 0.02)

    report("criterion 7: published-table bands",
           circle_ok and ef2_ok and combo_ok,
           f"ef2 train {ef2_detail}, combined {combined:.3f} vs "
           f"{alone3:.3f}/{alone1:.3f}")


def run_cli(tmp_path, tag, *argv):
    # the child runs in tmp_path, so a relative PYTHONPATH would not reach src
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "qkmap.cli", *argv],
                         capture_output=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout


def test_criterion_8_cli_determinism(tmp_path):
    """Repeated CLI invocations are byte-identical, files included."""
    cases = [
        ("gen", ["gen", "circle", "--n", "60", "--seed", "7", "--out", "OUT"]),
        ("kernel", ["kernel", "--generate", "xor", "--n", "12", "--seed", "2",
                    "--encoding", "ef2", "--method", "shots", "--shots", "400",
                    "--out", "OUT"]),
        ("screen", ["screen", "--generate", "exp", "--n", "40", "--seed", "3",
                    "--csv"]),
        ("train", ["train", "--generate", "moon", "--n", "40", "--seed", "5",
                   "--encodings", "ef3", "ef1", "--C", "100", "--csv"]),
    ]
    ok = True
    for tag, argv in cases:
        outputs = []
        for rep in "ab":
            path = tmp_path / f"file_{tag}_{rep}.out"
            args = [path.name if a == "OUT" else a for a in argv]
            stdout = run_cli(tmp_path, tag, *args)
            blob = stdout + (path.read_bytes() if path.exists() else b"")
            outputs.append(blob.replace(path.name.encode(), b"OUT"))
        ok &= outputs[0] == outputs[1]
    report("criterion 8: CLI determinism", ok)


def test_criterion_9_heat_map_fidelity():
    """Grids equal the closed forms at every lattice point; 16 panels < 10 s."""
    spec = qk.builtin("ef1")
    res = 21
    xs = np.linspace(-1.0, 1.0, res)
    worst = 0.0
    for label in ("ZZ", "ZI", "IZ"):
        grid = qk.coefficient_grids(spec, [qk.pauli_index(label)], (-1, 1), res)[0]
        for r, x2 in enumerate(xs[::-1]):
            for c, x1 in enumerate(xs):
                p1, p2, p12 = x1, x2, spec(x1, x2)
                want = closed_form_table((p1, p2, p12))[qk.pauli_index(label)]
                worst = max(worst, abs(grid[r, c] - want))

    t0 = time.perf_counter()
    qk.coefficient_grids(spec, range(16), (-1, 1), 101)
    elapsed = time.perf_counter() - t0
    report("criterion 9: heat-map fidelity",
           worst <= 1e-12 and elapsed < 10.0,
           f"max diff {worst:.2e}, 16 panels in {elapsed:.1f}s")
