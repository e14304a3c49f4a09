"""Self-test of the benchmark at smoke size (n=20): python3 perfbench/selftest.py

Checks that every workload reports every metric BENCHMARK.json names,
with its unit, in both modes; that the oracle passes true outputs and
flags injected corruption; and that the benchmark fails, without a
result line, in a directory that holds only the benchmark.  Exits 0
when every check passes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from argparse import Namespace
from pathlib import Path

from run import pin_blas_threads

pin_blas_threads()

import bench  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

# Metrics each workload reports beyond those BENCHMARK.json names.
EXPECTED = {
    "table": ["screen_ms", "fail_frac", "unconverged_frac", "svm.kkt_max_residual"],
    "scale": ["screen_ms", "fail_frac", "unconverged_frac", "screening.minimum_accuracy_ms"],
    "shots_map": ["kernel_ms", "heatmap_ms", "fail_frac", "kernels.gram_shots_ms",
                  "kernels.shot_pairs", "pauli.grids_ms", "svm.psd_clamp_ratio"],
}

failures = []


def report(name, ok, detail=""):
    """Print one PASS/FAIL line; ``detail`` is shown on failure."""
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else ""))
    if not ok:
        failures.append(name)


def check_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for name in workloads.NAMES:
        seen = {}
        for trace in (0, 1):
            args = Namespace(workload=name, seed=bench.DEFAULT_SEED, seconds=0.5,
                             trace=trace, smoke=True)
            result, attempted, failed = bench.run(args)
            report(f"{name} trace {trace}: smoke run correct",
                   failed == 0 and attempted > 0 and not result["problems"],
                   "; ".join(result["problems"][:3]))
            declared = spec["per_layer" if trace else "end_to_end"]
            wrong = [m["name"] for m in declared
                     if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            report(f"{name} trace {trace}: declared metrics present with units",
                   not wrong, f"missing or wrong unit: {wrong}")
            seen.update(result["metrics"])
        missing = [m for m in EXPECTED[name] if m not in seen]
        report(f"{name}: workload metrics present", not missing, f"missing: {missing}")


def cli(*argv):
    """Run the CLI in-process; returns its stdout."""
    cmd = workloads.Command(argv[0], list(argv), [], lambda stdout: [])
    outcome = bench.run_command(cmd)
    if outcome.rc != 0:
        raise RuntimeError(f"{argv}: exit {outcome.rc}: {outcome.stderr}")
    return outcome.stdout


def rewrite_matrix(path, change):
    header, values = oracle.read_matrix_csv(path)
    change(values)
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def check_corruption(work):
    bench.setup("table", bench.DEFAULT_SEED, str(work), True)
    data = str(work / "circle.csv")

    gram = str(work / "gram.csv")
    cli("kernel", "--dataset", data, "--method", "exact", "--out", gram)
    report("oracle passes a true exact Gram", not oracle.check_exact_gram(gram, data, "ef1"))
    rewrite_matrix(gram, lambda k: k.__setitem__((3, 5), k[3, 5] + 1e-6))
    report("oracle flags a Gram entry shifted by 1e-6",
           bool(oracle.check_exact_gram(gram, data, "ef1")))

    shots = str(work / "shots.csv")
    cli("kernel", "--dataset", data, "--method", "shots", "--shots", "1000", "--out", shots)
    report("oracle passes a true shot Gram",
           not oracle.check_shot_gram(shots, data, "ef1", 1000))
    rewrite_matrix(shots, lambda k: k.__setitem__((2, 7), 1.0 - k[2, 7]))
    report("oracle flags a shot Gram entry outside the band",
           bool(oracle.check_shot_gram(shots, data, "ef1", 1000)))

    heat = work / "heat"
    cli("heatmap", "--resolution", "11", "--pgm", "--out", str(heat))
    labels = oracle.LABELS
    report("oracle passes true grids",
           not oracle.check_heatmap(heat, "ef1", labels, -1.0, 1.0, 11, True))
    rewrite_matrix(heat / "ZZ.csv", lambda g: g.__setitem__((4, 6), g[4, 6] + 1e-6))
    report("oracle flags one changed grid value",
           bool(oracle.check_heatmap(heat, "ef1", labels, -1.0, 1.0, 11, True)))

    stdout = cli("screen", "--dataset", data, "--csv")
    report("oracle passes a true screen", not oracle.check_screen(stdout, data, oracle.ENCODINGS))
    first = stdout.splitlines()[1].split(",")
    first[1] = repr(float(first[1]) - 0.05)
    lines = stdout.splitlines()
    lines[1] = ",".join(first)
    report("oracle flags a wrong minimum accuracy",
           bool(oracle.check_screen("\n".join(lines), data, oracle.ENCODINGS)))

    model = str(work / "model.txt")
    cli("train", "--dataset", data, "--encodings", "ef1", "--C", "100", "--csv",
        "--model-out", model)
    found, residual, tolerance = oracle.check_model(model, data, "ef1", 100.0)
    report("oracle passes a true model", not found and residual <= tolerance,
           f"kkt {residual:.2e}")
    lines = Path(model).read_text().splitlines()
    alpha, rest = lines[3].split(",", 1)
    lines[3] = f"{-abs(float(alpha)) - 1e-3!r},{rest}"
    Path(model).write_text("\n".join(lines) + "\n")
    found, _, _ = oracle.check_model(model, data, "ef1", 100.0)
    report("oracle flags a negative alpha", bool(found))


def check_bare_directory(work):
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    here = Path(__file__).resolve().parent
    shutil.copytree(here, bare / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "table", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    report("benchmark fails without the package", proc.returncode != 0
           and not last.startswith("{"), f"exit {proc.returncode}")


def main():
    bench.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT))
    try:
        check_metrics()
        check_corruption(work)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
