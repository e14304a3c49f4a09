"""Benchmark runner: set up a workload, run its CLI commands, check, report.

The commands run in this process through ``qkmap.cli.main(argv)``.  A run
sets up the inputs several times (timing each), warms up on a smoke-size
copy of the workload, then runs passes over the command list until the
measuring time is spent.  Every output is checked against the oracle in
``oracle.py`` outside the timed region.  With ``--trace 1`` untraced and
traced passes alternate; the traced ones give the per-layer metrics and
the difference between the two is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in BENCHMARK.json; the
full report, with every metric, the environment and the input digests,
is printed above it as a table and written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PACKAGE = "qkmap"
DEFAULT_SEED = 7
SETUP_REPEATS = 3  # before the first pass; one more follows every pass
MIN_PASSES = 2
TAIL_BEYOND = 10


@dataclass
class Outcome:
    """One command invocation: exit status, latency and what it printed."""

    rc: object
    seconds: float
    stdout: str
    stderr: str


def parse_args(argv):
    p = argparse.ArgumentParser(description="qkmap CLI benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every input (n=20) to check the benchmark itself")
    return p.parse_args(argv)


def load_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise FileNotFoundError(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(f"{PACKAGE}.cli")
    found = sys.modules[PACKAGE].__file__
    if Path(found).resolve().parent != (SRC / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} was imported from {found}")


def setup(name, seed, data_dir, smoke):
    """Import the package, generate the datasets and write them as CSV."""
    start = time.perf_counter()
    load_package()
    gen = sys.modules[f"{PACKAGE}.datasets"]
    for ds in workloads.datasets(name, seed, smoke):
        gen.to_csv(gen.generate(ds.kind, ds.n, ds.seed), os.path.join(data_dir, ds.file))
    return time.perf_counter() - start


def digest_files(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_command(cmd, tracer=None) -> Outcome:
    cli = sys.modules[f"{PACKAGE}.cli"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.warnings = caught
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped error fails this command, not the run
            rc = traceback.format_exc()
        seconds = time.perf_counter() - start
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return Outcome(rc, seconds, out.getvalue(), err.getvalue())


class Verifier:
    """Checks each outcome; identical outputs are checked by the oracle once.

    A command must also write byte-identical output on every pass.
    """

    def __init__(self):
        self.first = {}
        self.verdicts = {}
        self.models = []  # (kkt max residual, tolerance) per saved model

    def __call__(self, index, cmd, outcome) -> list:
        if outcome.rc != 0:
            return [f"{cmd.argv[0]} exited with {outcome.rc}: {outcome.stderr.strip()}"]
        try:
            digest = hashlib.sha256(outcome.stdout.encode()).hexdigest() \
                + digest_files(cmd.outputs)
        except OSError as exc:
            return [f"{cmd.argv[0]}: output missing: {exc}"]
        problems = []
        if self.first.setdefault(index, digest) != digest:
            problems.append(f"{cmd.argv[0]}: output differs from the first pass")
        if digest not in self.verdicts:
            self.verdicts[digest] = self._check(cmd, outcome)
        found, model = self.verdicts[digest]
        if model is not None:
            self.models.append(model)
        return problems + found

    @staticmethod
    def _check(cmd, outcome):
        problems = list(cmd.check(outcome.stdout))
        model = None
        if cmd.model is not None:
            path, dataset, encoding = cmd.model
            found, residual, tolerance = oracle.check_model(path, dataset, encoding,
                                                            workloads.C)
            problems += found
            model = (residual, tolerance)
        return problems, model


def tail(values):
    """Highest percentile with TAIL_BEYOND samples above it, or None.

    None also when that percentile would fall below the median.
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if len(ordered) < 2 * TAIL_BEYOND:
        return None
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def solve_residuals(solves):
    """(max KKT residual, unconverged count) of traced ``svm.train`` calls."""
    worst, unconverged = 0.0, 0
    for args, model, clamped in solves:
        try:
            gram, labels = args["gram"], np.asarray(args["labels"])
            C, tolerance = float(args["C"]), float(args["tolerance"])
            alphas, bias = np.asarray(model.alphas), float(model.bias)
        except (KeyError, AttributeError, TypeError):
            continue
        k = np.asarray(getattr(gram, "values", gram), dtype=float)
        if clamped:
            k = oracle.psd_project(k)
        decision = k @ (alphas * labels)
        residual = float(np.max(oracle.kkt_residuals(alphas, labels, bias, C, decision)))
        worst = max(worst, residual)
        unconverged += residual > tolerance
    return worst, unconverged


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned setting."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                           and ".so" in ln})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


class Reference:
    """Fixed work that does not touch the package, timed to track machine speed.

    The host's speed drifts by tens of percent within minutes: over ten
    runs of ``table`` the pass time ranged from 3.3 s to 5.4 s and this
    reference from 2.3 ms to 4.5 ms.  Raw times from four runs of the same
    inputs spread by 23-29%, more than any regression bound allows.  So
    every command's time is also reported adjusted to the reference's
    nominal speed: raw time * NOMINAL / (median reference time right
    before and right after the command).

    Each workload names the kind of work that dominates it:
    ``interpreter`` (a Python loop and small-array numpy calls) or
    ``lapack`` (a 300x300 ``eigh``).
    """

    BURST = 3  # timings per call, so one stall cannot move the median
    NOMINAL = {"interpreter": 3e-3, "lapack": 10e-3}

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self._once = {"interpreter": self._interpreter, "lapack": self._lapack}[kind]
        self.nominal = self.NOMINAL[kind]
        self.vec = rng.standard_normal(100)
        a = rng.standard_normal((300, 300))
        self.spd = a @ a.T

    def __call__(self) -> list:
        return [self._once() for _ in range(self.BURST)]

    def slowdown(self, times) -> float:
        """How much slower than nominal the machine ran while ``times`` were taken."""
        return statistics.median(times) / self.nominal

    def _interpreter(self) -> float:
        start = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(12000):
            acc += (i % 7) * 0.5
            table[i & 255] = acc
        v = self.vec
        for _ in range(300):
            j = int(np.argmax(np.where(v > 0.0, v, -np.inf)))
            v = v + 1e-12 * v[j]
        return time.perf_counter() - start

    def _lapack(self) -> float:
        start = time.perf_counter()
        np.linalg.eigh(self.spd)
        return time.perf_counter() - start


@dataclass
class Pass:
    """One pass: each command's latency and slowdown (from the bursts around it)."""

    traced: bool
    kinds: list
    seconds: list
    slowdowns: list

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def adjusted(self) -> list:
        return [s / f for s, f in zip(self.seconds, self.slowdowns)]


def metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def end_to_end(setups, passes, attempted, failed, models):
    """Every end-to-end metric, from the untraced passes.

    ``setups`` holds (raw seconds, slowdown) per set-up.  Times without
    ``raw`` in their name are adjusted to the reference's nominal speed.
    """
    m = {"setup_s": metric(statistics.median(t / f for t, f in setups), "s",
                           samples=len(setups)),
         "setup_raw_s": metric(statistics.median(t for t, _ in setups), "s"),
         "wall_s": metric(statistics.median(sum(p.adjusted) for p in passes), "s",
                          samples=len(passes)),
         "wall_raw_s": metric(statistics.median(p.wall for p in passes), "s"),
         "slowdown": metric(statistics.median(f for p in passes for f in p.slowdowns),
                            "ratio")}
    for kind in sorted({k for p in passes for k in p.kinds}):
        pairs = [(s, a) for p in passes for k, s, a in zip(p.kinds, p.seconds, p.adjusted)
                 if k == kind]
        values = [1e3 * a for _, a in pairs]
        m[f"{kind}_ms"] = metric(statistics.median(values), "ms", samples=len(values))
        t = tail(values)
        if t is not None:
            m[f"{kind}_tail_ms"] = metric(t[0], "ms", samples=len(values), percentile=t[1])
        m[f"{kind}_raw_ms"] = metric(statistics.median(1e3 * s for s, _ in pairs), "ms")
    m["fail_frac"] = metric(failed / max(attempted, 1), "ratio", samples=attempted)
    if models:
        bad = sum(residual > tol for residual, tol in models)
        m["unconverged_frac"] = metric(bad / len(models), "ratio", samples=len(models),
                                       kkt_max_residual=max(r for r, _ in models))
    m["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB")
    return m


def run(args):
    """One benchmark run; returns (report, attempted, failed)."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work):
    name, seed, smoke = args.workload, args.seed, args.smoke
    problems, setups, digests = [], [], {}
    reference = Reference(workloads.REFERENCE[name])

    def one_setup():
        """Set up once more; repeats run between passes to sample the whole run."""
        data_dir = work / f"setup{len(setups)}"
        data_dir.mkdir(parents=True)
        refs = reference()
        seconds = setup(name, seed, str(data_dir), smoke)
        setups.append((seconds, reference.slowdown(refs + reference())))
        found = {ds.file: digest_files([data_dir / ds.file])
                 for ds in workloads.datasets(name, seed, smoke)}
        if digests and found != digests:
            problems.append("set-up wrote different datasets on a repeat")
        digests.update(found)
        return data_dir

    data_dir = one_setup()
    for _ in range(SETUP_REPEATS - 1):
        one_setup()

    warm = work / "warm"
    (warm / "out").mkdir(parents=True)
    setup(name, seed, str(warm), True)
    for cmd in workloads.commands(name, seed, str(warm), str(warm / "out"), True):
        run_command(cmd)

    (work / "out").mkdir()
    cmds = workloads.commands(name, seed, str(data_dir), str(work / "out"), smoke)
    verify = Verifier()
    tracer = tracing.Tracer(PACKAGE) if args.trace else None
    passes = []
    attempted = failed = 0
    train_commands = set()
    worst_kkt, unconverged = 0.0, 0

    def one_pass(traced):
        """Run every command once, then check; returns the time spent before checks."""
        nonlocal attempted, failed, worst_kkt, unconverged
        record = Pass(traced, [c.kind for c in cmds], [], [])
        outcomes = []
        start = time.perf_counter()
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        before = reference()
        try:
            for cmd in cmds:
                outcomes.append(run_command(cmd, tracer if traced else None))
                after = reference()
                record.seconds.append(outcomes[-1].seconds)
                record.slowdowns.append(reference.slowdown(before + after))
                before = after
        finally:
            if traced:
                tracer.uninstall()
        one_setup()
        spent = time.perf_counter() - start
        passes.append(record)
        if traced:
            roots = [s for s in tracer.spans[first_span:] if s[1] is None]
            train_commands.update(s[0] for s, cmd in zip(roots, cmds) if cmd.kind == "train")
            kkt, bad = solve_residuals(tracer.solves)
            tracer.solves.clear()
            worst_kkt, unconverged = max(worst_kkt, kkt), unconverged + bad
        for i, (cmd, o) in enumerate(zip(cmds, outcomes)):
            found = verify(i, cmd, o)
            attempted += 1
            if found:
                failed += 1
                problems.extend(found)
        return spent

    # Passes run while the next one (a traced/untraced pair with --trace 1)
    # is expected to end within the measuring time; checks are not counted.
    measured, rounds = 0.0, []
    while len(rounds) < (1 if args.trace else MIN_PASSES) \
            or measured + statistics.median(rounds) <= args.seconds:
        rounds.append(one_pass(False) + (one_pass(True) if args.trace else 0.0))
        measured += rounds[-1]

    plain = [p for p in passes if not p.traced]
    metrics = end_to_end(setups, plain, attempted, failed, verify.models)
    if args.trace:
        traced = [p for p in passes if p.traced]
        layer = tracing.layer_metrics(tracer.spans, train_commands, len(traced))
        if "svm.train_calls" in layer:
            layer["svm.kkt_max_residual"] = metric(worst_kkt, "1")
            layer["svm.unconverged_solves"] = metric(unconverged / len(traced), "count")
        ratio = statistics.median(sum(p.adjusted) for p in traced) / metrics["wall_s"]["value"]
        layer["trace.overhead_pct"] = metric(100.0 * (ratio - 1.0), "%")
        metrics = layer

    report = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": smoke, "passes": len(plain), "traced_passes": len(passes) - len(plain),
        "environment": environment(), "inputs": digests,
        "missing_trace_targets": tracer.missing if tracer else [],
        "pass_raw_s": [p.wall for p in passes], "pass_s": [sum(p.adjusted) for p in passes],
        "problems": problems[:20], "metrics": metrics,
    }
    label = f"{name}-seed{seed}-trace{args.trace}" + ("-smoke" if smoke else "")
    (OUT / f"report-{label}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{label}.tsv")
    return report, attempted, failed


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    names = declared_metrics(args.trace)
    report, attempted, failed = run(args)
    metrics = report["metrics"]
    env = report["environment"]
    print(f"workload {report['workload']} seed {report['seed']} passes {report['passes']}"
          f" traced {report['traced_passes']} commit {env['commit']}")
    print("environment " + json.dumps(env))
    print("inputs " + json.dumps(report["inputs"]))
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for key, m in metrics.items():
        extra = " ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {key:32s} {m['value']:<14.6g} {m['unit']:6s} {extra}")
    result = {
        "correct": failed == 0 and not report["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in names if k in metrics},
    }
    print(json.dumps(result))
    return 0
