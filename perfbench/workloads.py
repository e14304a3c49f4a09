"""The benchmark's workloads: input datasets and fixed CLI command lists.

Each workload is a list of datasets to generate from the workload seed
and a list of CLI commands that read them through ``--dataset``.  Every
command carries the oracle check for what it writes.  ``smoke`` shrinks
every size so a workload runs in well under a second.

Every ``train`` command reads datasets generated at SOLVER_SEED and uses
it as its fold seed, whatever the workload seed: SMO iteration counts
swing with the data (one pass of ``table`` took 4.2 s to 9.0 s across
six dataset seeds), far more than any regression bound.  The other
commands, whose cost does not depend on the data, read datasets made
from the workload seed.

Why these three:

- ``table``: the paper's table, 4 datasets x 5 encodings at n=100.  Many
  small SMO solves, where per-iteration Python cost, ``accuracy`` and
  CLI/CSV overhead dominate; Gram and PSD-check costs are negligible.
- ``scale``: moon at n=1600.  The N^2 Gram (built twice under
  ``--model-out``), six O(N^3) PSD checks and cap-bound SMO at n=1280
  dominate; screening at n=1600 runs the per-point coefficient loop.
- ``shots_map``: shot-sampled kernels, a shot-route train whose folds are
  not PSD, a 16-panel heat map and a large exact Gram CSV.  Per-pair and
  per-grid-point loops plus file writes dominate; SMO is negligible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import oracle

NAMES = ("table", "scale", "shots_map")
TABLE_KINDS = ("circle", "exp", "moon", "xor")
C = 100.0
FOLDS = 5
SOLVER_SEED = 7  # the acceptance suite's dataset seed
# Kind of work that dominates each workload; picks its speed reference.
REFERENCE = {"table": "interpreter", "scale": "lapack", "shots_map": "interpreter"}


@dataclass(frozen=True)
class Dataset:
    file: str
    kind: str
    n: int
    seed: int


@dataclass
class Command:
    """One CLI invocation, the files it writes and its oracle check.

    ``check(stdout)`` returns a list of problems.  ``model`` is
    ``(path, dataset path, encoding)`` when the command saves a model.
    """

    kind: str
    argv: list
    outputs: list
    check: Callable[[str], list]
    model: tuple | None = None


def datasets(name: str, seed: int, smoke: bool = False) -> list[Dataset]:
    def n(full):
        return 20 if smoke else full

    if name == "table":
        return [Dataset(f"{kind}.csv", kind, n(100), seed) for kind in TABLE_KINDS] \
            + [Dataset(f"{kind}_solver.csv", kind, n(100), SOLVER_SEED) for kind in TABLE_KINDS]
    if name == "scale":
        return [Dataset("moon.csv", "moon", n(1600), seed),
                Dataset("moon_solver.csv", "moon", n(1600), SOLVER_SEED)]
    if name == "shots_map":
        return [Dataset("circle_small.csv", "circle", n(50), seed),
                Dataset("moon_solver.csv", "moon", n(60), SOLVER_SEED),
                Dataset("circle_large.csv", "circle", n(800), seed)]
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def commands(name: str, seed: int, data_dir: str, out_dir: str,
             smoke: bool = False) -> list[Command]:
    def data(file):
        return os.path.join(data_dir, file)

    def out(file):
        return os.path.join(out_dir, file)

    if name == "table":
        cmds = [_screen(data(f"{kind}.csv"), oracle.ENCODINGS) for kind in TABLE_KINDS]
        cmds += [_train(data(f"{kind}_solver.csv"), eid, out(f"model_{kind}_{eid}.txt"))
                 for kind in TABLE_KINDS for eid in oracle.ENCODINGS]
        return cmds
    if name == "scale":
        return [_screen(data("moon.csv"), oracle.ENCODINGS),
                _train(data("moon_solver.csv"), "ef1", out("model.txt"))]
    if name == "shots_map":
        cmds = [_shot_kernel(data("circle_small.csv"), seed + k, 10_000,
                             out(f"shots_{k}.csv")) for k in range(3)]
        cmds.append(_train(data("moon_solver.csv"), "ef1", None,
                           ["--method", "shots", "--shots", "1000"]))
        cmds.append(_heatmap("ef1", 11 if smoke else 61, out("heatmap")))
        cmds.append(_exact_kernel(data("circle_large.csv"), out("exact.csv")))
        return cmds
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def _screen(dataset, encodings):
    argv = ["screen", "--dataset", dataset, "--csv"]
    return Command("screen", argv, [],
                   lambda stdout: oracle.check_screen(stdout, dataset, encodings))


def _train(dataset, encoding, model_out, extra_flags=()):
    argv = ["train", "--dataset", dataset, "--encodings", encoding, "--C", repr(C),
            "--folds", str(FOLDS), "--csv", "--seed", str(SOLVER_SEED), *extra_flags]
    outputs, model = [], None
    if model_out is not None:
        argv += ["--model-out", model_out]
        outputs, model = [model_out], (model_out, dataset, encoding)
    return Command("train", argv, outputs,
                   lambda stdout: oracle.check_train_csv(stdout, FOLDS), model)


def _shot_kernel(dataset, seed, shots, path):
    argv = ["kernel", "--dataset", dataset, "--encoding", "ef1", "--method", "shots",
            "--shots", str(shots), "--seed", str(seed), "--out", path]
    return Command("kernel", argv, [path],
                   lambda stdout: oracle.check_shot_gram(path, dataset, "ef1", shots))


def _exact_kernel(dataset, path):
    argv = ["kernel", "--dataset", dataset, "--encoding", "ef1", "--method", "exact",
            "--out", path]
    return Command("kernel", argv, [path],
                   lambda stdout: oracle.check_exact_gram(path, dataset, "ef1"))


def _heatmap(encoding, resolution, out_dir):
    argv = ["heatmap", "--encoding", encoding, "--axis", "all", "--resolution",
            str(resolution), "--pgm", "--out", out_dir]
    files = [os.path.join(out_dir, f"{label}.{ext}")
             for label in oracle.LABELS for ext in ("csv", "pgm")]
    return Command("heatmap", argv, files,
                   lambda stdout: oracle.check_heatmap(out_dir, encoding, oracle.LABELS,
                                                       -1.0, 1.0, resolution, True))
