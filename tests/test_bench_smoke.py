"""The benchmark still runs and its oracle accepts every workload at smoke size.

No time gate: this checks that a change to the package leaves the benchmark
working, not how fast it is.  The last line of a run is its result; it must
be strict JSON, say ``correct``, and carry every metric ``BENCHMARK.json``
declares, since a metric whose traced function never ran is dropped.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def reject_constant(name):
    raise ValueError(f"result line holds {name}, which is not strict JSON")


def result(workload, *flags):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--smoke", "--seconds", "0.5",
         *flags], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert last["correct"] is True, done.stdout
    return last


@pytest.mark.parametrize("workload", ["table", "scale", "shots_map"])
def test_smoke_run_is_correct(workload):
    metrics = result(workload)["metrics"]
    missing = [m["name"] for m in DECLARED["end_to_end"] if m["name"] not in metrics]
    assert not missing


@pytest.mark.parametrize("workload", ["table", "scale", "shots_map"])
def test_traced_smoke_run_has_every_layer_metric(workload):
    metrics = result(workload, "--trace", "1")["metrics"]
    missing = [m["name"] for m in DECLARED["per_layer"] if m["name"] not in metrics]
    assert not missing
