"""The benchmark still runs and its oracle accepts every workload at smoke size.

No time gate: this checks that a change to the package leaves the benchmark
working, not how fast it is.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["table", "scale", "shots_map"])
def test_smoke_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--smoke", "--seconds", "0.5"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout
