"""The benchmark runs against the package as it stands.

perfbench's traced round calls the models directly (rhs, frozen_rhs,
slaved, driven_rhs) and the integrator's detect_events and the features'
crossing_events, so a change to the package that breaks the benchmark
fails here.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_curves_workload_runs_correct(trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "curves", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
