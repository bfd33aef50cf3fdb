"""Smoke test for perfbench: each workload runs briefly and checks out."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# --trace 1 swaps perfbench/layers.py's timing shims into thimac.cli, so a
# renamed layer function fails here, and every pass's output is still checked.
@pytest.mark.parametrize(
    "workload", ["chain-flood", "wide-model", "idle-relay", "corpus-cli"]
)
def test_bench_workload_runs_correctly(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", "0.5", "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
