"""The benchmark's own self-test, run with the unit tests so that a change
which breaks one of its call-count gates fails here first."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke():
    # --smoke runs every workload at tiny scale, traced and untraced; a traced
    # operation fails unless truncated_svd runs 4S+3 times, sample_draw n_mc
    # times and conditional_predict twice per test row
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke ok" in proc.stdout.splitlines()
