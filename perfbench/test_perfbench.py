"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent


def test_metric_lists_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.DESIGNED_LARGEST)


def test_smoke_runs_every_workload_and_counts_the_failing_op():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"
    assert "failures ['DegenerateSignalError', 'DegenerateSignalError'] failed_frac 1.0" in proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_criterion_1_band_bounds_the_run_mean_coverage():
    run._import_package()
    from workloads import WORKLOADS, CheckFailed, check_run

    scale = WORKLOADS["desk_fit"].full
    # one replicate below the band is ordinary when the mean is inside it
    check_run(scale, [{"coverage_shared": c} for c in (0.8659, 0.9, 0.91, 0.92)])
    with pytest.raises(CheckFailed):
        check_run(scale, [{"coverage_shared": 0.85}] * 4)
    check_run(scale, [{"rel_error_shared": 0.14}])  # no coverage, nothing to check
