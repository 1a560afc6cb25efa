"""Selected dims on the benchmark's tiny scales, over seeds 0-399.

perfbench runs one operation at a workload's tiny scale to warm each run
up, and a run whose warm-up fails measures nothing.  The dims come from
`run_blast` with n_mc=0, the call each warm-up operation makes, so the fit's
reuse of SVD factors is on the tested path.  The scales are read from
perfbench/workloads.py, never changed.
"""

import functools
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from blast import cli, evalsim, io
from blast.posterior import BlastConfig, run_blast

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# the known misses, seed -> selected (k0, k_s)
DESK_MISSES = {20: (1, (3, 4))}
LARGE_P_MISSES = {
    67: (2, (3, 4, 4)),
    143: (2, (3, 4, 4)),
    192: (2, (3, 4, 4)),
    208: (1, (3, 3, 3)),
    233: (2, (4, 3, 4)),
    335: (2, (3, 4, 4)),
}


def tiny_scale(workload):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[workload].tiny


@functools.cache
def misses(scenario):
    """Seeds 0-399 of `scenario` at which `run_blast` selects other dims
    than the generator's, with the dims it selects.  Cached, as two
    workloads share a tiny scale."""
    truth = (scenario.k0, (scenario.k0 + scenario.q_s,) * scenario.n_studies)
    found = {}
    for seed in range(400):
        dataset, _ = evalsim.generate(replace(scenario, seed=seed))
        dims = run_blast(dataset, BlastConfig(n_mc=0, seed=seed)).dims
        if (dims.k0, dims.k_s) != truth:
            found[seed] = (dims.k0, dims.k_s)
    return found


def test_tiny_desk_fit_selects_generator_dims():
    assert misses(tiny_scale("desk_fit").scenario(0)) == DESK_MISSES


def test_tiny_large_p_point_selects_generator_dims():
    assert misses(tiny_scale("large_p_point").scenario(0)) == LARGE_P_MISSES


def test_tiny_cli_roundtrip_selects_generator_dims(tmp_path):
    # the warm-up fits the arrays `blast simulate` wrote, which are the
    # generator's own: the CSV files hold each value's round-trip repr
    scale = tiny_scale("cli_roundtrip")
    scenario = scale.scenario(20)
    argv = ["simulate", "--n-studies", str(scale.n_studies),
            "--n-per-study", str(scale.n_per_study), "--p", str(scale.p),
            "--k0", str(scale.k0), "--q-s", str(scale.q_s),
            "--loading-sd", str(scale.loading_sd), "--seed", "20", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    written = io.load_dataset(tmp_path).studies
    generated = evalsim.generate(scenario)[0].studies
    assert all(np.array_equal(a, b) for a, b in zip(written, generated, strict=True))
    assert misses(replace(scenario, seed=0)) == DESK_MISSES
