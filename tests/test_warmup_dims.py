"""Rank selection on the benchmark's tiny desk_fit scale, over seeds 0-399.

perfbench runs one operation at this scale to warm each run up, and a run
whose warm-up fails measures nothing.  The scale is read from
perfbench/workloads.py, never changed.
"""

import importlib.util
from pathlib import Path

from blast import evalsim
from blast.ranks import RankSelectionConfig, select_dims_report

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# the one known miss: rank selection picks k_s = (3, 4), so k0 = 1
KNOWN_MISS = {20: (1, (3, 4))}


def tiny_desk_scale():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DeskFit.tiny


def test_tiny_desk_fit_selects_generator_dims():
    scale = tiny_desk_scale()
    truth = (scale.k0, (scale.k0 + scale.q_s,) * scale.n_studies)
    misses = {}
    for seed in range(400):
        dataset, _ = evalsim.generate(scale.scenario(seed))
        report = select_dims_report(dataset, RankSelectionConfig())
        if (report.k0, report.k_hat_s) != truth:
            misses[seed] = (report.k0, report.k_hat_s)
    assert misses == KNOWN_MISS
