"""The benchmark's three closed-loop workloads.

Each workload derives its inputs from the workload seed, runs one operation
at a time (a closed loop with one client, application threads = 1), and
checks every operation's outputs.  The workloads are chosen so that each
layer a later optimization targets works hard in one workload and is idle in
another:

- desk_fit: the paper's desk scale.  Sampling is about 80% of an operation
  and coverage evaluation about 17%; rank selection and factor estimation
  about 3%.  It exercises the sampler and bypasses the SVD path.
- large_p_point: the large-p point-estimate fit.  Rank selection and factor
  estimation are about 90% of an operation and there are no draws.  It
  exercises the SVD path and bypasses the sampler.
- cli_roundtrip: the file-based user journey through `blast.cli.main`.  CSV
  I/O is about 55% of an operation, per-row prediction about 13% and
  sampling about 9%.

Every workload has a full scale, which the benchmark measures, and a tiny
scale, which warms the process up before timing and backs the smoke test.
"""

import contextlib
import io as text_io
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from blast import cli, evalsim, io, posterior
from blast.numerics import derive_stream


class CheckFailed(Exception):
    """An operation finished but one of its outputs is wrong."""


class CliExit(Exception):
    """A `blast` subcommand returned a nonzero exit code."""

    def __init__(self, command, code):
        super().__init__(f"blast {command} exited with code {code}")
        self.code = code


@dataclass(frozen=True)
class Scale:
    n_studies: int
    n_per_study: int
    p: int
    k0: int
    q_s: int
    loading_sd: float
    n_mc: int
    pool: int = 1                 # datasets generated during set-up; ops cycle through them
    nmse_rows: int = 0            # rows per study of the in-sample NMSE
    coverage_band: tuple = (0.0, 1.0)       # each operation's coverage_shared
    mean_coverage_band: tuple = (0.0, 1.0)  # the run's mean coverage_shared
    max_rel_error: float = math.inf

    def scenario(self, seed):
        return evalsim.SimScenario(
            n_studies=self.n_studies, n_per_study=self.n_per_study, p=self.p,
            k0=self.k0, q_s=self.q_s, loading_sd=self.loading_sd, seed=seed,
        )

    def expected_calls(self):
        """Exact per-operation call counts that a traced operation must show."""
        return {
            # per study: rank selection, basis at the selected rank, right
            # basis, specific factors; plus two shared bases and the shared
            # factors
            "numerics.truncated_svd.calls": 4 * self.n_studies + 3,
            "posterior.sample_draw.calls": self.n_mc,
        }


@dataclass
class State:
    scale: Scale
    seed: int
    pool: list          # (dataset, truth, seed) per generated dataset
    workdir: Path
    generate_s: float   # time spent in blast.evalsim.generate


def _generate_pool(scale, seed, workdir):
    pool, generate_s = [], 0.0
    for i in range(scale.pool):
        t0 = perf_counter()
        dataset, truth = evalsim.generate(scale.scenario(seed + i))
        generate_s += perf_counter() - t0
        pool.append((dataset, truth, seed + i))
    return State(scale, seed, pool, workdir, generate_s)


def _half_split(p, seed):
    """Observed half of the outcomes, drawn as `blast predict` draws it."""
    perm = derive_stream(seed, ("predict", "split")).generator().permutation(p)
    return np.sort(perm[p // 2:])


def _insample_nmse(result, dataset, rows, seed):
    """Mean over studies of the half-split prediction NMSE on training rows."""
    observed = _half_split(dataset.p, seed)
    per_study = []
    for s, y in enumerate(dataset.studies):
        model = posterior.study_covariance(result.spec, s)
        nmse, _ = evalsim.prediction_nmse(model, y[:rows], observed_idx=observed)
        per_study.append(float(np.mean(nmse)))
    return float(np.mean(per_study))


def check_run(scale, values):
    """Checks over a run's successful operations, given their check values.

    Criterion 1 bounds the mean coverage over replicates, so its band applies
    to the run's mean; each operation's coverage only has to be plausible for
    a single replicate.
    """
    coverage = [v["coverage_shared"] for v in values if "coverage_shared" in v]
    lo, hi = scale.mean_coverage_band
    if coverage and not lo <= statistics.fmean(coverage) <= hi:
        raise CheckFailed(f"mean coverage_shared={statistics.fmean(coverage):.4f} "
                          f"over {len(coverage)} operations outside [{lo}, {hi}]")


def _check_dims(dims, scale):
    want = (scale.k0, (scale.q_s,) * scale.n_studies)
    if (dims.k0, dims.q_s) != want:
        raise CheckFailed(f"selected dims k0={dims.k0} q_s={dims.q_s}, generator has {want}")


def _check_finite(name, arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise CheckFailed(f"{name} has non-finite entries")


def _draw_arrays(draws):
    for d in draws:
        yield d.lambda_tilde
        yield from d.gamma_tilde_s
        yield d.sigma_tilde_sq


def _shared_model(lambda_hat, diag_add=None):
    p = lambda_hat.shape[0]
    return posterior.CovarianceModel(
        lambda_hat=lambda_hat, gamma_hat=np.zeros((p, 0)),
        diag_add=np.zeros(p) if diag_add is None else diag_add,
    )


class LibraryWorkload:
    """Calls the library directly on datasets generated during set-up."""

    def setup(self, scale, seed, workdir):
        return _generate_pool(scale, seed, workdir)

    def expected_calls(self, scale):
        return scale.expected_calls()

    def cleanup(self, state, i):
        pass


class DeskFit(LibraryWorkload):
    name = "desk_fit"
    # One replicate's coverage_shared has mean 0.907 and sd 0.012 (36 seeds),
    # lowest 0.874; the per-operation band is about eight sd either side.
    full = Scale(3, 300, 200, 5, 4, 0.5, n_mc=500, pool=6, nmse_rows=50,
                 coverage_band=(0.906 - 0.09, 0.906 + 0.09),
                 mean_coverage_band=(0.906 - 0.04, 0.906 + 0.04))
    tiny = Scale(2, 150, 60, 2, 2, 1.0, n_mc=60, pool=1, nmse_rows=20,
                 coverage_band=(0.5, 1.0), mean_coverage_band=(0.5, 1.0))

    def op(self, state, i):
        dataset, truth, seed = state.pool[i % len(state.pool)]
        result = posterior.run_blast(
            dataset, posterior.BlastConfig(n_mc=state.scale.n_mc, seed=seed))
        report = evalsim.evaluate_fit(
            result, truth, coverage_stream=derive_stream(seed, ("coverage",)))
        return result, report

    def check(self, state, i, out):
        result, report = out
        scale = state.scale
        dataset, _, seed = state.pool[i % len(state.pool)]
        _check_dims(result.dims, scale)
        if len(result.draws) != scale.n_mc:
            raise CheckFailed(f"{len(result.draws)} draws, expected {scale.n_mc}")
        _check_finite("draws", _draw_arrays(result.draws))
        lo, hi = scale.coverage_band
        if not lo <= report.coverage_shared <= hi:
            raise CheckFailed(f"coverage_shared={report.coverage_shared:.4f} outside [{lo}, {hi}]")
        return {
            "rel_error_shared": report.rel_error_shared,
            "nmse_mean": _insample_nmse(result, dataset, scale.nmse_rows, seed),
            "coverage_shared": report.coverage_shared,
        }


class LargePPoint(LibraryWorkload):
    name = "large_p_point"
    full = Scale(5, 500, 2000, 5, 4, 0.5, n_mc=0, pool=5, nmse_rows=50,
                 max_rel_error=0.25)
    tiny = Scale(3, 150, 60, 2, 2, 1.0, n_mc=0, pool=1, nmse_rows=20,
                 max_rel_error=0.5)

    def op(self, state, i):
        dataset, truth, seed = state.pool[i % len(state.pool)]
        result = posterior.run_blast(
            dataset, posterior.BlastConfig(n_mc=state.scale.n_mc, seed=seed))
        shared, _ = posterior.point_estimates(result.spec, result.dims)
        return result, evalsim.rel_fro_error(shared, _shared_model(truth.lambda0))

    def check(self, state, i, out):
        result, rel = out
        scale = state.scale
        dataset, _, seed = state.pool[i % len(state.pool)]
        if not rel < scale.max_rel_error:
            raise CheckFailed(f"rel_error_shared={rel:.4f} not below {scale.max_rel_error}")
        return {
            "rel_error_shared": rel,
            "nmse_mean": _insample_nmse(result, dataset, scale.nmse_rows, seed),
        }


class CliRoundtrip:
    """simulate train and test sets, fit, predict, report, read the draws.

    The CLI cannot draw fresh noise for a fixed truth, so the test set is
    simulated from the training seed: prediction is in-sample, and the test
    set is written and read as a separate file set all the same.
    """

    name = "cli_roundtrip"
    full = Scale(3, 500, 1000, 5, 4, 0.5, n_mc=20)
    tiny = Scale(2, 150, 60, 2, 2, 1.0, n_mc=20)

    def setup(self, scale, seed, workdir):
        return State(scale, seed, [], workdir, 0.0)

    def _dir(self, state, i):
        return state.workdir / f"{self.name}-{state.scale.p}-{i}"

    def op(self, state, i):
        scale, seed, d = state.scale, state.seed + i, self._dir(state, i)
        gen = [
            "--n-studies", str(scale.n_studies), "--n-per-study", str(scale.n_per_study),
            "--p", str(scale.p), "--k0", str(scale.k0), "--q-s", str(scale.q_s),
            "--loading-sd", str(scale.loading_sd), "--seed", str(seed),
        ]
        commands = [
            ("simulate", ["simulate", *gen, "--out", str(d / "train")]),
            ("simulate", ["simulate", *gen, "--out", str(d / "test")]),
            ("fit", ["fit", str(d / "train"), "--nmc", str(scale.n_mc),
                     "--seed", str(seed), "--out", str(d / "fit")]),
            ("predict", ["predict", str(d / "fit"), "--test", str(d / "test"),
                         "--seed", str(seed), "--out", str(d / "fit")]),
            ("report", ["report", str(d / "fit")]),
        ]
        stdout = text_io.StringIO()
        with contextlib.redirect_stdout(stdout):
            for command, argv in commands:
                code = cli.main(argv)
                if code != 0:
                    raise CliExit(command, code)
        draws = io.read_draws(d / "fit" / "draws.bin")
        return stdout.getvalue(), draws

    def check(self, state, i, out):
        report_text, draws = out
        scale, fit = state.scale, self._dir(state, i) / "fit"
        unchecked = {p.name for p in fit.glob("*.json")} - {
            line.split(":", 1)[0] for line in report_text.splitlines() if ": valid [" in line
        }
        if unchecked:
            raise CheckFailed(f"blast report did not validate {sorted(unchecked)}")
        if len(draws) != scale.n_mc:
            raise CheckFailed(f"read {len(draws)} draws, expected {scale.n_mc}")
        _check_finite("draws", _draw_arrays(draws))
        predict = io.read_json(fit / "predict_report.json", schema="predict_report")
        nmse = float(np.mean([row["nmse_mean"] for row in predict["studies"]]))
        if not math.isfinite(nmse):
            raise CheckFailed("nmse is not finite")
        est = io.read_point_estimates(fit / "point_estimates.npz")
        with np.load(self._dir(state, i) / "train" / "truth.npz") as z:
            lambda0 = z["lambda0"]
        shared = _shared_model(est["mu_lambda"], est["shared_diag"])
        rel = evalsim.rel_fro_error(shared, _shared_model(lambda0))
        return {"rel_error_shared": rel, "nmse_mean": nmse}

    def expected_calls(self, scale):
        calls = scale.expected_calls()
        # prediction_nmse and predictive_interval_coverage each solve once
        # per test row; the test set has n_per_study rows per study
        calls["evalsim.conditional_predict.calls"] = 2 * scale.n_studies * scale.n_per_study
        return calls

    def cleanup(self, state, i):
        shutil.rmtree(self._dir(state, i), ignore_errors=True)


WORKLOADS = {w.name: w for w in (DeskFit(), LargePPoint(), CliRoundtrip())}
