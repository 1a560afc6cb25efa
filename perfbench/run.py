"""Benchmark of the blast pipeline: three closed-loop workloads, one process.

    python3 perfbench/run.py --workload desk_fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30   # every workload
    python3 perfbench/run.py --smoke                       # tiny-scale self-test

A run sets up several times (imports, data generation from the seed, and a
tiny-scale warm-up operation) and reports the median set-up, then runs one
operation after another for --seconds, checking each operation's outputs,
and at the end checks the run as a whole (its mean coverage).
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics, taken from
spans around the package's public functions on every other operation (the
operations in between are untraced, so the run also measures the tracing
overhead).  The application runs one thread and the BLAS at most two
(never more than the CPUs available); draw bytes depend on the BLAS thread
count, which every result records.  All files go under .perfbench_work/ in
the checkout and are removed at the end.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
APP_THREADS = 1
SETUP_REPS = 3

END_TO_END = (
    ("op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rel_error_shared", "ratio"),
    ("nmse_mean", "ratio"),
)

PER_LAYER = (
    ("ranks.select_dims_report.busy_s", "s"),
    ("spectral.estimate_factors.busy_s", "s"),
    ("numerics.truncated_svd.calls", "count"),
    ("numerics.truncated_svd.busy_s", "s"),
    ("posterior.run_blast.busy_s", "s"),
    ("posterior.estimate_hyperparams.busy_s", "s"),
    ("posterior.build_posterior_spec.busy_s", "s"),
    ("posterior.sample_draw.calls", "count"),
    ("posterior.sample_draw.busy_s", "s"),
    ("posterior.sampling.draws_per_s", "1/s"),
    ("evalsim.evaluate_fit.busy_s", "s"),
    ("evalsim.coverage_eval.busy_s", "s"),
    ("evalsim.coverage_shared", "ratio"),
    ("evalsim.conditional_predict.calls", "count"),
    ("evalsim.prediction_nmse.busy_s", "s"),
    ("evalsim.predictive_interval_coverage.busy_s", "s"),
    ("evalsim.gaussian_loglik.busy_s", "s"),
    ("evalsim.generate.busy_s", "s"),
    ("io.write_dataset.busy_s", "s"),
    ("io.write_dataset.bytes", "B"),
    ("io.read_study_csv.busy_s", "s"),
    ("io.read_study_csv.bytes", "B"),
    ("io.write_draws.busy_s", "s"),
    ("io.write_draws.bytes", "B"),
    ("io.read_draws.busy_s", "s"),
    ("cli.simulate.busy_s", "s"),
    ("cli.fit.busy_s", "s"),
    ("cli.predict.busy_s", "s"),
    ("cli.report.busy_s", "s"),
    ("ranks.self_s", "s"),
    ("spectral.self_s", "s"),
    ("numerics.self_s", "s"),
    ("posterior.self_s", "s"),
    ("evalsim.self_s", "s"),
    ("io.self_s", "s"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"),
    ("setup.import_s", "s"),
    ("setup.evalsim.generate.busy_s", "s"),
    ("setup.warmup_s", "s"),
    ("trace.op_s", "s"),
    ("trace.ops", "count"),
    ("trace.overhead_frac", "ratio"),
    ("ops.failed_frac", "ratio"),
    ("ops.failed_linalg", "count"),
    ("ops.failed_blast", "count"),
    ("ops.failed_check", "count"),
    ("ops.failed_other", "count"),
)

# Inclusive busy time of the stages each workload is designed around; the
# traced run reports which stage is largest.
STAGES = {
    "sampling": ("posterior.sample_draw.busy_s",),
    "coverage": ("evalsim.coverage_eval.busy_s",),
    "ranks+spectral": ("ranks.select_dims_report.busy_s", "spectral.estimate_factors.busy_s"),
    "prediction": ("evalsim.prediction_nmse.busy_s",
                   "evalsim.predictive_interval_coverage.busy_s",
                   "evalsim.gaussian_loglik.busy_s"),
    "io": ("io.write_dataset.busy_s", "io.read_study_csv.busy_s",
           "io.write_draws.busy_s", "io.read_draws.busy_s"),
}
DESIGNED_LARGEST = {
    "desk_fit": "sampling", "large_p_point": "ranks+spectral", "cli_roundtrip": "io",
}


def _pin_blas_threads():
    # must run before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_package():
    """Import blast from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "blast" / "__init__.py").is_file():
        raise ImportError(f"no blast package under {src}")
    sys.path.insert(0, str(src))
    import blast

    if Path(blast.__file__).resolve().parent != (src / "blast").resolve():
        raise ImportError(f"blast imported from {blast.__file__}, not {src}")
    import spans  # noqa: F401  (patches nothing until a traced run)
    import workloads  # noqa: F401


def provenance():
    import ctypes

    import numpy as np
    import scipy

    blas = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"lib": Path(path).name}
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
        blas.append(entry)
    numpy_blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": numpy_blas.get("name"),
        "blas_version": numpy_blas.get("version"),
        "blas_loaded": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "app_threads": APP_THREADS,
    }


def _failure_kind(exc):
    import numpy as np
    from blast.errors import BlastError

    from workloads import CheckFailed, CliExit

    if isinstance(exc, CheckFailed):
        return "check", "CheckFailed"
    if isinstance(exc, np.linalg.LinAlgError):
        return "linalg", type(exc).__name__
    if isinstance(exc, BlastError):
        return "blast", type(exc).__name__
    if isinstance(exc, CliExit):
        return "blast", f"CliExit{exc.code}"
    return "other", type(exc).__name__


def attempt(wl, state, i, tracer=None):
    """One operation plus its checks; never raises for a failed operation."""
    rec = {"index": i, "traced": tracer is not None, "failure": None, "values": {}}
    t0 = perf_counter()
    try:
        try:
            with tracer.op(i) if tracer is not None else nullcontext():
                out = wl.op(state, i)
        finally:
            rec["seconds"] = perf_counter() - t0
        rec["values"] = wl.check(state, i, out)
        if tracer is not None:
            rec["layers"] = tracer.summary(i)
            _check_calls(rec["layers"], wl.expected_calls(state.scale))
    except Exception as exc:  # every failure is counted, none stops the run
        kind, name = _failure_kind(exc)
        if kind == "other":
            traceback.print_exc(file=sys.stderr)
        rec["failure"], rec["failure_kind"] = name, kind
        print(f"op {i} failed: {name}: {exc}", file=sys.stderr)
    finally:
        wl.cleanup(state, i)
    return rec


def _check_calls(layers, expected):
    from workloads import CheckFailed

    for name, want in expected.items():
        got = layers.get(name, 0)
        if got != want:
            raise CheckFailed(f"{name}={got:g} per operation, expected {want}")


def run_problem(scale, records):
    """Why the run-level check fails on these records, or None if it passes."""
    from workloads import CheckFailed, check_run

    try:
        check_run(scale, [r["values"] for r in records if r["failure"] is None])
    except CheckFailed as exc:
        return str(exc)
    return None


def run_workload(wl, scale, seed, seconds, trace, workdir, reps=SETUP_REPS):
    """Set up `reps` times, then run operations for `seconds` (at least one;
    at least two when tracing, so that one is traced and one is not)."""
    from spans import Tracer

    setup_s, warmup_s, state = [], [], None
    for _ in range(reps):
        state = None  # release the previous rep's datasets first
        t0 = perf_counter()
        state = wl.setup(scale, seed, workdir)
        t1 = perf_counter()
        warm = attempt(wl, wl.setup(wl.tiny, seed, workdir), 0)
        if warm["failure"] is not None:
            raise RuntimeError(f"warm-up operation failed: {warm['failure']}")
        setup_s.append(perf_counter() - t0)
        warmup_s.append(perf_counter() - t1)

    tracer = Tracer()
    records = []
    with tracer.installed() if trace else nullcontext():
        start = perf_counter()
        while True:
            i = len(records)
            records.append(attempt(wl, state, i, tracer if trace and i % 2 == 0 else None))
            if trace and len(records) < 2:
                continue
            typical = statistics.median(r["seconds"] for r in records)
            if perf_counter() - start + 0.5 * typical >= seconds:
                break
    return {
        "records": records,
        "setup_s": statistics.median(setup_s),
        "warmup_s": statistics.median(warmup_s),
        "generate_s": state.generate_s,
    }


def end_to_end(run, import_s):
    import resource

    ok = [r for r in run["records"] if r["failure"] is None] or run["records"]

    def median_of(key):
        vals = [r["values"][key] for r in ok if key in r["values"]]
        # 0 only when every operation failed, which `correct` reports
        return statistics.median(vals) if vals else 0.0

    return {
        "op_s": statistics.median(r["seconds"] for r in ok),
        "setup_s": import_s + run["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_error_shared": median_of("rel_error_shared"),
        "nmse_mean": median_of("nmse_mean"),
    }


def per_layer(run, import_s):
    records = run["records"]
    traced = [r for r in records if "layers" in r]
    plain = [r for r in records if not r["traced"] and r["failure"] is None]
    out = {name: 0.0 for name, _ in PER_LAYER}
    for r in traced:
        for name in out:
            out[name] += r["layers"].get(name, 0.0) / len(traced)
    coverage = [r["values"]["coverage_shared"] for r in traced
                if "coverage_shared" in r["values"]]
    out["evalsim.coverage_shared"] = statistics.fmean(coverage) if coverage else 0.0
    busy = out["posterior.sample_draw.busy_s"]
    out["posterior.sampling.draws_per_s"] = out["posterior.sample_draw.calls"] / busy if busy else 0.0
    out["setup.import_s"] = import_s
    out["setup.evalsim.generate.busy_s"] = run["generate_s"]
    out["setup.warmup_s"] = run["warmup_s"]
    out["trace.ops"] = float(len(traced))
    if traced and plain:
        plain_s = statistics.fmean(r["seconds"] for r in plain)
        out["trace.overhead_frac"] = out["trace.op_s"] / plain_s - 1.0
    failed = [r for r in records if r["failure"] is not None]
    out["ops.failed_frac"] = len(failed) / len(records)
    for kind in ("linalg", "blast", "check", "other"):
        out[f"ops.failed_{kind}"] = float(sum(r["failure_kind"] == kind for r in failed))
    return out


def largest_stage(layers):
    totals = {stage: sum(layers[n] for n in names) for stage, names in STAGES.items()}
    return max(totals, key=totals.get)


def _workdir():
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def measure(args, import_s):
    import shutil

    from spans import LAYERS
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print("provenance " + json.dumps(provenance(), sort_keys=True), flush=True)
    workdir = _workdir()
    try:
        run = run_workload(wl, wl.full, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = run["records"]
    failures = {}
    for r in records:
        print(f"op {r['index']} {'traced ' if r['traced'] else ''}"
              f"{r['failure'] or 'ok'} {r['seconds']:.4f} s", flush=True)
        if r["failure"]:
            failures[r["failure"]] = failures.get(r["failure"], 0) + 1
    failed = sum(failures.values())
    print(f"failures {json.dumps(failures, sort_keys=True)} "
          f"failed_frac {failed / len(records):.4f}")
    problem = run_problem(wl.full, records)
    if problem:
        print(f"run check failed: {problem}", file=sys.stderr)
    print(f"run check {'failed' if problem else 'ok'}")
    if args.trace:
        metrics, units = per_layer(run, import_s), dict(PER_LAYER)
        if metrics["trace.ops"]:
            self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
            print(f"largest stage {largest_stage(metrics)} "
                  f"(designed: {DESIGNED_LARGEST[wl.name]}); layer self times sum to "
                  f"{self_sum:.4f} s of traced op_s {metrics['trace.op_s']:.4f} s")
    else:
        metrics, units = end_to_end(run, import_s), dict(END_TO_END)
    for name, value in metrics.items():
        print(f"metric {wl.name} {name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and problem is None,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            ok = False
            continue
        for line in lines[:-1]:
            if line.startswith(("metric ", "failures ", "run check ", "largest ")):
                print(line)
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def smoke():
    """Every workload and check path at tiny scale, traced and untraced, plus
    one operation built to fail; exits nonzero if anything is off."""
    import shutil
    from dataclasses import replace

    from workloads import WORKLOADS

    problems = []
    workdir = _workdir()
    try:
        for wl in WORKLOADS.values():
            for trace in (False, True):
                run = run_workload(wl, wl.tiny, 0, 0, trace, workdir, reps=1)
                records = run["records"]
                bad = [r["failure"] for r in records if r["failure"]]
                if bad:
                    problems.append(f"{wl.name} trace={trace}: failed {bad}")
                problem = run_problem(wl.tiny, records)
                if problem:
                    problems.append(f"{wl.name} trace={trace}: {problem}")
                if trace and not any("layers" in r for r in records):
                    problems.append(f"{wl.name}: no traced operation")
                metrics = per_layer(run, 0.0) if trace else end_to_end(run, 0.0)
                print(f"smoke {wl.name} trace={int(trace)} ops={len(records)} "
                      + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()))
        # studies with specific factors only: rank selection finds no shared
        # structure, so run_blast raises DegenerateSignalError
        desk = WORKLOADS["desk_fit"]
        run = run_workload(desk, replace(desk.tiny, k0=0, q_s=3), 0, 0, True, workdir, reps=1)
        layers = per_layer(run, 0.0)
        failures = [r["failure"] for r in run["records"]]
        if failures != ["DegenerateSignalError"] * len(failures) or layers["ops.failed_frac"] != 1.0:
            problems.append(f"no-shared-structure op: failures {failures}, "
                            f"failed_frac {layers['ops.failed_frac']}")
        print(f"smoke failing op: failures {failures} failed_frac {layers['ops.failed_frac']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=tuple(DESIGNED_LARGEST))
    mode.add_argument("--all", action="store_true", help="run every workload, one process each")
    mode.add_argument("--smoke", action="store_true", help="tiny-scale self-test")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    _pin_blas_threads()
    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import the blast package: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    import logging

    # keeps `blast.cli.main` from installing its INFO-level handler
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(message)s")
    if args.smoke:
        return smoke()
    if args.all:
        return run_all(args)
    return measure(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
