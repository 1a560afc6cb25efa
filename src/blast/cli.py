"""Command-line surface: simulate, ranks, fit, predict, report.

Configuration comes from documented defaults, then an optional --preset,
then a JSON --config file, then command-line flags (highest precedence).
Unknown config keys are rejected.  Progress and warnings go to standard
error as structured `LEVEL key=value` lines.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 numerical error.
"""

import argparse
import dataclasses
import json
import logging
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .errors import BlastError, ConfigError, DataError, NumericalError
from .evalsim import (
    SimScenario,
    gaussian_loglik,
    generate,
    prediction_nmse,
    predictive_interval_coverage,
    run_replicates,
    summarize_replicates,
)
from .numerics import derive_stream
from .posterior import BlastConfig, CovarianceModel, run_blast
from .ranks import RankSelectionConfig, select_dims_report
from .spectral import LatentDims

logger = logging.getLogger(__name__)

PRESETS = {
    # Desk-scale generator; the slab standard deviation 0.5 matches the
    # reference accuracy and coverage numbers this preset reproduces.
    "desk": {
        "n_studies": 3, "n_per_study": 300, "p": 200, "k0": 5, "q_s": 4,
        "loading_sd": 0.5, "replicates": 3, "n_mc": 500,
    },
    "paper-small": {
        "n_studies": 3, "n_per_study": 300, "p": 200, "k0": 5, "q_s": 4,
        "loading_sd": 0.5, "replicates": 20, "n_mc": 500,
    },
    # Full-size replication: one replicate's fit (n_mc=500) took about 8 s
    # and 0.8 GB on a 2-vCPU host.
    "paper-large": {
        "n_studies": 5, "n_per_study": 500, "p": 5000, "k0": 5, "q_s": 4,
        "loading_sd": 0.5, "replicates": 50, "n_mc": 500,
    },
}


@dataclass
class RunConfig:
    """Every setting of every subcommand, with its documented default."""

    preset: str | None = None
    # generator
    n_studies: int = 3
    n_per_study: object = 300
    p: int = 200
    k0: int | None = None          # generator rank (default 5) or fixed fit rank
    k_s: list | None = None        # fixed per-study ranks; None selects them
    q_s: object = 4
    loading_sparsity: float = 0.5
    loading_sd: float = 1.0
    noise_var_range: list = dataclasses.field(default_factory=lambda: [0.5, 5.0])
    heteroscedastic: bool = False
    collinear: bool = False
    confounder_sd: float = 0.3
    replicates: int = 1
    # rank selection / posterior
    k_max: int | None = None
    tau: float = 0.2
    nu0: float = 1.0
    sigma0_sq: float = 1.0
    tau_lambda_sq: float | None = None
    tau_gamma_sq: object = None
    n_mc: int = 500
    seed: int = 0
    threads: int = 1
    inflation_strategy: str = "mean"
    inflation_fixed: float | None = None
    gamma_inflation_source: str = "rho_gamma"
    projection_weighting: str = "uniform"
    center_columns: bool = False
    # output / evaluation
    level: float = 0.95
    submatrix: int = 100
    out: str | None = None

    def to_dict(self):
        return dataclasses.asdict(self)


_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}
# short flag names that differ from the config field name
_FLAG_ALIASES = {"n_mc": "nmc", "k_max": "kmax"}


def build_config(args) -> RunConfig:
    """defaults -> preset -> config file -> command line."""
    import jsonschema

    values = {}
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = io.read_json(args.config)
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    preset = getattr(args, "preset", None) or file_cfg.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        values.update(PRESETS[preset])
        values["preset"] = preset
    values.update({k: v for k, v in file_cfg.items() if k != "preset"})
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    try:
        io.validate_json(_jsonable(cfg.to_dict()), "run_config")
    except jsonschema.ValidationError as exc:
        raise ConfigError(
            f"invalid configuration at {list(exc.absolute_path)}: {exc.message}"
        ) from None
    return cfg


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # strict JSON has no nan or infinity
        return float(obj) if np.isfinite(obj) else None
    return obj


def scenario_from(cfg: RunConfig) -> SimScenario:
    return SimScenario(
        n_studies=cfg.n_studies,
        n_per_study=tuple(cfg.n_per_study) if isinstance(cfg.n_per_study, list) else cfg.n_per_study,
        p=cfg.p,
        k0=cfg.k0 if cfg.k0 is not None else 5,
        q_s=tuple(cfg.q_s) if isinstance(cfg.q_s, list) else cfg.q_s,
        loading_sparsity=cfg.loading_sparsity,
        loading_sd=cfg.loading_sd,
        noise_var_range=tuple(cfg.noise_var_range),
        heteroscedastic=cfg.heteroscedastic,
        collinear=cfg.collinear,
        confounder_sd=cfg.confounder_sd,
        seed=cfg.seed,
    )


def blast_config_from(cfg: RunConfig) -> BlastConfig:
    dims = None
    if cfg.k_s is not None:
        if cfg.k0 is None:
            raise ConfigError("k_s given without k0; fixed dims need both")
        dims = LatentDims.from_ranks(cfg.k0, cfg.k_s)
    return BlastConfig(
        dims=dims,
        k_max=cfg.k_max,
        tau=cfg.tau,
        nu0=cfg.nu0,
        sigma0_sq=cfg.sigma0_sq,
        tau_lambda_sq=cfg.tau_lambda_sq,
        tau_gamma_sq=tuple(cfg.tau_gamma_sq) if isinstance(cfg.tau_gamma_sq, list) else cfg.tau_gamma_sq,
        n_mc=cfg.n_mc,
        seed=cfg.seed,
        threads=cfg.threads,
        inflation_strategy=cfg.inflation_strategy,
        inflation_fixed=cfg.inflation_fixed,
        gamma_inflation_source=cfg.gamma_inflation_source,
        projection_weighting=cfg.projection_weighting,
        center_columns=cfg.center_columns,
    )


def _out_dir(cfg, default):
    out = Path(cfg.out) if cfg.out else Path(default)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise DataError(f"output directory {out} is not writable: {exc}") from None
    return out


def cmd_simulate(args) -> int:
    cfg = build_config(args)
    scenario = scenario_from(cfg)
    out = _out_dir(cfg, "blast_sim")
    dataset, truth = generate(scenario)
    io.write_dataset(out, dataset)
    io.write_truth(out / "truth.npz", truth)
    io.write_json(out / "scenario.json", _jsonable(cfg.to_dict()), schema="run_config")
    logger.info("event=dataset_written dir=%s studies=%d p=%d", out, dataset.n_studies, dataset.p)

    if getattr(args, "fit", False):
        reports = run_replicates(
            scenario, blast_config_from(cfg), cfg.replicates,
            level=cfg.level, submatrix=min(cfg.submatrix, cfg.p),
            threads=cfg.threads,
        )
        summary = summarize_replicates(reports)
        metrics = {
            "scenario": _jsonable(cfg.to_dict()),
            "replicates": [r.to_dict() for r in reports],
            "summary": summary,
        }
        io.write_json(out / "metrics.json", _jsonable(metrics), schema="metrics")
        _write_metrics_csv(out / "metrics.csv", reports)
        for key, stat in summary.items():
            if stat is not None:
                print(f"{key}: mean={stat['mean']:.4f} se={stat['se']:.4f}")
    return 0


def _write_metrics_csv(path, reports):
    import csv

    per_study = ("rel_error_specific", "procrustes_shared", "procrustes_specific")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "rel_error_shared", *(f"{m}_mean" for m in per_study),
                         "coverage_shared", "coverage_specific_mean"])
        for r, rep in enumerate(reports):
            coverage = ("", "") if rep.coverage_shared is None else (
                rep.coverage_shared, rep.study_mean("coverage_specific"))
            # an undefined value is an empty cell, as it is null in metrics.json
            writer.writerow(_jsonable([r, rep.rel_error_shared,
                                       *(rep.study_mean(m) for m in per_study), *coverage]))


def cmd_ranks(args) -> int:
    cfg = build_config(args)
    dataset = io.load_dataset(args.data_dir)
    rank_cfg = RankSelectionConfig(k_max=cfg.k_max, tau=cfg.tau)
    rr = select_dims_report(
        dataset, rank_cfg, weighting=cfg.projection_weighting, threads=cfg.threads
    )
    report = {
        "dims": {"k0": rr.k0, "k_s": list(rr.k_hat_s), "q_s": list(rr.q_s)},
        "jic": [t.to_dict() for t in rr.traces],
        "p_tilde_spectrum": [float(x) for x in rr.spectrum],
        "tau": cfg.tau,
        "k_max": rr.k_max,
    }
    out = _out_dir(cfg, Path(args.data_dir))
    io.write_json(out / "ranks_report.json", report, schema="ranks_report")
    print(f"k0={rr.k0} k_s={list(rr.k_hat_s)} q_s={list(rr.q_s)}")
    return 0


def cmd_fit(args) -> int:
    cfg = build_config(args)
    t_read = time.perf_counter()
    dataset = io.load_dataset(args.data_dir)
    t0 = time.perf_counter()
    result = run_blast(dataset, blast_config_from(cfg))
    out = _out_dir(cfg, Path(args.data_dir) / "fit")
    io.write_point_estimates(out / "point_estimates.npz", result.spec, result.dims)

    draws_file = None
    t_io = time.perf_counter()
    if result.draws:
        draws_file = "draws.bin"
        io.write_draws(out / draws_file, result.draws, out / "draws_manifest.json")
    report = dict(result.report)
    # wall-clock goes to its own file so reruns rewrite fit_report.json
    # byte-identically
    timings = dict(report.pop("timings"))
    timings["total_s"] = time.perf_counter() - t0
    timings["draw_io_s"] = time.perf_counter() - t_io
    timings["data_read_s"] = t0 - t_read
    io.write_json(out / "timings.json", _jsonable(timings), schema="timings")
    report["threads"] = cfg.threads
    report["config"] = _jsonable(cfg.to_dict())
    report["draws_file"] = draws_file
    io.write_json(out / "fit_report.json", _jsonable(report), schema="fit_report")
    print(
        f"k0={result.dims.k0} k_s={list(result.dims.k_s)} "
        f"rho_lambda={result.spec.rho_lambda:.4f} n_mc={cfg.n_mc} out={out}"
    )
    return 0


def _load_fit_models(fit_dir):
    est = io.read_point_estimates(Path(fit_dir) / "point_estimates.npz")
    return [
        CovarianceModel(
            lambda_hat=est["mu_lambda"],
            gamma_hat=est[f"mu_gamma_{s}"],
            diag_add=est["sigma_hat_sq"],
        )
        for s in range(1, est["q_s"].size + 1)
    ]


def _resolve_split(args, p, seed):
    if getattr(args, "split_file", None):
        spec = io.read_json(args.split_file)
        observed = spec.get("observed") if isinstance(spec, dict) else None
        # `type(i) is int`: JSON true/false parse to bool, a subclass of int
        if not (isinstance(observed, list) and observed
                and all(type(i) is int for i in observed)):
            raise ConfigError(f"{args.split_file}: needs a non-empty 'observed' list "
                              "of integer indices")
        if min(observed) < 0 or max(observed) >= p:
            raise DataError(f"split indices outside [0, {p})")
        observed = np.asarray(observed, dtype=np.intp)
        detail = {"mode": "file", "path": str(args.split_file)}
        return observed, detail
    # random halves: observe one half, predict the other
    rng = derive_stream(seed, ("predict", "split")).generator()
    perm = rng.permutation(p)
    observed = np.sort(perm[p // 2 :])
    return observed, {"mode": "random-half", "seed": seed}


def cmd_predict(args) -> int:
    cfg = build_config(args)
    models = _load_fit_models(args.fit_dir)
    test_path = Path(args.test)
    if test_path.is_dir():
        tests = [(s + 1, y) for s, (y, _) in
                 enumerate(io.read_study_csv(p) for p in io.study_csv_paths(test_path))]
    else:
        y, _ = io.read_study_csv(test_path)
        study = getattr(args, "study", None) or 1
        tests = [(int(study), y)]

    p = models[0].p
    observed, split_detail = _resolve_split(args, p, cfg.seed)
    rows = []
    total_ll = 0.0
    for study, y in tests:
        if not 1 <= study <= len(models):
            raise DataError(f"study {study} outside 1..{len(models)}")
        if y.shape[1] != p:
            raise DataError(f"test data has p={y.shape[1]}, fit has p={p}")
        model = models[study - 1]
        nmse, _ = prediction_nmse(model, y, observed_idx=observed)
        coverage = predictive_interval_coverage(model, y, cfg.level, observed_idx=observed)
        ll = gaussian_loglik(model, y)
        total_ll += ll
        rows.append({
            "study": study,
            "n_rows": int(y.shape[0]),
            "nmse_mean": float(np.mean(nmse)),
            "nmse_q1": float(np.quantile(nmse, 0.25)),
            "nmse_q3": float(np.quantile(nmse, 0.75)),
            "interval_coverage": float(coverage),
            "loglik": float(ll),
        })
        print(
            f"study {study}: nmse mean={rows[-1]['nmse_mean']:.4f} "
            f"(Q1={rows[-1]['nmse_q1']:.4f}, Q3={rows[-1]['nmse_q3']:.4f}) "
            f"coverage={coverage:.4f} loglik={ll:.1f}"
        )
    report = {
        "level": cfg.level,
        "split": split_detail,
        "studies": rows,
        "total_loglik": total_ll,
    }
    out = _out_dir(cfg, Path(args.fit_dir))
    io.write_json(out / "predict_report.json", _jsonable(report), schema="predict_report")
    return 0


_REPORT_SCHEMAS = {
    "ranks_report.json": "ranks_report",
    "timings.json": "timings",
    "fit_report.json": "fit_report",
    "metrics.json": "metrics",
    "predict_report.json": "predict_report",
    "draws_manifest.json": "draws_manifest",
    "scenario.json": "run_config",
}


def cmd_report(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise DataError(f"{directory} is not a directory")
    found = 0
    for name, schema in _REPORT_SCHEMAS.items():
        path = directory / name
        if not path.exists():
            continue
        found += 1
        obj = io.read_json(path, schema=schema)
        print(f"{name}: valid [{schema}]")
        if name == "fit_report.json":
            dims = obj["dims"]
            print(f"  k0={dims['k0']} k_s={dims['k_s']} rho_lambda={obj['rho_lambda']:.4f} "
                  f"n_mc={obj['n_mc']}")
        elif name == "metrics.json":
            for key, stat in obj["summary"].items():
                if stat:
                    print(f"  {key}: mean={stat['mean']:.4f} se={stat['se']:.4f}")
        elif name == "predict_report.json":
            for row in obj["studies"]:
                print(f"  study {row['study']}: nmse={row['nmse_mean']:.4f} "
                      f"coverage={row['interval_coverage']:.4f}")
    if found == 0:
        raise DataError(f"no report files found in {directory}")
    return 0


def _json_flag(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


# flag parser per RunConfig annotation (None stripped); bool flags take
# --x / --no-x instead
_FLAG_TYPES = {int: int, float: float, str: str, list: _json_flag, object: _json_flag}


def _flag_kind(annotation):
    """The non-None type of an annotation such as `int | None`."""
    kinds = [t for t in typing.get_args(annotation) if t is not type(None)]
    return kinds[0] if kinds else annotation


def _add_config_flags(parser):
    for f in dataclasses.fields(RunConfig):
        flag = "--" + _FLAG_ALIASES.get(f.name, f.name).replace("_", "-")
        kind = _flag_kind(f.type)
        if f.name == "preset":
            parser.add_argument(flag, choices=sorted(PRESETS), default=None, dest=f.name)
        elif kind is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, default=None, dest=f.name)
        else:
            parser.add_argument(flag, type=_FLAG_TYPES[kind], default=None, dest=f.name)
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blast",
        description="Multi-study factor analysis: spectral factors plus "
                    "coverage-corrected Bayesian loadings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic datasets; optionally fit and score them")
    _add_config_flags(p_sim)
    p_sim.add_argument("--fit", action="store_true", help="fit each replicate and write metrics")
    p_sim.set_defaults(func=cmd_simulate)

    p_ranks = sub.add_parser("ranks", help="select latent dimensions for a dataset directory")
    p_ranks.add_argument("data_dir")
    _add_config_flags(p_ranks)
    p_ranks.set_defaults(func=cmd_ranks)

    p_fit = sub.add_parser("fit", help="run the full pipeline on a dataset directory")
    p_fit.add_argument("data_dir")
    _add_config_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="held-out prediction from a fit directory")
    p_pred.add_argument("fit_dir")
    p_pred.add_argument("--test", required=True, help="test CSV file or directory of study_<s>.csv")
    p_pred.add_argument("--study", type=int, default=None, help="study index for a single test CSV")
    p_pred.add_argument("--split-file", default=None, help="JSON file with an 'observed' index list")
    _add_config_flags(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_rep = sub.add_parser("report", help="validate and summarize report files in a directory")
    p_rep.add_argument("dir")
    _add_config_flags(p_rep)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        logger.error("event=config_error detail=%r", str(exc))
        return 2
    except DataError as exc:
        logger.error("event=data_error detail=%r", str(exc))
        return 3
    except NumericalError as exc:
        logger.error("event=numerical_error detail=%r", str(exc))
        return 4
    except BlastError as exc:
        logger.error("event=error detail=%r", str(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
