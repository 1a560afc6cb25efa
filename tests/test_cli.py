import csv
import dataclasses
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blast
from blast import cli, io
from blast.cli import RunConfig, build_config, build_parser, main
from blast.evalsim import SimScenario, generate
from blast.posterior import BlastConfig
from blast.spectral import MultiStudyDataset


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_cli_child(script, *argv):
    """Run `script` with `argv` in a child process, so that its stderr and
    exit status are the ones a user would see."""
    src = str(Path(blast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


CLI_SCRIPT = "import sys\nfrom blast.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run_cli("simulate", "--preset", "desk", "--seed", 5, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def point_fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("point_fit")
    assert run_cli("fit", sim_dir, "--nmc", 0, "--seed", 1, "--out", out) == 0
    return out


class TestSimulate:
    def test_writes_dataset_and_truth(self, sim_dir):
        assert (sim_dir / "study_1.csv").exists()
        assert (sim_dir / "study_3.csv").exists()
        assert (sim_dir / "truth.npz").exists()
        io.read_json(sim_dir / "scenario.json", schema="run_config")

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--preset", "desk", "--seed", 7, "--out", out) == 0
        for name in ("study_1.csv", "study_2.csv", "study_3.csv"):
            assert file_hash(a / name) == file_hash(b / name)

    def test_fit_writes_metrics(self, tmp_path):
        out = tmp_path / "m"
        code = run_cli("simulate", "--preset", "desk", "--seed", 3, "--out", out,
                       "--replicates", 3, "--nmc", 60, "--fit")
        assert code == 0
        metrics = io.read_json(out / "metrics.json", schema="metrics")
        assert len(metrics["replicates"]) == 3
        assert metrics["summary"]["rel_error_shared"]["mean"] > 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 replicates

    def test_study_without_specific_part_writes_strict_json(self, tmp_path):
        out = tmp_path / "q0"
        proc = run_cli_child(CLI_SCRIPT, "simulate", "--n-studies", 2, "--n-per-study", 150,
                             "--p", 60, "--k0", 2, "--q-s", "[0,2]", "--nmc", 60,
                             "--seed", 5, "--fit", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        metrics = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
        io.validate_json(metrics, "metrics")
        (replicate,) = metrics["replicates"]
        assert replicate["rel_error_specific"][0] is None
        assert replicate["coverage_specific"][0] is None
        assert metrics["summary"]["rel_error_specific"]["mean"] > 0


    def test_undefined_metric_is_an_empty_cell(self, tmp_path):
        # rank selection saturates at k0=26 != 2, so no Procrustes error is defined
        out = tmp_path / "sat"
        assert run_cli("simulate", "--n-studies", 2, "--n-per-study", 60, "--p", 40,
                       "--k0", 2, "--q-s", 2, "--seed", 17, "--nmc", 60, "--replicates", 2,
                       "--submatrix", 20, "--fit", "--out", out) == 0
        metrics = io.read_json(out / "metrics.json", schema="metrics")
        with (out / "metrics.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert all(cell.lower() != "nan" for row in rows for cell in row)
        for row, rep in zip(rows, metrics["replicates"]):
            cells = dict(zip(header, row))
            assert cells["procrustes_shared_mean"] == cells["procrustes_specific_mean"] == ""
            assert all(v is None for v in rep["procrustes_shared"])
            assert float(cells["rel_error_shared"]) == rep["rel_error_shared"]


class TestRanks:
    def test_desk_dataset_dims(self, sim_dir, tmp_path):
        out = tmp_path / "r"
        assert run_cli("ranks", sim_dir, "--out", out) == 0
        report = io.read_json(out / "ranks_report.json", schema="ranks_report")
        assert report["dims"]["k0"] == 5
        assert report["dims"]["q_s"] == [4, 4, 4]
        assert len(report["jic"]) == 3

    def test_each_study_matrix_decomposed_once(self, sim_dir, tmp_path, caplog):
        # the rank-k_hat bases reuse the rank-k_max eigenpairs of each study
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            assert run_cli("ranks", sim_dir, "--out", tmp_path) == 0
        lines = [r.getMessage() for r in caplog.records if "event=gram_eig" in r.getMessage()]
        study = [line for line in lines if line.startswith("event=gram_eig k=200 ")]
        assert sum("route=reuse" in line for line in study) == 3
        fresh = [line for line in study if "route=reuse" not in line]
        assert len(fresh) == 3 and all(" r=30 " in line for line in fresh)

    def test_pure_noise_reports_k1(self, tmp_path):
        data = tmp_path / "noise"
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=120, p=80, k0=2, q_s=2,
                                     loading_sparsity=1.0, seed=2))
        io.write_dataset(data, ds)
        assert run_cli("ranks", data, "--kmax", 6, "--out", data) == 0
        report = io.read_json(data / "ranks_report.json", schema="ranks_report")
        assert report["dims"]["k_s"] == [1, 1, 1]
        assert report["dims"]["k0"] == 0  # no shared structure

    def test_single_study(self, tmp_path):
        data = tmp_path / "one"
        ds, _ = generate(SimScenario(n_studies=1, n_per_study=200, p=100, k0=3, q_s=0,
                                     loading_sd=1.0, seed=4))
        io.write_dataset(data, ds)
        assert run_cli("ranks", data, "--out", data) == 0
        report = io.read_json(data / "ranks_report.json", schema="ranks_report")
        assert report["dims"]["k0"] == report["dims"]["k_s"][0]
        assert report["dims"]["q_s"] == [0]


class TestFit:
    def test_zero_draws_point_estimates_only(self, sim_dir, tmp_path):
        out = tmp_path / "f0"
        assert run_cli("fit", sim_dir, "--nmc", 0, "--seed", 1, "--out", out) == 0
        assert (out / "point_estimates.npz").exists()
        assert not (out / "draws.bin").exists()
        report = io.read_json(out / "fit_report.json", schema="fit_report")
        assert report["draws_file"] is None

    def test_timings_and_read_events(self, sim_dir, tmp_path, caplog):
        out = tmp_path / "timed"
        with caplog.at_level(logging.DEBUG, logger="blast.io"):
            assert run_cli("fit", sim_dir, "--nmc", 0, "--seed", 1, "--out", out) == 0
        timings = io.read_json(out / "timings.json", schema="timings")
        assert {"data_read_s", "total_s", "draw_io_s"} <= timings.keys()
        reads = [r.getMessage() for r in caplog.records if "event=csv_read" in r.getMessage()]
        assert [m.split()[1] for m in reads] == [
            f"path={sim_dir / f'study_{s}.csv'}" for s in (1, 2, 3)]
        assert all("rows=300 cols=200 route=fast seconds=" in m for m in reads)

    def test_thread_count_identical_hashes(self, sim_dir, tmp_path):
        hashes = []
        for threads in (1, 8):
            out = tmp_path / f"t{threads}"
            assert run_cli("fit", sim_dir, "--nmc", 40, "--seed", 9,
                           "--threads", threads, "--out", out) == 0
            hashes.append(file_hash(out / "draws.bin"))
        assert hashes[0] == hashes[1]

    def test_draws_roundtrip_and_manifest(self, sim_dir, tmp_path):
        out = tmp_path / "d"
        assert run_cli("fit", sim_dir, "--nmc", 12, "--seed", 2, "--out", out) == 0
        manifest = io.read_json(out / "draws_manifest.json", schema="draws_manifest")
        draws = io.read_draws(out / "draws.bin")
        assert len(draws) == manifest["n_mc"] == 12
        assert draws[0].lambda_tilde.shape == (manifest["p"], manifest["k0"])
        assert [g.shape[1] for g in draws[0].gamma_tilde_s] == manifest["q_s"]

    def test_fixed_dims_flags(self, sim_dir, tmp_path):
        out = tmp_path / "fixed"
        assert run_cli("fit", sim_dir, "--nmc", 0, "--k0", 5, "--k-s", "[9,9,9]",
                       "--out", out) == 0
        report = io.read_json(out / "fit_report.json", schema="fit_report")
        assert report["dims"]["k0"] == 5
        assert "jic" not in report  # selection skipped

    def test_report_command(self, sim_dir, tmp_path):
        out = tmp_path / "rep"
        assert run_cli("fit", sim_dir, "--nmc", 5, "--seed", 2, "--out", out) == 0
        assert run_cli("report", out) == 0

    def test_rerun_overwrites_identically(self, sim_dir, tmp_path):
        out = tmp_path / "idem"
        names = ("fit_report.json", "draws.bin", "point_estimates.npz",
                 "draws_manifest.json")
        hashes = []
        for _ in range(2):
            assert run_cli("fit", sim_dir, "--nmc", 10, "--seed", 4, "--out", out) == 0
            hashes.append([file_hash(out / n) for n in names])
        assert hashes[0] == hashes[1]

    def test_replicate_threads_identical_metrics(self, tmp_path):
        outs = []
        for threads in (1, 3):
            out = tmp_path / f"rep_t{threads}"
            assert run_cli("simulate", "--preset", "desk", "--seed", 13, "--out", out,
                           "--replicates", 3, "--nmc", 0, "--threads", threads,
                           "--fit") == 0
            outs.append(io.read_json(out / "metrics.json", schema="metrics"))
        assert outs[0]["replicates"] == outs[1]["replicates"]


class TestSchemaParity:
    def test_run_config_fields_match_schema(self):
        schema = io._load_schema("run_config")
        assert set(schema["properties"]) == {f.name for f in dataclasses.fields(RunConfig)}

    def test_fit_report_schema_properties_are_written(self, sim_dir, tmp_path):
        # selected dims with draws, then fixed dims without: every property
        # of the schema must appear in one of the two reports
        written = set()
        for name, flags in (("selected", ["--nmc", 5]),
                            ("fixed", ["--nmc", 0, "--k0", 5, "--k-s", "[9,9,9]"])):
            out = tmp_path / name
            assert run_cli("fit", sim_dir, "--seed", 2, "--out", out, *flags) == 0
            written |= set(io.read_json(out / "fit_report.json", schema="fit_report"))
        assert written == set(io._load_schema("fit_report")["properties"])

    def test_manifest_schema_properties_are_written(self, sim_dir, tmp_path):
        out = tmp_path / "m"
        assert run_cli("fit", sim_dir, "--nmc", 3, "--seed", 2, "--out", out) == 0
        manifest = io.read_json(out / "draws_manifest.json", schema="draws_manifest")
        assert set(manifest) == set(io._load_schema("draws_manifest")["properties"])


class TestPredict:
    def test_predict_on_simulated_test_set(self, sim_dir, tmp_path):
        fit_dir = tmp_path / "fit"
        assert run_cli("fit", sim_dir, "--nmc", 0, "--seed", 1, "--out", fit_dir) == 0
        test_dir = tmp_path / "test"
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=60, p=200, k0=5, q_s=4,
                                     loading_sd=0.5, seed=501))
        io.write_dataset(test_dir, ds)
        assert run_cli("predict", fit_dir, "--test", test_dir, "--seed", 1,
                       "--out", fit_dir) == 0
        report = io.read_json(fit_dir / "predict_report.json", schema="predict_report")
        assert len(report["studies"]) == 3
        for row in report["studies"]:
            assert 0.0 < row["nmse_mean"] < 1.2
            assert 0.80 <= row["interval_coverage"] <= 1.0

    def test_single_csv_with_study_flag(self, sim_dir, tmp_path):
        fit_dir = tmp_path / "fit1"
        assert run_cli("fit", sim_dir, "--nmc", 0, "--seed", 1, "--out", fit_dir) == 0
        assert run_cli("predict", fit_dir, "--test", sim_dir / "study_2.csv",
                       "--study", 2, "--seed", 1, "--out", fit_dir) == 0

    def test_split_file(self, sim_dir, tmp_path):
        fit_dir = tmp_path / "fit2"
        assert run_cli("fit", sim_dir, "--nmc", 0, "--seed", 1, "--out", fit_dir) == 0
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"observed": list(range(100, 200))}))
        assert run_cli("predict", fit_dir, "--test", sim_dir / "study_1.csv",
                       "--split-file", split, "--out", fit_dir) == 0

    def test_split_out_of_range(self, sim_dir, tmp_path):
        fit_dir = tmp_path / "fit3"
        assert run_cli("fit", sim_dir, "--nmc", 0, "--seed", 1, "--out", fit_dir) == 0
        split = tmp_path / "bad_split.json"
        split.write_text(json.dumps({"observed": [5, 400]}))
        assert run_cli("predict", fit_dir, "--test", sim_dir / "study_1.csv",
                       "--split-file", split, "--out", fit_dir) == 3


# one sample command line per RunConfig field, and the value it must parse to
FLAG_SAMPLES = {
    "preset": (["--preset", "desk"], "desk"),
    "n_studies": (["--n-studies", "4"], 4),
    "n_per_study": (["--n-per-study", "[100, 200]"], [100, 200]),
    "p": (["--p", "50"], 50),
    "k0": (["--k0", "3"], 3),
    "k_s": (["--k-s", "[4, 5]"], [4, 5]),
    "q_s": (["--q-s", "[1,2]"], [1, 2]),
    "loading_sparsity": (["--loading-sparsity", "0.25"], 0.25),
    "loading_sd": (["--loading-sd", "2"], 2.0),
    "noise_var_range": (["--noise-var-range", "[1, 3]"], [1, 3]),
    "heteroscedastic": (["--heteroscedastic"], True),
    "collinear": (["--no-collinear"], False),
    "confounder_sd": (["--confounder-sd", "0.5"], 0.5),
    "replicates": (["--replicates", "7"], 7),
    "k_max": (["--kmax", "12"], 12),
    "tau": (["--tau", "0.3"], 0.3),
    "nu0": (["--nu0", "2"], 2.0),
    "sigma0_sq": (["--sigma0-sq", "1.5"], 1.5),
    "tau_lambda_sq": (["--tau-lambda-sq", "0.7"], 0.7),
    "tau_gamma_sq": (["--tau-gamma-sq", "[0.3, null]"], [0.3, None]),
    "n_mc": (["--nmc", "5"], 5),
    "seed": (["--seed", "9"], 9),
    "threads": (["--threads", "2"], 2),
    "inflation_strategy": (["--inflation-strategy", "max"], "max"),
    "inflation_fixed": (["--inflation-fixed", "1.2"], 1.2),
    "gamma_inflation_source": (["--gamma-inflation-source", "rho_lambda"], "rho_lambda"),
    "projection_weighting": (["--projection-weighting", "by_n"], "by_n"),
    "center_columns": (["--center-columns"], True),
    "level": (["--level", "0.9"], 0.9),
    "submatrix": (["--submatrix", "50"], 50),
    "out": (["--out", "results"], "results"),
}


class TestConfigHandling:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(seed=11, n_mc=40, tau=0.25, k0=4, k_s=[6, 6, 6],
                        noise_var_range=[0.5, 2.0], out="somewhere")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        args = build_parser().parse_args(["fit", "ignored", "--config", str(path)])
        rebuilt = build_config(args)
        assert rebuilt == cfg

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "n_mc": 10}))
        args = build_parser().parse_args(
            ["fit", "ignored", "--config", str(path), "--seed", "99"]
        )
        cfg = build_config(args)
        assert cfg.seed == 99
        assert cfg.n_mc == 10

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sede": 1}))
        assert run_cli("fit", "nowhere", "--config", path) == 2

    def test_defaults_documented(self):
        # every field carries a usable default
        cfg = RunConfig()
        for f in dataclasses.fields(RunConfig):
            assert hasattr(cfg, f.name)

    def test_every_field_has_a_sample(self):
        assert set(FLAG_SAMPLES) == {f.name for f in dataclasses.fields(RunConfig)}

    @pytest.mark.parametrize("build, name", [
        (build, f.name) for build, target in ((cli.scenario_from, SimScenario),
                                              (cli.blast_config_from, BlastConfig))
        for f in dataclasses.fields(target) if f.name in FLAG_SAMPLES
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_flag_reaches_the_built_config(self, build, name):
        # the field the flag names changes, to the flag's value, and no other
        argv, expected = FLAG_SAMPLES[name]
        built = build(build_config(build_parser().parse_args(["fit", "ignored", *argv])))
        want = tuple(expected) if isinstance(expected, list) else expected
        assert built == dataclasses.replace(build(RunConfig()), **{name: want})

    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
    def test_flag_parses_to_annotated_type(self, field):
        argv, expected = FLAG_SAMPLES[field.name]
        parsed = getattr(build_parser().parse_args(["fit", "ignored", *argv]), field.name)
        assert parsed == expected
        assert type(parsed) is type(expected)
        scalar = [t for t in (bool, int, float, str)
                  if field.type is t or field.type == t | None]
        if scalar:
            assert type(parsed) is scalar[0]


class TestExitCodes:
    def test_missing_data_dir(self, tmp_path):
        assert run_cli("fit", tmp_path / "missing") == 3

    def test_malformed_csv(self, tmp_path):
        data = tmp_path / "bad"
        data.mkdir()
        (data / "study_1.csv").write_text("a,b\n1.0,oops\n")
        (data / "study_2.csv").write_text("a,b\n1.0,2.0\n2.0,1.0\n")
        assert run_cli("ranks", data) == 3

    @pytest.mark.parametrize("command", ["ranks", "fit", "predict"])
    def test_field_over_csv_limit_exits_3(self, point_fit_dir, tmp_path, command):
        data = tmp_path / "long_field"
        data.mkdir()
        (data / "study_1.csv").write_text("a,b\n1.0,2.0\n" + "1" * 131073 + ",2.0\n")
        (data / "study_2.csv").write_text("a,b\n1.0,2.0\n2.0,1.0\n")
        argv = {"ranks": ["ranks", data],
                "fit": ["fit", data, "--nmc", 0, "--out", tmp_path / "fit"],
                "predict": ["predict", point_fit_dir, "--test", data,
                            "--out", tmp_path / "out"]}[command]
        proc = run_cli_child(CLI_SCRIPT, *argv)
        assert proc.returncode == 3, proc.stderr
        assert "study_1.csv: row 3: field larger than field limit" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_study_headers_must_agree(self, point_fit_dir, tmp_path, caplog, command):
        # `predict --test DIR` checks the headers as loading a dataset does
        data = tmp_path / "headers"
        data.mkdir()
        (data / "study_1.csv").write_text("a,b\n1.0,2.0\n2.0,1.0\n")
        (data / "study_2.csv").write_text("a,c\n1.0,2.0\n2.0,1.0\n")
        argv = {"fit": ["fit", data, "--nmc", 0, "--out", tmp_path / "fit"],
                "predict": ["predict", point_fit_dir, "--test", data,
                            "--out", tmp_path / "out"]}[command]
        assert run_cli(*argv) == 3
        detail = (f"{data / 'study_2.csv'}: header differs from study_1.csv; "
                  "all studies must share outcomes")
        assert [r.getMessage() for r in caplog.records if "event=data_error" in r.getMessage()] \
            == [f"event=data_error detail={detail!r}"]

    def test_numerical_error(self, tmp_path):
        # pure noise: fit cannot find shared structure
        data = tmp_path / "noise"
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=60, p=40, k0=2, q_s=2,
                                     loading_sparsity=1.0, seed=3))
        io.write_dataset(data, ds)
        assert run_cli("fit", data, "--kmax", 5, "--nmc", 0) == 4

    def test_by_n_weight_past_the_threshold_exits_2(self, tmp_path, caplog):
        data = tmp_path / "data"
        ds, _ = generate(SimScenario(n_studies=2, n_per_study=(100, 900), p=40, k0=2, q_s=2,
                                     loading_sd=0.5, seed=41001))
        io.write_dataset(data, ds)
        with caplog.at_level(logging.ERROR, logger="blast"):
            assert run_cli("fit", data, "--projection-weighting", "by_n", "--nmc", 0,
                           "--out", tmp_path / "fit") == 2
        assert "weight 0.9000 >= 1 - tau = 0.8000" in caplog.text

    def test_svd_failure_exits_4(self, tmp_path):
        # Both LAPACK SVD drivers are patched to fail in the child process,
        # and so are eigh and the top-r eigensolver (a nonzero `info`), so
        # that the Gram route declines and LAPACK runs.
        data = tmp_path / "data"
        ds, _ = generate(SimScenario(n_studies=2, n_per_study=40, p=20, k0=2, q_s=1, seed=4))
        io.write_dataset(data, ds)
        script = (
            "import numpy, scipy.linalg, blast.numerics\n"
            "def fail(*args, **kwargs):\n"
            "    raise numpy.linalg.LinAlgError('SVD did not converge')\n"
            "numpy.linalg.svd = scipy.linalg.svd = numpy.linalg.eigh = fail\n"
            "blast.numerics._load_syevr = lambda: lambda *args: 1\n"
        ) + CLI_SCRIPT
        proc = run_cli_child(script, "fit", data, "--kmax", 5, "--nmc", 0,
                             "--out", tmp_path / "fit")
        assert proc.returncode == 4, proc.stderr
        assert "event=svd_fallback" in proc.stderr
        assert "event=numerical_error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_scale_exits_4(self, tmp_path):
        data = tmp_path / "data"
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=300, p=200, k0=5, q_s=4,
                                     loading_sd=0.5, seed=101))
        io.write_dataset(data, MultiStudyDataset(tuple(y * 1e100 for y in ds.studies)))
        proc = run_cli_child(CLI_SCRIPT, "fit", data, "--nmc", 5, "--out", tmp_path / "fit")
        assert proc.returncode == 4, proc.stderr
        assert "rho_lambda is not finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("case,code", [
        ("missing_fit_dir", 3),
        ("missing_test_file", 3),
        ("truncated_point_estimates", 3),
        ("point_estimates_without_sigma_hat_sq", 3),
        ("non_integer_split", 2),
        ("float_split", 2),
        ("non_utf8_test_file", 3),
        ("non_utf8_split_file", 3),
        ("non_utf8_fit_config", 3),
        ("nan_test_row", 3),
    ])
    def test_predict_bad_input(self, sim_dir, point_fit_dir, tmp_path, case, code):
        fit_dir = point_fit_dir
        good = fit_dir / "point_estimates.npz"
        bad = tmp_path / "fit"
        bad.mkdir()
        test_file = sim_dir / "study_1.csv"
        extra = []
        not_utf8 = tmp_path / "not_utf8"
        if case == "missing_fit_dir":
            fit_dir = tmp_path / "missing"
        elif case == "missing_test_file":
            test_file = tmp_path / "missing.csv"
        elif case == "truncated_point_estimates":
            (bad / good.name).write_bytes(good.read_bytes()[:500])
            fit_dir = bad
        elif case == "nan_test_row":
            rows = test_file.read_text().splitlines(keepends=True)
            rows[1] = "nan," + rows[1].split(",", 1)[1]
            test_file = tmp_path / "study_1.csv"
            test_file.write_text("".join(rows))
        elif case == "point_estimates_without_sigma_hat_sq":
            with np.load(good) as z:
                arrays = {k: z[k] for k in z.files if k != "sigma_hat_sq"}
            np.savez(bad / good.name, **arrays)
            fit_dir = bad
        elif case == "non_utf8_test_file":
            not_utf8.write_bytes(b"\xff\xfe\n1,2\n")
            test_file = not_utf8
        elif case == "non_utf8_split_file":
            not_utf8.write_bytes(b"\xff\xfe{}")
            extra = ["--split-file", not_utf8]
        elif case == "non_utf8_fit_config":
            not_utf8.write_bytes(b"\xff\xfe{}")
        else:
            split = tmp_path / "split.json"
            observed = [1.5, 2] if case == "float_split" else "abc"
            split.write_text(json.dumps({"observed": observed}))
            extra = ["--split-file", split]
        argv = ["predict", fit_dir, "--test", test_file, *extra]
        if case == "non_utf8_fit_config":
            argv = ["fit", sim_dir, "--config", not_utf8]
        proc = run_cli_child(CLI_SCRIPT, *argv, "--out", tmp_path / "out")
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if case == "point_estimates_without_sigma_hat_sq":
            assert "sigma_hat_sq" in proc.stderr
        if case == "nan_test_row":
            assert "y_test contains non-finite entries" in proc.stderr

    @pytest.fixture(scope="class")
    def tiny_dirs(self, tmp_path_factory):
        """A small simulated dataset and a fit of it with draws."""
        data = tmp_path_factory.mktemp("tiny")
        assert run_cli("simulate", *self.TINY, "--out", data) == 0
        assert run_cli("fit", data, "--kmax", 5, "--nmc", 5, "--out", data / "fit") == 0
        return data, data / "fit"

    TINY = ("--n-studies", 2, "--n-per-study", 40, "--p", 20, "--k0", 2, "--q-s", 1,
            "--seed", 4)

    @pytest.mark.parametrize("command,name", [
        ("simulate", "study_1.csv"), ("simulate", "truth.npz"), ("simulate", "scenario.json"),
        ("simulate --fit", "metrics.json"), ("simulate --fit", "metrics.csv"),
        ("ranks", "ranks_report.json"),
        ("fit", "point_estimates.npz"), ("fit", "draws.bin"), ("fit", "draws_manifest.json"),
        ("fit", "timings.json"), ("fit", "fit_report.json"),
        ("predict", "predict_report.json"),
    ])
    def test_output_file_that_cannot_be_opened_exits_3(self, tiny_dirs, tmp_path, command,
                                                       name):
        # the output directory is writable, but the file's name is taken by
        # a directory
        data, fit = tiny_dirs
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        argv = {"simulate": ["simulate", *self.TINY],
                "simulate --fit": ["simulate", *self.TINY, "--fit", "--replicates", 1,
                                   "--kmax", 5, "--nmc", 50],
                "ranks": ["ranks", data, "--kmax", 5],
                "fit": ["fit", data, "--kmax", 5, "--nmc", 5],
                "predict": ["predict", fit, "--test", data]}[command]
        proc = run_cli_child(CLI_SCRIPT, *argv, "--out", out)
        assert proc.returncode == 3, proc.stderr
        assert f"event=data_error detail='{out / name}: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_preset_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "huge"}))
        assert run_cli("simulate", "--config", path) == 2


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second at start-up, and no command needs it
    proc = run_cli_child("import sys\nimport blast.cli\n"
                         "print('scipy.stats' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_journey_loads_no_scipy(tmp_path):
    # scipy.linalg is imported only when an SVD falls back to gesvd; a
    # well-posed journey, predict included, runs without any scipy module
    proc = run_cli_child(
        "import sys\nfrom blast.cli import main\n"
        "sim, fit, test = sys.argv[1:]\n"
        "small = ['--n-studies', '2', '--n-per-study', '40', '--p', '20', '--k0', '2',\n"
        "         '--q-s', '1']\n"
        "assert main(['simulate', *small, '--seed', '3', '--out', sim]) == 0\n"
        "assert main(['simulate', *small, '--seed', '4', '--out', test]) == 0\n"
        "assert main(['fit', sim, '--nmc', '60', '--seed', '1', '--out', fit]) == 0\n"
        "assert main(['predict', fit, '--test', test, '--out', fit]) == 0\n"
        "assert main(['report', fit]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n",
        tmp_path / "sim", tmp_path / "fit", tmp_path / "test")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_parser_built_once_and_commands_looked_up_per_call(monkeypatch, tmp_path):
    # a replaced cmd_* (as a tracer installs) must run even though the
    # parser was built before the replacement
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        assert run_cli("report", tmp_path) == 3  # no report files
        ran = []
        monkeypatch.setattr(cli, "cmd_report", lambda args: ran.append(args.dir) or 0)
        assert run_cli("report", tmp_path) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert ran == [str(tmp_path)]
