import csv
import json
import logging
import os
import struct
import subprocess
import sys
import tracemalloc
from io import StringIO
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blast import io
from blast.errors import DataError, ParseError
from blast.evalsim import SimScenario, generate
from blast.posterior import BlastConfig, run_blast
from blast.spectral import LatentDims, MultiStudyDataset


@pytest.fixture(scope="module", params=["selected", "q_zero"])
def fit(request):
    if request.param == "selected":
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=100, p=40, k0=2, q_s=2,
                                     loading_sd=1.0, seed=31))
        return run_blast(ds, BlastConfig(n_mc=12, seed=3))
    ds, _ = generate(SimScenario(n_studies=2, n_per_study=50, p=30, k0=2, q_s=(0, 2),
                                 loading_sd=1.0, seed=19))
    dims = LatentDims(k0=2, k_s=(2, 4), q_s=(0, 2))
    return run_blast(ds, BlastConfig(dims=dims, n_mc=10, seed=2))


@pytest.fixture(scope="module")
def draws_file(fit, tmp_path_factory):
    out = tmp_path_factory.mktemp("draws")
    io.write_draws(out / "draws.bin", fit.draws, out / "draws_manifest.json")
    return out / "draws.bin"


def parse_draws_bin(raw):
    """The README layout, read without blast.io: header, then blocks of
    u8 ndim, ndim x u64 dims and row-major little-endian f64 data."""
    magic, version, n_blocks = struct.unpack_from("<8sIQ", raw, 0)
    off = 20
    blocks = []
    for _ in range(n_blocks):
        ndim = raw[off]
        shape = struct.unpack_from(f"<{ndim}Q", raw, off + 1)
        off += 1 + 8 * ndim
        count = int(np.prod(shape))
        blocks.append(np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape))
        off += 8 * count
    assert off == len(raw)
    return magic, version, blocks


class TestDrawFormat:
    def test_roundtrip_is_bit_equal(self, fit, draws_file):
        back = io.read_draws(draws_file)
        assert len(back) == len(fit.draws)
        assert np.array_equal(back.lambda_tilde, fit.draws.lambda_tilde)
        assert np.array_equal(back.sigma_tilde_sq, fit.draws.sigma_tilde_sq)
        assert len(back.gamma_tilde_s) == len(fit.draws.gamma_tilde_s)
        for got, want in zip(back.gamma_tilde_s, fit.draws.gamma_tilde_s):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_independent_parse_matches_manifest(self, fit, draws_file):
        manifest = io.read_json(draws_file.parent / "draws_manifest.json",
                                schema="draws_manifest")
        magic, version, blocks = parse_draws_bin(draws_file.read_bytes())
        assert magic.decode() == manifest["magic"]
        assert version == manifest["version"] == io.DRAWS_VERSION == 2
        t, p = manifest["n_mc"], manifest["p"]
        shapes = {"lambda": (t, p, manifest["k0"]), "sigma_sq": (t, p)}
        shapes.update({f"gamma_{s}": (t, p, q) for s, q in enumerate(manifest["q_s"], start=1)})
        assert [b.shape for b in blocks] == [shapes[name] for name in manifest["block_order"]]
        arrays = (fit.draws.lambda_tilde, *fit.draws.gamma_tilde_s, fit.draws.sigma_tilde_sq)
        for block, want in zip(blocks, arrays, strict=True):
            assert np.array_equal(block, want)


class TestReadDrawsErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            io.read_draws(tmp_path / "missing.bin")

    @pytest.mark.parametrize("keep", [0, 5, 13])
    def test_short_header(self, draws_file, tmp_path, keep):
        bad = tmp_path / "short.bin"
        bad.write_bytes(draws_file.read_bytes()[:keep])
        with pytest.raises(ParseError, match="short.bin"):
            io.read_draws(bad)

    def test_truncated_block(self, draws_file, tmp_path):
        bad = tmp_path / "half.bin"
        raw = draws_file.read_bytes()
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ParseError, match="half.bin.*past the end"):
            io.read_draws(bad)

    def test_huge_dims_do_not_allocate(self, tmp_path):
        # 2^63 x 2^63 doubles overflow a fixed-width product
        bad = tmp_path / "huge.bin"
        bad.write_bytes(io.DRAWS_MAGIC + struct.pack("<IQ", 2, 3)
                        + struct.pack("<B2Q", 2, 2**63, 2**63))
        with pytest.raises(ParseError, match="huge.bin.*past the end"):
            io.read_draws(bad)

    def test_version_1_rejected(self, draws_file, tmp_path):
        bad = tmp_path / "v1.bin"
        raw = bytearray(draws_file.read_bytes())
        raw[8:12] = struct.pack("<I", 1)
        bad.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="v1.bin.*version 1"):
            io.read_draws(bad)

    @pytest.mark.parametrize("case", ["ndim", "n_draws", "p"])
    def test_inconsistent_blocks(self, tmp_path, case):
        lam = np.zeros((4, 6, 2))
        sig = {"ndim": np.zeros((4, 6, 1)), "n_draws": np.zeros((3, 6)),
               "p": np.zeros((4, 5))}[case]
        bad = tmp_path / f"{case}.bin"
        with bad.open("wb") as fh:
            fh.write(io.DRAWS_MAGIC + struct.pack("<IQ", 2, 2))
            io._write_block(fh, lam)
            io._write_block(fh, sig)
        with pytest.raises(ParseError, match=f"{case}.bin"):
            io.read_draws(bad)


def write_csv(path, text):
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return path


class TestStudyCsvErrors:
    """The parse-error messages of `read_study_csv`, each naming the file and,
    for a bad row, its 1-based row (the header is row 1) and column."""

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "study_1.csv", "")
        with pytest.raises(ParseError) as exc:
            io.read_study_csv(path)
        assert str(exc.value) == f"{path}: empty file"

    def test_header_only(self, tmp_path, recwarn):
        path = write_csv(tmp_path / "study_1.csv", "a,b\r\n")
        with pytest.raises(ParseError) as exc:
            io.read_study_csv(path)
        assert str(exc.value) == f"{path}: no data rows"
        assert not recwarn.list  # no "input contained no data" warning reaches the user

    def test_field_count(self, tmp_path):
        path = write_csv(tmp_path / "study_1.csv", "a,b\n1,2\n\n3\n")
        with pytest.raises(ParseError) as exc:
            io.read_study_csv(path)
        assert str(exc.value) == f"{path}: row 4 has 1 fields, header has 2"

    def test_not_a_number(self, tmp_path):
        path = write_csv(tmp_path / "study_1.csv", "a,b,c\n1,2,3\n4,5,x\n")
        with pytest.raises(ParseError) as exc:
            io.read_study_csv(path)
        assert str(exc.value) == f"{path}: row 3, column 3: not a number: 'x'"

    def test_first_bad_row_is_reported(self, tmp_path):
        path = write_csv(tmp_path / "study_1.csv", "a,b\n1,2\n3,?\n4\n")
        with pytest.raises(ParseError) as exc:
            io.read_study_csv(path)
        assert str(exc.value) == f"{path}: row 3, column 2: not a number: '?'"

    def test_not_utf8(self, tmp_path):
        path = write_csv(tmp_path / "study_1.csv", b"a,b\n1,2\n\xff\xfe,3\n")
        with pytest.raises(ParseError, match="study_1.csv: not valid utf-8 text"):
            io.read_study_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            io.read_study_csv(tmp_path / "study_1.csv")

    @pytest.mark.parametrize("read", [io.read_study_csv, io._parse_study_csv])
    @pytest.mark.parametrize("name,row", [("field_over_csv_limit", 3),
                                          ("header_over_csv_limit", 1)])
    def test_field_over_csv_limit(self, tmp_path, read, name, row):
        path = write_csv(tmp_path / "study_1.csv", UNUSUAL_CSVS[name])
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == (f"{path}: row {row}: field larger than field limit "
                                  f"({csv.field_size_limit()})")

    def test_header_mismatch(self, tmp_path):
        write_csv(tmp_path / "study_1.csv", "a,b\n1,2\n3,4\n")
        path = write_csv(tmp_path / "study_2.csv", "a,c\n1,2\n3,4\n")
        with pytest.raises(DataError) as exc:
            io.load_dataset(tmp_path)
        assert str(exc.value) == (f"{path}: header differs from study_1.csv; "
                                  "all studies must share outcomes")


# Files the reader must treat exactly as the reference parser does.
UNUSUAL_CSVS = {
    "plain": "a,b\n1.5,-2\n3e-3,4\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "cr_only": "a,b\r1,2\r3,4\r",
    "no_final_newline": "a,b\n1,2\n3,4",
    "blank_lines": "a,b\n\n1,2\n\n\n3,4\n\n",
    "whitespace_line": "a,b\n1,2\n   \n3,4\n",
    "tab_line": "a,b\n1,2\n\t\n",
    "whitespace_line_one_column": "a\n1\n \n2\n",
    "padded_fields": "a,b\n 1 ,\t2\x0b\n\xa03,4\u3000\n",
    "information_separator": "a,b\n1,2\x1c\n",
    "information_separator_line": "a,b\n1,2\n\x1f\n",
    "quoted_numbers": 'a,b\n"1",2\n3,"4"\n',
    "quoted_multiline": 'a,b\n"1\n",2\n',
    "underscore": "a,b\n1_0,2\n",
    "hash_field": "a,b\n1,#2\n",
    "hash_line": "a,b\n1,2\n# note\n",
    "trailing_comma": "a,b\n1,2,\n",
    "trailing_comma_header": "a,b,\n1,2,\n",
    "empty_field": "a,b\n1,\n",
    "nan_inf_spellings": "a,b,c,d\nnan,-nan,NaN,+nan\ninf,-Infinity,INF,+inf\n",
    "overflow": "a,b\n1e400,-1e400\n",
    "subnormal": "a,b\n5e-324,-1e-320\n",
    "bad_spellings": "a,b\ninfinit,1\n",
    "hex": "a,b\n0x10,1\n",
    "non_ascii_digit": "a,b\n\u0661,2\n",
    "bom": "\ufeffa,b\n1,2\n",
    "bom_in_body": "a,b\n\ufeff1,2\n",
    "single_column": "a\n1\n2\n3\n",
    "single_row": "a,b,c\n1,2,3\n",
    "quoted_header": '" a ","b,c"\n1,2\n',
    "blank_header": "\n1,2\n",
    "blank_header_only": "\n\n",
    "short_row": "a,b,c\n1,2,3\n4,5\n",
    "long_row": "a,b\n1,2\n3,4,5\n",
    "nul": "a,b\n1,\x002\n",
    "empty": "",
    "header_only": "a,b\n",
    "field_over_csv_limit": "a,b\n1,2\n" + "0" * 131072 + "1,2\n",
    "header_over_csv_limit": "a" * 131073 + ",b\n1,2\n",
    "line_over_csv_limit": "a,b\n" + "0" * 131060 + ".5," + "1" * 100 + "\n",
    "not_utf8": b"a,b\n1,2\n\xff,3\n",
    "not_utf8_header": b"\xffa,b\n1,2\n",
    # where a line's JSON reading and `float` disagree, or might
    "negative_zero_int": "a,b\n1,2\n3, -0\n",
    "negative_zero_float": "a,b,c\n-0e0,-0.0,-0E+0\n0,1e-0,-0.5\n",
    "json_literals": "a,b,c\ntrue,false,null\n",
    "json_literal_one_column": "a\ntrue\n",
    "json_array": "a,b\n[1],2\n",
    "json_array_one_column": "a\n[1]\n",
    "quoted_one_column": 'a\n"1"\n',
    "leading_zero": "a,b\n01,2\n",
    "exponent_spellings": "a,b\n1E5,2e+3\n-1E-5,2E05\n",
    "int_above_2_53": "a,b\n9007199254740993,-9007199254740993\n",
    "int_30_digits": "a,b\n" + "1" * 30 + ",-" + "9" * 30 + "\n",
    "int_past_u64": "a,b\n18446744073709551615,18446744073709551616\n",
    # line ends of every kind in one file, split as text mode splits them
    "mixed_line_ends": "a,b\r\n1,2\r3,4\n5,6\r\r\n7,8\r\r9,10",
    "cr_in_header_line": "a,b\r1,2\r\n",
    # ints and floats on one line, each packed by the same conversion
    "int_float_mix": "a,b,c,d\n9007199254740993,0.1,-3,18446744073709551617\n"
                     "-1e-320,12345678901234567891,2.5e300,7\n",
    "int_400_digits": "a,b\n" + "1" * 400 + ",2\n",
    "whitespace_only_line": "a,b\n1,2\n \t \r\n3,4\n",
    "whitespace_line_blank_header": "\n \n",
    "cr_only_ints": "a,b,c\r1,2,3\r40,-5,0",
    "cr_only_negative_zero_int": "a,b\r1,-0\r",
    "json_field_over_csv_limit": "a,b\n1,2\n0." + "0" * 131071 + "5,2\n",
    "json_line_over_csv_limit": "a,b\n" + ",".join(["0." + "0" * 70000 + "5"] * 2) + "\n",
    # the row count estimated from the first line is too small: the array grows
    "long_first_row": "a,b\n0." + "1" * 200 + ",2\n" + "3,-4.5\n" * 100,
}


def read_outcome(read, path):
    """Bit pattern and header of a read, or the ParseError raised."""
    try:
        y, header = read(path)
    except ParseError as exc:
        return type(exc), str(exc)
    return y.dtype, y.shape, y.tobytes(), header


class TestStudyCsvReader:
    @pytest.mark.parametrize("name", sorted(UNUSUAL_CSVS))
    def test_matches_reference_parser(self, tmp_path, name):
        path = write_csv(tmp_path / "study_1.csv", UNUSUAL_CSVS[name])
        assert read_outcome(io.read_study_csv, path) == read_outcome(io._parse_study_csv, path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(
        ["1", "-2.5", "1e3", "nan", "-inf", "1e400", "", " ", "x", "#", "1_0", '"1"', '"',
         "\xa07", "\x1c", "\u0661", "\r", "\n", "\r\n", ",", "-0", "0", "true", "null",
         "1E5", "[", "9007199254740993"]), min_size=1, max_size=3),
        max_size=4), st.sampled_from(["\n", "\r\n", "\r"]))
    def test_property_matches_reference_parser(self, tmp_path_factory, rows, newline):
        text = newline.join(["a,b", *("".join(fields) for fields in rows)]) + newline
        path = write_csv(tmp_path_factory.mktemp("prop") / "study_1.csv", text)
        assert read_outcome(io.read_study_csv, path) == read_outcome(io._parse_study_csv, path)

    @pytest.mark.parametrize("name,route", [("plain", "fast"), ("quoted_numbers", "reparse")])
    def test_logs_route(self, tmp_path, caplog, name, route):
        path = write_csv(tmp_path / "study_1.csv", UNUSUAL_CSVS[name])
        with caplog.at_level(logging.DEBUG, logger="blast.io"):
            io.read_study_csv(path)
        (event,) = [r.getMessage() for r in caplog.records if "event=csv_read" in r.getMessage()]
        assert f"path={path} rows=2 cols=2 route={route} seconds=" in event

    @pytest.mark.parametrize("name,route", [
        ("negative_zero_float", "fast"), ("exponent_spellings", "fast"),
        ("int_above_2_53", "fast"), ("int_30_digits", "fast"), ("int_past_u64", "fast"),
        ("int_float_mix", "fast"), ("mixed_line_ends", "fast"), ("cr_in_header_line", "fast"),
        ("cr_only_ints", "fast"), ("blank_lines", "fast"), ("crlf", "fast"),
        ("negative_zero_int", "reparse"), ("cr_only_negative_zero_int", "reparse"),
        ("quoted_one_column", "reparse"), ("leading_zero", "reparse"),
        ("int_400_digits", "reparse"), ("nan_inf_spellings", "reparse"),
        ("json_line_over_csv_limit", "fast"), ("long_first_row", "fast"),
        ("padded_fields", "reparse"), ("line_over_csv_limit", "reparse")])
    def test_route(self, tmp_path, caplog, name, route):
        # a fast read is bit-equal to the reference (above); these pin which
        # lines the fast parser takes and which it leaves to the reference
        path = write_csv(tmp_path / "study_1.csv", UNUSUAL_CSVS[name])
        with caplog.at_level(logging.DEBUG, logger="blast.io"):
            io.read_study_csv(path)
        (event,) = [r.getMessage() for r in caplog.records if "event=csv_read" in r.getMessage()]
        assert f" route={route} " in event

    def test_cli_scale_study(self, tmp_path, caplog):
        ds, _ = generate(SimScenario(n_studies=1, n_per_study=500, p=1000, k0=5, q_s=4,
                                     loading_sd=0.5, seed=101))
        io.write_dataset(tmp_path, ds)
        path = tmp_path / "study_1.csv"
        io.read_study_csv(path)  # imports orjson outside the traced read
        tracemalloc.start()
        try:
            with caplog.at_level(logging.DEBUG, logger="blast.io"):
                y, header = io.read_study_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.dtype == np.float64 and y.flags.c_contiguous
        assert y.tobytes() == ds.studies[0].tobytes()
        assert header == [f"y{j}" for j in range(1, 1001)]
        assert " route=fast " in caplog.records[-1].getMessage()
        # no list of rows beside the array: the read holds about one copy
        assert peak <= 1.3 * y.nbytes


def csv_writer_reference(names, y):
    """What `write_dataset` wrote when every row went through csv.writer."""
    buf = StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(names)
    for row in y:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode()


class TestWriteDataset:
    VALUES = np.array([[-0.0, 5e-324, 1e16, 1e-5, 1 / 3],
                       [1.0, -2.5, 123456789.123, -1e-300, 2.0**0.5]])
    NAMES = ("plain", "with,comma", 'with "quote"', " padded ", "last")

    def test_bytes_equal_csv_writer(self, tmp_path):
        ds = MultiStudyDataset((self.VALUES, self.VALUES[::-1] * 3), outcome_names=self.NAMES)
        io.write_dataset(tmp_path, ds)
        for s, y in enumerate(ds.studies, start=1):
            got = (tmp_path / f"study_{s}.csv").read_bytes()
            assert got == csv_writer_reference(self.NAMES, y)

    def test_default_names(self, tmp_path):
        ds = MultiStudyDataset((self.VALUES,))
        io.write_dataset(tmp_path, ds)
        want = csv_writer_reference([f"y{j}" for j in range(1, 6)], self.VALUES)
        assert (tmp_path / "study_1.csv").read_bytes() == want

    def test_roundtrip_is_bit_equal(self, tmp_path):
        g = np.random.default_rng(7)
        y = g.standard_normal((40, 7)) * np.logspace(-300, 300, 7)
        y[0] = -0.0
        io.write_dataset(tmp_path / "a", MultiStudyDataset((y,)))
        back, header = io.read_study_csv(tmp_path / "a" / "study_1.csv")
        assert header == [f"y{j}" for j in range(1, 8)]
        assert back.tobytes() == y.tobytes()
        io.write_dataset(tmp_path / "b", MultiStudyDataset((self.VALUES, self.VALUES),
                                                           outcome_names=self.NAMES))
        loaded = io.load_dataset(tmp_path / "b")
        assert loaded.outcome_names == tuple(n.strip() for n in self.NAMES)
        for study in loaded.studies:
            assert study.tobytes() == self.VALUES.tobytes()

    # Each side of the range where orjson's notation is repr's, and values
    # whose repr ends in ".0".
    BOUNDARY = (1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1e16,
                np.nextafter(1e16, 0.0), -0.0, 0.0, 5e-324, np.finfo(np.float64).max,
                1.0, 1e15, 2.0**53, 123456789.0)

    def assert_written_as_reference(self, data_dir, ds):
        io.write_dataset(data_dir, ds)
        names = [f"y{j}" for j in range(1, ds.p + 1)]
        for s, y in enumerate(ds.studies, start=1):
            assert (data_dir / f"study_{s}.csv").read_bytes() == csv_writer_reference(names, y)

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 8)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_property_bytes_equal_csv_writer(self, tmp_path_factory, y):
        self.assert_written_as_reference(tmp_path_factory.mktemp("write"),
                                         MultiStudyDataset((y,)))

    def test_boundary_values(self, tmp_path):
        v = np.array(self.BOUNDARY)
        alone = np.where(np.eye(len(v), dtype=bool), v, 1.0)  # row i: v[i] among ones
        y = np.vstack([v, alone])
        self.assert_written_as_reference(tmp_path, MultiStudyDataset((y, -y)))

    def test_non_contiguous_studies(self, tmp_path):
        y = np.random.default_rng(3).standard_normal((12, 10)) * np.logspace(-8, 20, 10)
        fortran, strided = np.asfortranarray(y), np.vstack([y, y])[::2, ::2]
        ds = MultiStudyDataset((fortran[:, :5], strided))
        assert not any(study.flags.c_contiguous for study in ds.studies)
        self.assert_written_as_reference(tmp_path, ds)

    def test_cli_scale_dataset(self, tmp_path):
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=500, p=1000, k0=5, q_s=4,
                                     loading_sd=0.5, seed=101))
        self.assert_written_as_reference(tmp_path, ds)

    def test_orjson_loaded_only_by_file_io(self, tmp_path):
        write = ("import sys\n"
                 "import blast, blast.io, blast.cli\n"
                 "from blast import BlastConfig, SimScenario, generate, run_blast\n"
                 "ds, _ = generate(SimScenario(n_studies=2, n_per_study=60, p=20, k0=2,"
                 " q_s=1, loading_sd=1.0, seed=5))\n"
                 "run_blast(ds, BlastConfig(n_mc=5, seed=1))\n"
                 "assert 'orjson' not in sys.modules, 'orjson imported'\n"
                 "blast.io.write_dataset(sys.argv[1], ds)\n"
                 "assert 'orjson' in sys.modules\n")
        read = ("import sys\n"
                "import blast, blast.io, blast.cli\n"
                "assert 'orjson' not in sys.modules, 'orjson imported'\n"
                "blast.io.read_study_csv(sys.argv[1] + '/study_1.csv')\n"
                "assert 'orjson' in sys.modules\n")
        src = str(Path(io.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for script in (write, read):
            done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr


class TestJsonValidation:
    # (schema, instance, ParseError text of read_json as jsonschema.validate gave it)
    CASES = [
        ("predict_report",
         {"level": 1.5, "split": {"mode": "x"}, "studies": [{"study": "a"}], "total_loglik": "no"},
         "schema violation at ['total_loglik']: 'no' is not of type 'number'"),
        ("run_config", {"projection_weighting": "by-n", "n_mc": -3, "extra": 1},
         "schema violation at []: Additional properties are not allowed ('extra' was unexpected)"),
        ("timings", [], "schema violation at []: [] is not of type 'object'"),
    ]

    @pytest.mark.parametrize("schema, obj, message", CASES)
    def test_parse_error_text_unchanged(self, tmp_path, schema, obj, message):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError) as exc:
            io.read_json(path, schema=schema)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("schema, obj, message", CASES)
    def test_error_is_the_one_jsonschema_validate_raises(self, schema, obj, message):
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(obj, io._load_schema(schema))
        with pytest.raises(jsonschema.ValidationError) as got:
            io.validate_json(obj, schema)
        assert (got.value.message, list(got.value.absolute_path), got.value.validator) == \
            (want.value.message, list(want.value.absolute_path), want.value.validator)

    def test_schema_checked_once_per_schema(self, monkeypatch):
        cls = jsonschema.validators.validator_for(io._load_schema("timings"))
        checked = []
        check = cls.check_schema
        monkeypatch.setattr(cls, "check_schema",
                            lambda schema, **kw: checked.append(schema["title"]) or check(schema))
        io._validator.cache_clear()
        try:
            for _ in range(5):
                io.validate_json({"level": 0.9, "studies": []}, "predict_report")
                with pytest.raises(jsonschema.ValidationError):
                    io.validate_json([], "timings")
        finally:
            io._validator.cache_clear()
        assert sorted(checked) == sorted({io._load_schema(name)["title"]
                                          for name in ("predict_report", "timings")})
