"""File formats: study CSVs, the packed draw binary, and validated JSON.

Datasets are one CSV per study (`study_<s>.csv`, 1-based), first row the
outcome names, one sample per subsequent row; all studies must share the
header exactly.  A written file is byte for byte what csv.writer writes for
rows of `repr(float(v))` strings, with \\r\\n line ends, so a read-back is
bit-exact.  orjson formats the rows; the values it would write in another
notation (nonzero |v| < 1e-4, and |v| >= 1e16) are written by `repr`.
The rows are written as orjson's bytes, with no text encoding on the way.
orjson also parses the rows on read, from the file's bytes, each line as a
JSON array whose values are packed straight into the study's float64
array; a line of anything but plain numbers, commas and whitespace, or
with a `-0` integer (whose sign JSON drops), sends the file to the
csv-and-`float` reference parser, whose result or error is the reader's.
Every dataset, fit and report file is opened through `_open`, so one that
cannot be opened, for reading or for writing, raises DataError.
Posterior draws go to one packed little-endian binary (magic "BLASTDRW",
version 2) with a JSON manifest: one block per draw component, each with the
draw axis first.  Every JSON artifact validates against a shipped schema.
"""

import contextlib
import csv
import functools
import importlib.resources
import itertools
import json
import locale
import logging
import math
import os
import re
import struct
import time
import zipfile
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, ParseError
from .posterior import DrawSet
from .spectral import MultiStudyDataset

DRAWS_MAGIC = b"BLASTDRW"
DRAWS_VERSION = 2

_STUDY_RE = re.compile(r"^study_(\d+)\.csv$")

logger = logging.getLogger(__name__)


def study_csv_paths(data_dir):
    """study_<s>.csv files under data_dir, ordered by s (must start at 1)."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"{data_dir} is not a directory")
    found = []
    for path in data_dir.iterdir():
        m = _STUDY_RE.match(path.name)
        if m:
            found.append((int(m.group(1)), path))
    if not found:
        raise DataError(f"no study_<s>.csv files in {data_dir}")
    found.sort()
    indices = [s for s, _ in found]
    if indices != list(range(1, len(found) + 1)):
        raise DataError(f"study files must be numbered 1..S, found {indices}")
    return [p for _, p in found]


@contextlib.contextmanager
def _open(path, mode="r", **kwargs):
    """path.open as a context manager, with a file that cannot be opened
    (missing, unreadable, unwritable, a directory) raised as DataError and
    text that does not decode raised as ParseError."""
    try:
        fh = path.open(mode, **kwargs)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid {exc.encoding} text") from None


def read_study_csv(path):
    """One study matrix plus its header; parse errors carry row/col.

    The body is parsed line by line as JSON arrays by `_load_study_csv`.
    Any file that parser does not take whole (a line it declines, no rows)
    is parsed again by `_parse_study_csv`, which defines what is accepted
    and which error is raised."""
    path = Path(path)
    t0 = time.perf_counter()
    parsed, route = _load_study_csv(path), "fast"
    if parsed is None:
        parsed, route = _parse_study_csv(path), "reparse"
    y, header = parsed
    logger.debug("event=csv_read path=%s rows=%d cols=%d route=%s seconds=%.6f",
                 path, y.shape[0], y.shape[1], route, time.perf_counter() - t0)
    return parsed


# Past a successful JSON parse, a line free of these holds only
# `0-9 . e E + - ,`, space, tab, CR and LF: they open every JSON string,
# array, object and literal (true, false, null).
_JSON_NON_NUMBERS = b'"[{tfn'


def _text_mode_lines(fh):
    """The lines of the binary file fh as a text file opened with
    newline="" yields them: ended by \\n, \\r\\n or a lone \\r, each
    line end kept."""
    for chunk in fh:  # ended by its first \n, or by the end of the file
        # a \r before the chunk's last byte, other than a final \r\n's,
        # ends a line inside it
        if chunk.find(b"\r", 0, len(chunk) - 1 - chunk.endswith(b"\r\n")) >= 0:
            yield from chunk.splitlines(keepends=True)
        else:
            yield chunk


def _load_study_csv(path):
    """`_parse_study_csv`'s result, each body line parsed by orjson as a
    JSON array, or None where that parser must decide.

    The file is read in binary mode, split into lines as text mode splits
    them; the header lines are decoded as text mode decodes them (the
    locale's encoding) and go through csv, while the body lines go to
    orjson as bytes, which saves decoding them: a line the checks below
    accept is ASCII.  Lines that are only a line end are skipped, as csv
    skips them.  Every other line is declined unless it holds only
    `0-9 . e E + - ,`, space, tab, CR and LF, has no field over csv's size
    limit, parses as JSON to a row of the header's width, and has no
    integer token `-0` (JSON reads it as the int 0, `float` as -0.0).  On
    such a line each comma-separated field is one JSON number, which orjson
    rounds to the float `float` gives.  Each row is packed by one `struct`
    call into the bytes of w doubles and copied into a float64 array sized
    from the file and the first line, grown as needed and trimmed at the
    end; `struct` and numpy's item assignment convert an int or a float by
    the same rule (the int's correctly rounded double), so the bits are the
    same as `y[n] = row` would give, in under half of its time.  orjson is
    imported here, so that only file I/O loads it."""
    import orjson

    limit = csv.field_size_limit()
    encoding = locale.getpreferredencoding(False)
    with _open(path, "rb") as fh:
        lines = _text_mode_lines(fh)
        try:
            header = next(csv.reader(line.decode(encoding) for line in lines))
            header = [h.strip() for h in header]
            pack = struct.Struct(f"{len(header)}d").pack
            y, n = None, 0
            for line in lines:
                if line in (b"\n", b"\r\n", b"\r"):
                    continue
                row = orjson.loads(b"[" + line + b"]")
                # an empty row is a line of whitespace, one field to csv
                if not row or len(row) != len(header) or any(
                        c in line for c in _JSON_NON_NUMBERS) or (
                        len(line) > limit and max(map(len, line.split(b","))) > limit):
                    return None
                if y is None:
                    size = os.fstat(fh.fileno()).st_size
                    # lines vary in length by about 1%: 1/16 to spare
                    # saves most files a copy to grow (pages never
                    # written are never resident)
                    y = np.empty((size // len(line) * 17 // 16 + 1, len(header)))
                elif n == y.shape[0]:
                    # safe without refcheck: no view of y outlives its statement
                    y.resize((n + n // 2 + 1, len(header)), refcheck=False)
                y[n] = np.frombuffer(pack(*row))
                if not y[n].all() and b"-0" in map(bytes.strip, line.split(b",")):
                    return None
                n += 1
        except (StopIteration, csv.Error, UnicodeDecodeError, orjson.JSONDecodeError):
            return None
    if n == 0:
        return None
    y.resize((n, len(header)), refcheck=False)
    return y, header


def _csv_records(fh, path):
    """(row number, fields) of each CSV record of fh, the header being row 1;
    an error of csv's own, such as a field over its size limit, is raised
    as ParseError naming the row."""
    reader = csv.reader(fh)
    for r in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"{path}: row {r}: {exc}") from None
        yield r, row


def _parse_study_csv(path):
    """The reference study-CSV parser, row by row through csv and float."""
    with _open(path, newline="") as fh:
        records = _csv_records(fh, path)
        try:
            _, header = next(records)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for r, row in records:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {r} has {len(row)} fields, header has {len(header)}"
                )
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                for c, x in enumerate(row, start=1):
                    try:
                        float(x)
                    except ValueError:
                        raise ParseError(
                            f"{path}: row {r}, column {c}: not a number: {x!r}"
                        ) from None
                raise
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64), header


def read_studies(data_dir):
    """The matrices of a directory's study CSVs, in study order, and the
    header they share; a header that differs from study_1.csv's raises
    DataError."""
    studies, header = [], None
    for path in study_csv_paths(data_dir):
        y, h = read_study_csv(path)
        if header is None:
            header = h
        elif h != header:
            raise DataError(f"{path}: header differs from study_1.csv; all studies must share outcomes")
        studies.append(y)
    return studies, header


def load_dataset(data_dir) -> MultiStudyDataset:
    """Read all study CSVs of a directory into one dataset."""
    studies, header = read_studies(data_dir)
    return MultiStudyDataset(tuple(studies), outcome_names=tuple(header))


def write_dataset(data_dir, dataset: MultiStudyDataset):
    """One `study_<s>.csv` per study: the outcome names as a csv.writer row,
    then one line per sample.  The bytes are what csv.writer writes for the
    rows of `repr(float(v))` strings: each value is its shortest round-trip
    repr, no field is quoted, and every line ends in \\r\\n.

    Rows are formatted by orjson, whose shortest-digit floats are the
    repr's for 0 and for every finite |v| in [1e-4, 1e16).  Outside that
    range the two differ only in notation (orjson writes `0.00001` and
    `1e16` where repr writes `1e-05` and `1e+16`), so those values alone
    are written by `repr`.  The header goes through the file's text layer;
    the rows, already bytes, go straight to its binary buffer, which at
    1 MiB takes many rows per write call (a row of p = 1000 is 20 KB, more
    than the default buffer)."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    names = dataset.outcome_names or tuple(f"y{j+1}" for j in range(dataset.p))
    for s, y in enumerate(dataset.studies, start=1):
        with _open(data_dir / f"study_{s}.csv", "w", newline="", buffering=1 << 20) as fh:
            csv.writer(fh).writerow(names)
            fh.flush()
            fh.buffer.writelines(_csv_lines(y))


_CSV_BLOCK_ROWS = 64


def _csv_lines(y):
    """The \\r\\n-ended lines of y's rows, in `repr`'s notation, as the
    ASCII bytes orjson writes (nothing is decoded to text and encoded
    again).  The range test runs on blocks of rows to keep its temporaries
    small; orjson is imported here, so that only writing a dataset loads
    it."""
    import orjson

    for start in range(0, y.shape[0], _CSV_BLOCK_ROWS):
        block = y[start:start + _CSV_BLOCK_ROWS]
        a = np.abs(block)
        by_repr = ~((a < 1e16) & ((a >= 1e-4) | (a == 0)))
        for row, patch in zip(block, by_repr):
            # orjson refuses a non-contiguous array
            line = orjson.dumps(np.ascontiguousarray(row), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
            if patch.any():
                fields = line.split(b",")
                for j in np.flatnonzero(patch):
                    fields[j] = repr(float(row[j])).encode()
                line = b",".join(fields)
            yield line + b"\r\n"


def write_truth(path, truth):
    """The generator truth as an npz archive at exactly `path`."""
    with _open(Path(path), "wb") as fh:
        np.savez(
            fh,
            lambda0=truth.lambda0,
            sigma0_sq=truth.sigma0_sq,
            **{f"gamma0_{s+1}": g for s, g in enumerate(truth.gamma0_s)},
            **{f"m0_{s+1}": m for s, m in enumerate(truth.m0_s)},
            **{f"f0_{s+1}": f for s, f in enumerate(truth.f0_s)},
        )


def _write_block(fh, arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape))
    fh.write(arr.data)


def _take(fh, n, size, what):
    """The next n bytes of fh; ParseError if the file of `size` bytes ends first."""
    if n > size - fh.tell():
        raise ParseError(f"{fh.name}: {what} runs past the end of the file")
    return fh.read(n)


def _read_block(fh, size, i):
    ndim = _take(fh, 1, size, f"block {i}")[0]
    shape = struct.unpack(f"<{ndim}Q", _take(fh, 8 * ndim, size, f"block {i}"))
    data = _take(fh, 8 * math.prod(shape), size, f"block {i} of shape {shape}")
    return np.frombuffer(data, dtype="<f8").reshape(shape)


def write_draws(path, draws: DrawSet, manifest_path=None):
    """Packed draw binary: magic, version u32, block count u64, then one
    shape-prefixed block of little-endian f64 per component, each with the
    draw axis first: the shared loadings (T x p x k0), each study's specific
    loadings (T x p x q_s), and the residual variances (T x p)."""
    path = Path(path)
    blocks = (draws.lambda_tilde, *draws.gamma_tilde_s, draws.sigma_tilde_sq)
    with _open(path, "wb") as fh:
        fh.write(DRAWS_MAGIC)
        fh.write(struct.pack("<IQ", DRAWS_VERSION, len(blocks)))
        for block in blocks:
            _write_block(fh, block)
    if manifest_path is not None:
        n_mc, p, k0 = draws.lambda_tilde.shape
        manifest = {
            "magic": DRAWS_MAGIC.decode(),
            "version": DRAWS_VERSION,
            "n_mc": n_mc,
            "p": p,
            "k0": k0,
            "q_s": [g.shape[2] for g in draws.gamma_tilde_s],
            "dtype": "float64",
            "endianness": "little",
            "block_order": ["lambda", *(f"gamma_{s}" for s in range(1, len(blocks) - 1)),
                            "sigma_sq"],
            "block_layout": "u8 ndim, ndim x u64 dims (draw index first), row-major f64 data",
        }
        write_json(manifest_path, manifest, schema="draws_manifest")


def read_draws(path) -> DrawSet:
    """The DrawSet of a `write_draws` file.  A missing file raises DataError;
    a truncated, inconsistent or version-1 file raises ParseError."""
    path = Path(path)
    with _open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = _take(fh, 8, size, "header")
        if magic != DRAWS_MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        version, n_blocks = struct.unpack("<IQ", _take(fh, 12, size, "header"))
        if version != DRAWS_VERSION:
            raise ParseError(f"{path}: unsupported draws version {version} "
                             f"(this release reads version {DRAWS_VERSION}; refit)")
        if n_blocks < 2:
            raise ParseError(f"{path}: {n_blocks} blocks, need at least 2")
        blocks = [_read_block(fh, size, i) for i in range(n_blocks)]
    # blocks: lambda, gamma_1..gamma_S, sigma_sq, so S = n_blocks - 2
    try:
        return DrawSet(lambda_tilde=blocks[0], gamma_tilde_s=tuple(blocks[1:-1]),
                       sigma_tilde_sq=blocks[-1])
    except DimensionError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_schema(name):
    ref = importlib.resources.files("blast") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


@functools.cache
def _validator(name):
    """The validator of the shipped schema `name`, built and its schema
    checked against the metaschema once per process."""
    import jsonschema

    schema = _load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_json(obj, schema):
    """Raise the jsonschema.ValidationError that jsonschema.validate would."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator(schema).iter_errors(obj))
    if error is not None:
        raise error


def write_json(path, obj, schema=None):
    if schema is not None:
        validate_json(obj, schema)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, schema=None):
    import jsonschema

    with _open(Path(path)) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if schema is not None:
        try:
            validate_json(obj, schema)
        except jsonschema.ValidationError as exc:
            raise ParseError(f"{path}: schema violation at {list(exc.absolute_path)}: "
                             f"{exc.message}") from None
    return obj


# Arrays of every point-estimates file, besides mu_gamma_<s> and
# specific_diag_<s> for each study s = 1..len(q_s).
_POINT_ESTIMATE_KEYS = ("mu_lambda", "delta_sq", "v_j", "sigma_hat_sq", "rho_lambda",
                        "rho_gamma", "k_scalar", "gamma_n", "k0", "q_s", "n", "n_s",
                        "k_gamma_s", "shared_diag")


def write_point_estimates(path, spec, dims):
    """Low-rank factors and diagonals of the fitted covariance components."""
    arrays = {
        "mu_lambda": spec.mu_lambda,
        "delta_sq": spec.delta_sq,
        "v_j": spec.v_j,
        "sigma_hat_sq": spec.gamma_n * spec.delta_sq / (spec.gamma_n - 2.0),
        "rho_lambda": np.asarray(spec.rho_lambda),
        "rho_gamma": np.asarray(spec.rho_gamma),
        "k_scalar": np.asarray(spec.k_scalar),
        "gamma_n": np.asarray(spec.gamma_n),
        "k0": np.asarray(dims.k0),
        "q_s": np.asarray(dims.q_s),
        "n": np.asarray(spec.n),
        "n_s": np.asarray(spec.n_s),
        "k_gamma_s": np.asarray(spec.k_gamma_s),
    }
    from .posterior import point_estimates

    shared, specific = point_estimates(spec, dims)
    arrays["shared_diag"] = shared.diag_add
    for s, (mg, model) in enumerate(zip(spec.mu_gamma_s, specific), start=1):
        arrays[f"mu_gamma_{s}"] = mg
        arrays[f"specific_diag_{s}"] = model.diag_add
    with _open(Path(path), "wb") as fh:
        np.savez(fh, **arrays)


def read_point_estimates(path):
    """The arrays of `write_point_estimates`, by name.  A missing file raises
    DataError; an unreadable one, or one lacking an array, ParseError."""
    path = Path(path)
    try:
        with _open(path, "rb") as fh, np.load(fh) as z:
            est = {k: z[k] for k in z.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"{path}: not a readable point-estimates file ({exc})") from None
    per_study = [f"{name}_{s}" for s in range(1, np.size(est.get("q_s", [])) + 1)
                 for name in ("mu_gamma", "specific_diag")]
    missing = [k for k in _POINT_ESTIMATE_KEYS + tuple(per_study) if k not in est]
    if missing:
        raise ParseError(f"{path}: missing arrays {missing}")
    return est
