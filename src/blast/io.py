"""File formats: study CSVs, the packed draw binary, and validated JSON.

Datasets are one CSV per study (`study_<s>.csv`, 1-based), first row the
outcome names, one sample per subsequent row; all studies must share the
header exactly.  Values are written as the shortest round-trip repr of each
float, so a read-back is bit-exact.  Posterior draws go to one packed
little-endian binary (magic "BLASTDRW", version 2) with a JSON manifest: one
block per draw component, each with the draw axis first.  Every JSON artifact
validates against a shipped schema.
"""

import contextlib
import csv
import importlib.resources
import json
import logging
import math
import os
import re
import struct
import time
import warnings
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
    """path.open as a context manager, with a missing or unreadable file
    raised as DataError and text that does not decode raised as ParseError."""
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

    The body is parsed by one `np.loadtxt` pass.  Any file that pass does
    not take whole (an error, a warning, no rows, or a width other than the
    header's) is parsed again by `_parse_study_csv`, which defines what is
    accepted and which error is raised."""
    path = Path(path)
    t0 = time.perf_counter()
    parsed, route = _load_study_csv(path), "fast"
    if parsed is None:
        parsed, route = _parse_study_csv(path), "reparse"
    y, header = parsed
    logger.debug("event=csv_read path=%s rows=%d cols=%d route=%s seconds=%.6f",
                 path, y.shape[0], y.shape[1], route, time.perf_counter() - t0)
    return parsed


def _load_study_csv(path):
    """`_parse_study_csv`'s result by C-level parsing, or None where that
    parser must decide.  loadtxt gets the lines csv gets, skips only empty
    ones (as csv does), and on the lines `_loadtxt_lines` passes reads a
    subset of what `float` reads, to the same bits.  `comments=None` keeps
    it from dropping the text after a '#'."""
    with _open(path, newline="") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                y = np.loadtxt(_loadtxt_lines(fh), delimiter=",", comments=None, ndmin=2,
                               dtype=np.float64)
        except (StopIteration, ValueError, Warning):
            return None
    if y.shape[0] == 0 or y.shape[1] != len(header):
        return None
    return y, header


def _loadtxt_lines(fh):
    """The lines of fh, raising ValueError at the first that loadtxt could
    read where the reference parser does not: one with an ASCII
    information separator (0x1c-0x1f), which numpy strips around a number
    and `float` does not, or a field over csv's size limit."""
    limit = csv.field_size_limit()
    for line in fh:
        if any(sep in line for sep in "\x1c\x1d\x1e\x1f") or (
                len(line) > limit and max(map(len, line.split(","))) > limit):
            raise ValueError(f"line needs the reference parser: {line[:40]!r}")
        yield line


def _parse_study_csv(path):
    """The reference study-CSV parser, row by row through csv and float."""
    with _open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for r, row in enumerate(reader, start=2):
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


def load_dataset(data_dir) -> MultiStudyDataset:
    """Read all study CSVs of a directory into one dataset."""
    paths = study_csv_paths(data_dir)
    studies, header = [], None
    for path in paths:
        y, h = read_study_csv(path)
        if header is None:
            header = h
        elif h != header:
            raise DataError(f"{path}: header differs from study_1.csv; all studies must share outcomes")
        studies.append(y)
    return MultiStudyDataset(tuple(studies), outcome_names=tuple(header))


def write_dataset(data_dir, dataset: MultiStudyDataset):
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    names = dataset.outcome_names or tuple(f"y{j+1}" for j in range(dataset.p))
    for s, y in enumerate(dataset.studies, start=1):
        path = data_dir / f"study_{s}.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerow(names)
            # what csv.writer writes for these rows: a float's repr needs no
            # quoting, and its line terminator is \r\n.  One row at a time
            # keeps the Python floats to one row.
            for row in y:
                fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def write_truth(path, truth):
    np.savez(
        path,
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
    with path.open("wb") as fh:
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


def validate_json(obj, schema):
    import jsonschema

    jsonschema.validate(obj, _load_schema(schema))


def write_json(path, obj, schema=None):
    if schema is not None:
        validate_json(obj, schema)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
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
    np.savez(path, **arrays)


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
