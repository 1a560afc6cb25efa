"""File formats: study CSVs, the packed draw binary, and validated JSON.

Datasets are one CSV per study (`study_<s>.csv`, 1-based), first row the
outcome names, one sample per subsequent row; all studies must share the
header exactly.  Posterior draws go to a packed little-endian binary
(magic "BLASTDRW") with a JSON manifest, or to one CSV per component per
draw on request.  Every JSON artifact validates against a shipped schema.
"""

import contextlib
import csv
import importlib.resources
import json
import re
import struct
import zipfile
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError
from .posterior import PosteriorDraw
from .spectral import MultiStudyDataset

DRAWS_MAGIC = b"BLASTDRW"
DRAWS_VERSION = 1

_STUDY_RE = re.compile(r"^study_(\d+)\.csv$")


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
    """One study matrix plus its header; parse errors carry row/col."""
    path = Path(path)
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
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in y:
                writer.writerow([repr(float(v)) for v in row])


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
    fh.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<Q", d))
    fh.write(arr.tobytes())


def _read_block(fh):
    ndim = struct.unpack("<B", fh.read(1))[0]
    shape = tuple(struct.unpack("<Q", fh.read(8))[0] for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    data = np.frombuffer(fh.read(8 * count), dtype="<f8", count=count)
    return data.reshape(shape)


def write_draws(path, draws, manifest_path=None):
    """Packed draw binary: magic, version u32, then per draw the shared
    loadings, each study's specific loadings, and the residual variances,
    each as a shape-prefixed block of little-endian f64."""
    path = Path(path)
    n_studies = len(draws[0].gamma_tilde_s) if draws else 0
    blocks_per_draw = 2 + n_studies
    with path.open("wb") as fh:
        fh.write(DRAWS_MAGIC)
        fh.write(struct.pack("<I", DRAWS_VERSION))
        fh.write(struct.pack("<Q", len(draws) * blocks_per_draw))
        for d in draws:
            _write_block(fh, d.lambda_tilde)
            for g in d.gamma_tilde_s:
                _write_block(fh, g)
            _write_block(fh, d.sigma_tilde_sq)
    if manifest_path is not None and draws:
        manifest = {
            "magic": DRAWS_MAGIC.decode(),
            "version": DRAWS_VERSION,
            "n_mc": len(draws),
            "p": int(draws[0].lambda_tilde.shape[0]),
            "k0": int(draws[0].lambda_tilde.shape[1]),
            "q_s": [int(g.shape[1]) for g in draws[0].gamma_tilde_s],
            "dtype": "float64",
            "endianness": "little",
            "block_order": ["lambda"]
            + [f"gamma_{s+1}" for s in range(n_studies)]
            + ["sigma_sq"],
            "block_layout": "u8 ndim, ndim x u64 dims, row-major f64 data",
        }
        write_json(manifest_path, manifest, schema="draws_manifest")


def read_draws(path):
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(8)
        if magic != DRAWS_MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        version = struct.unpack("<I", fh.read(4))[0]
        if version != DRAWS_VERSION:
            raise ParseError(f"{path}: unsupported version {version}")
        n_blocks = struct.unpack("<Q", fh.read(8))[0]
        blocks = [_read_block(fh) for _ in range(n_blocks)]
    if not blocks:
        return []
    # per draw: lambda, gamma_1..gamma_S, sigma
    # infer S from the repeating pattern: sigma blocks are 1-d
    per_draw = next(i for i, b in enumerate(blocks) if b.ndim == 1) + 1
    if n_blocks % per_draw:
        raise ParseError(f"{path}: block count {n_blocks} not a multiple of {per_draw}")
    draws = []
    for off in range(0, n_blocks, per_draw):
        chunk = blocks[off : off + per_draw]
        draws.append(
            PosteriorDraw(
                lambda_tilde=chunk[0],
                gamma_tilde_s=tuple(chunk[1:-1]),
                sigma_tilde_sq=chunk[-1],
            )
        )
    return draws


def write_draws_csv(out_dir, draws):
    """One CSV per component per draw (verbose; for small runs)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, d in enumerate(draws, start=1):
        np.savetxt(out_dir / f"draw_{t:05d}_lambda.csv", d.lambda_tilde, delimiter=",")
        for s, g in enumerate(d.gamma_tilde_s, start=1):
            np.savetxt(out_dir / f"draw_{t:05d}_gamma_{s}.csv", g, delimiter=",")
        np.savetxt(out_dir / f"draw_{t:05d}_sigma_sq.csv", d.sigma_tilde_sq, delimiter=",")


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
