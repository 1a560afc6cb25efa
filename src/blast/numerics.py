"""Dense linear-algebra kernels, reproducible random-number streams and an
order-preserving thread fan-out.

All functions are pure; nothing here mutates its inputs, so every operation
is safe to call from multiple threads.
"""

import functools
import hashlib
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, NumericalError

logger = logging.getLogger(__name__)

# Smallest sigma_r^2 / sigma_1^2 the Gram route accepts.  Its factors lose
# orthonormality like ~1e-2 * eps / ratio (measured on rank-2 inputs from
# 500 x 2000 to 2500 x 2000): below 1e-13 at this floor, ~1e-6 at 1e-12.
_GRAM_MIN_RATIO = 1e-4

# Subspace iteration on the Gram matrix stops once every kept Ritz pair has
# ||g x - theta x|| <= _EIG_TOL * theta_1, which is roundoff level for the
# Gram matrices the pipeline forms (short side up to a few thousand).
_EIG_TOL = 1e-13


@dataclass(frozen=True)
class SvdFactors:
    """Top-r factors of a singular value decomposition.

    `left` is m x r and `right` is n x r, both with orthonormal columns;
    `singvals` is nonincreasing and nonnegative.  Signs follow a fixed
    convention: in each column of `right` the entry of largest magnitude is
    positive (ties broken by lowest index), and `left` flips accordingly.
    """

    left: np.ndarray
    singvals: np.ndarray
    right: np.ndarray

    def reconstruct(self):
        return (self.left * self.singvals) @ self.right.T


def _check_matrix(a, name="a"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{name} contains non-finite entries")
    return a


def _apply_sign_convention(left, right):
    # Largest-|entry| of each right column made positive; first index wins ties.
    flips = np.ones(right.shape[1])
    for c in range(right.shape[1]):
        col = right[:, c]
        if col[np.argmax(np.abs(col))] < 0:
            flips[c] = -1.0
    return left * flips, right * flips


def _all_finite(*arrays):
    return all(np.isfinite(x).all() for x in arrays)


def _kept_factors(svd, a, r):
    """Top-r (u, s, v) from a dense `svd` call, or None and why it failed."""
    try:
        u, s, vt = svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        return None, repr(str(exc))
    u, s, vt = u[:, :r], s[:r], vt[:r]
    if not _all_finite(u, s, vt):
        return None, "nonfinite"
    return (u, s, vt.T), None


def _svd_lapack(a, r):
    """Top-r SVD by dense LAPACK, retried once with a second driver.

    numpy's `gesdd` can fail on finite, rank-deficient input with some BLAS
    kernels: it raises LinAlgError or returns non-finite factors.  Such a
    failure is retried with scipy's `gesvd` driver, a different algorithm;
    if that fails too, NumericalError is raised.  Inputs on which `gesdd`
    succeeds never reach the retry, so their output does not change.
    """
    out, reason = _kept_factors(np.linalg.svd, a, r)
    if out is not None:
        return out
    m, n = a.shape
    logger.warning("event=svd_fallback shape=%dx%d r=%d reason=%s", m, n, r, reason)
    import scipy.linalg

    gesvd = functools.partial(scipy.linalg.svd, lapack_driver="gesvd")
    out, retry = _kept_factors(gesvd, a, r)
    if out is None:
        raise NumericalError(
            f"SVD failed for shape {m}x{n} at rank r={r}: gesdd {reason}, gesvd {retry}"
        )
    return out


def _subspace_eigh(g, r):
    """Top-r eigenpairs of the symmetric PSD matrix g by subspace iteration.

    A block of width l = 2r + 5, started from one fixed random stream (it
    only seeds the iteration), alternates z = g @ q with QR; after each
    product the Rayleigh-Ritz pairs of q.T @ z are checked (Halko, Martinsson
    & Tropp, SIAM Rev. 2011).  Returns ((w, v), iters), w nonincreasing, once
    every kept pair meets `_EIG_TOL`.  Returns (None, reason) when a full
    `eigh` is the better choice: "wide_block" when the block would span half
    of g or more, "slow_gap" when the first Ritz ratio theta_l / theta_r
    predicts more than 2k / l iterations (about the cost of a full `eigh`)
    or the iteration reaches that cap, "solver" on a LinAlgError or a
    non-finite value.
    """
    k = g.shape[0]
    width = 2 * r + 5
    if 2 * width >= k:
        return None, "wide_block"
    cap = 2 * k // width
    omega = RngStream(0, ("gram_eig",)).generator().standard_normal((k, width))
    try:
        q = np.linalg.qr(g @ omega)[0]
        for it in range(1, cap + 1):
            z = g @ q
            theta, w = np.linalg.eigh(q.T @ z)
            theta, w = theta[::-1], w[:, ::-1]
            if not _all_finite(theta, w):
                return None, "solver"
            x = q @ w[:, :r]
            # relative to theta_1 before squaring, so large data cannot overflow
            scale = max(theta[0], np.finfo(np.float64).tiny)
            resid = np.linalg.norm((z @ w[:, :r] - x * theta[:r]) / scale, axis=0)
            if np.all(resid <= _EIG_TOL):
                return (theta[:r], x), it
            # errors shrink like (theta_l / theta_r)^it
            if it == 1 and theta[-1] >= theta[r - 1] * _EIG_TOL ** (1.0 / cap):
                return None, "slow_gap"
            q = np.linalg.qr(z)[0]
    except np.linalg.LinAlgError:
        return None, "solver"
    return None, "slow_gap"


def _svd_gram(a, r):
    """Top-r SVD via eigendecomposition of the short-side Gram matrix.

    The top r eigenpairs come from `_subspace_eigh`, or from a full `eigh`
    when it declines.  Returns None when the eigensolver fails or the
    smallest requested component is below `_GRAM_MIN_RATIO` of the largest,
    in which case the caller falls back to LAPACK.
    """
    m, n = a.shape
    transposed = m < n
    b = a.T if transposed else a  # b is tall: rows >= cols
    g = b.T @ b
    top, detail = _subspace_eigh(g, r)
    if top is not None:
        logger.debug("event=gram_eig k=%d r=%d route=subspace iters=%d", g.shape[0], r, detail)
        w, v = top
    else:
        logger.debug("event=gram_eig k=%d r=%d route=full reason=%s", g.shape[0], r, detail)
        try:
            w, v = np.linalg.eigh(g)
        except np.linalg.LinAlgError:
            return None
        w = w[::-1][:r]
        v = v[:, ::-1][:, :r]
    if not _all_finite(w, v):
        return None
    if w[-1] <= _GRAM_MIN_RATIO * w[0]:
        return None
    s = np.sqrt(np.maximum(w, 0.0))
    u = (b @ v) / s
    if transposed:
        left, right = v, u
    else:
        left, right = u, v
    return left, s, right


def truncated_svd(a, r) -> SvdFactors:
    """Top-r singular value decomposition with a deterministic sign convention.

    The reconstruction left @ diag(singvals) @ right.T is the best rank-r
    approximation of `a` in Frobenius norm.  One policy picks the route from
    the request: a low-rank request, r <= min(m, n) // 8, goes through the
    eigendecomposition of the short-side Gram matrix, so no factor larger
    than the input is ever formed; any other request goes to dense LAPACK.

    On the Gram route only the top r eigenpairs are computed, by seeded
    subspace iteration run until every residual reaches roundoff, so the
    result matches a full `eigh` to roundoff and never depends on the run
    seed.  When the spectrum has too small a gap after rank r for that to be
    cheaper, or the iteration fails, a full `eigh` of the Gram matrix runs
    instead.  Each request logs `event=gram_eig` at DEBUG with the route
    taken: `route=subspace iters=N` or `route=full reason=...`.

    Every route ends in dense LAPACK when it fails.  The Gram route falls
    back to numpy's `gesdd` when its eigensolver fails or when
    sigma_r^2 / sigma_1^2 is too small for the Gram matrix to resolve, and a
    `gesdd` failure (LinAlgError or non-finite kept factors) is retried once
    with scipy's `gesvd`, logged as `event=svd_fallback`.  Raises
    NumericalError, naming the shape and rank, when the retry fails as well.
    """
    a = _check_matrix(a)
    m, n = a.shape
    small = min(m, n)
    r = int(r)
    if not 1 <= r <= small:
        raise DimensionError(f"rank r={r} outside [1, {small}] for shape {a.shape}")

    out = _svd_gram(a, r) if r <= small // 8 else None
    if out is None:
        out = _svd_lapack(a, r)
    left, s, right = out
    left, right = _apply_sign_convention(left, right)
    return SvdFactors(left=left, singvals=s, right=right)


def procrustes_rotation(a, b) -> np.ndarray:
    """Orthogonal r x r matrix R minimizing ||a R - b||_F.

    The SVD goes through the same guarded dense call as `truncated_svd`, so
    a LAPACK failure surfaces as NumericalError.
    """
    a = _check_matrix(a, "a")
    b = _check_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    u, _, v = _svd_lapack(a.T @ b, a.shape[1])
    return u @ v.T


def parallel_map(fn, n, threads):
    """[fn(0), ..., fn(n - 1)], on up to `threads` worker threads.

    Results come back in index order whatever the schedule, and an exception
    raised by `fn` reaches the caller unchanged.
    """
    if threads <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


def _hash_key128(base_seed, path):
    h = hashlib.blake2b(digest_size=16)
    h.update(int(base_seed).to_bytes(8, "little", signed=True))
    for label in path:
        if isinstance(label, str):
            raw = label.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
        elif isinstance(label, (int, np.integer)):
            h.update(b"i" + int(label).to_bytes(8, "little", signed=True))
        else:
            raise DataError(f"stream path labels must be str or int, got {type(label)!r}")
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (base_seed, path).

    Two streams with equal (base_seed, path) yield byte-identical sequences;
    distinct paths give statistically independent streams.  Instances are
    immutable values, so the parallel schedule can never affect output.
    """

    base_seed: int
    path: tuple = field(default_factory=tuple)

    def child(self, *labels) -> "RngStream":
        return RngStream(self.base_seed, self.path + tuple(labels))

    def generator(self) -> np.random.Generator:
        key = _hash_key128(self.base_seed, self.path)
        return np.random.Generator(np.random.Philox(key=key))


def derive_stream(base_seed, path=()) -> RngStream:
    """Deterministic substream of the root seed for the given label path."""
    if isinstance(path, (str, int, np.integer)):
        path = (path,)
    return RngStream(int(base_seed), tuple(path))
