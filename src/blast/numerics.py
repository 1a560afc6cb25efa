"""Dense linear-algebra kernels, reproducible random-number streams and an
order-preserving thread fan-out.

Every SVD (`truncated_svd`), low-rank or full-rank, goes through the top
eigenpairs of its input's short-side Gram matrix; dense LAPACK runs only
when that route declines.  Those eigenpairs come from seeded subspace
iteration on r + 3 columns, or from LAPACK's `dsyevr` for the top r alone,
bound through ctypes in the library numpy links (numpy's full `eigh` on
builds without it).  Each kind of request is an operator with the same
three members: `_top(r)` gives those eigenpairs (or None), the route taken
and the eigenvalue that the `_GRAM_MIN_RATIO` guard compares against;
`_factors(e, s)` gives the factors from them; and `declined` names the
route logged when the guard declines.  `truncated_svd` applies the guard,
logs and finishes every request in one place.  A `StudyGram` (one study
matrix, or an array request's) forms the Gram matrix and keeps it and the
top eigenpairs, so a later request of no higher rank slices the
eigenpairs.  Two operators are never formed unless their route declines.  A
`ProjectedStack` (the shared-signal matrix of `spectral`) takes products
with its Gram matrix, each reading every study once, in cache-sized row
blocks.  A `ProjectedStudy` (one study with the shared directions projected
out) downdates the Gram matrix that its study's `StudyGram` keeps.

No public function mutates its array inputs (the full route overwrites
only a Gram matrix formed for it), and nothing is kept between requests
except on a `StudyGram`.  So every operation on arrays is safe to call from
multiple threads.  `parallel_map` runs its tasks in copies of the caller's
context, so a worker thread sees the caller's context variables, numpy's
`errstate` among them.
"""

import contextvars
import ctypes
import functools
import hashlib
import logging
import threading
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

# Highest degree of the Chebyshev filter applied after the first Ritz step.
_FILTER_DEGREE = 4

# Bytes of one row block of a study in a fused stack Gram product: small
# enough that the block is still in cache when it is read the second time.
_BLOCK_BYTES = 512 * 1024
_MIN_BLOCK_ROWS = 32

# LAPACKE's code for column-major storage.
_COL_MAJOR = 102


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


class ProjectedStack:
    """The row stack of the blocks Y_s - U_s (U_s^T Y_s), never formed.

    Each U_s (n_s x q_s, q_s may be 0) has orthonormal columns.  Keeps
    W_s = U_s^T Y_s (q_s x p) and exposes products with the stack (`dot`),
    with its transpose (`tdot`) and with its p x p Gram matrix
    (`gram_dot`); `_StackGram` makes its short-side Gram matrix from them.
    Every product sums over the studies in their order, so its bytes do not
    depend on the caller's thread count.  The blocks must not be mutated
    while the stack is in use.
    """

    declined = "dense"

    def __init__(self, blocks, bases):
        self.blocks = tuple(blocks)
        self.bases = tuple(bases)
        self.coefs = tuple(u.T @ y for u, y in zip(self.bases, self.blocks))
        self.offsets = np.cumsum((0,) + tuple(y.shape[0] for y in self.blocks))
        self.shape = (int(self.offsets[-1]), self.blocks[0].shape[1])

    def _parts(self):
        return zip(self.offsets[:-1], self.offsets[1:], self.blocks, self.bases, self.coefs)

    def dot(self, x):
        """stack @ x, for x with p rows."""
        out = np.empty((self.shape[0], x.shape[1]))
        for lo, hi, y, u, w in self._parts():
            np.matmul(y, x, out=out[lo:hi])
            if u.shape[1]:
                out[lo:hi] -= u @ (w @ x)
        return out

    def tdot(self, z):
        """stack.T @ z, for z with n rows."""
        out = np.zeros((self.shape[1], z.shape[1]))
        for lo, hi, y, u, w in self._parts():
            part = y.T @ z[lo:hi]
            if u.shape[1]:
                part -= w.T @ (u.T @ z[lo:hi])
            out += part
        return out

    def gram_dot(self, x):
        """stack.T @ (stack @ x), for x with p rows, reading each study once.

        Each block is (I - U_s U_s^T) Y_s, so its Gram matrix is
        Y_s^T Y_s - W_s^T W_s.  Y_s^T (Y_s x) is summed over row blocks of
        about `_BLOCK_BYTES`, each read twice while it is in cache.  Studies
        and blocks go in a fixed order.
        """
        p, width = self.shape[1], x.shape[1]
        rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * p))
        out, part = np.zeros((p, width)), np.empty((p, width))
        for y, w in zip(self.blocks, self.coefs):
            for lo in range(0, y.shape[0], rows):
                block = y[lo:lo + rows]
                out += np.matmul(block.T, block @ x, out=part)
            if w.shape[0]:
                out -= np.matmul(w.T, w @ x, out=part)
        return out

    def col_sq(self):
        """Column sums of squares, sum_s colsq(Y_s) - colsq(W_s)."""
        out = np.zeros(self.shape[1])
        for y, w in zip(self.blocks, self.coefs):
            out += np.einsum("ij,ij->j", y, y) - np.einsum("ij,ij->j", w, w)
        return out

    def dense(self):
        """The stack as one n x p array, filled block by block in place."""
        out = np.empty(self.shape)
        for lo, hi, y, u, w in self._parts():
            if u.shape[1]:
                np.subtract(y, u @ w, out=out[lo:hi])
            else:
                out[lo:hi] = y
        return out

    def _top(self, r):
        """Top-r eigenpairs of the short-side Gram matrix by `_subspace_eigh`
        on products with it (`_StackGram`); the stack is never formed."""
        top, detail = _subspace_eigh(_StackGram(self), r)
        if top is None:
            return None, f"dense reason={detail}", None
        return top, "stack iters=%d products=%d" % detail, top[0][0]

    def _factors(self, e, s):
        if self.shape[0] >= self.shape[1]:
            return self.dot(e) / s, s, e
        return e, s, self.tdot(e) / s


@dataclass(frozen=True)
class _StackGram:
    """Short-side Gram matrix of a ProjectedStack: its `shape` and `@`, one
    `gram_dot` when the stack has at least as many rows as columns."""

    stack: ProjectedStack

    @property
    def shape(self):
        k = min(self.stack.shape)
        return k, k

    def __matmul__(self, x):
        m, n = self.stack.shape
        if m >= n:
            return self.stack.gram_dot(x)
        return self.stack.dot(self.stack.tdot(x))


class StudyGram:
    """One study matrix Y and what `truncated_svd` requests on it formed:
    the top R eigenpairs of its short-side Gram matrix (k x R
    eigenvectors, never a view into a k x k matrix), and that matrix's
    lower triangle packed by `_pack_lower` (half its size, so that the
    kept matrices of earlier studies add less to the peak of a later
    study's decomposition), packed before the full route may overwrite the
    matrix.  A `ProjectedStudy` request downdates the packed matrix,
    releasing both.  Requests skip the finiteness scan: Y is a finite 2-D
    array, as a `MultiStudyDataset` checks its studies to be.  Y must not
    be mutated.  An array request is served by a transient `StudyGram`.
    """

    declined = "lapack"

    def __init__(self, y):
        self.y = y
        self.shape = y.shape
        self.eigenpairs = None   # (top-R eigenvalues, k x R eigenvectors)
        self.packed_gram = None  # lower triangle of the k x k Gram matrix

    def dense(self):
        return self.y

    def _tall(self):
        """Y, or Y^T when Y has fewer rows than columns."""
        return self.y.T if self.shape[0] < self.shape[1] else self.y

    def _top(self, r):
        """The kept eigenpairs sliced when they reach rank r (`route=reuse`),
        else the top-r eigenpairs of the Gram matrix formed here, which the
        study then keeps with that matrix."""
        kept = self.eigenpairs
        if kept is not None and r <= kept[0].size:
            top, route = (kept[0][:r], kept[1][:, :r]), "reuse"
        else:
            b = self._tall()
            g = b.T @ b
            packed = _pack_lower(g)  # before the full route overwrites g
            top, route = _gram_top(g, r)
            if top is not None:
                self.eigenpairs, self.packed_gram = top, packed
        return top, route, None if top is None else top[0][0]

    def _factors(self, e, s):
        u = (self._tall() @ e) / s
        return (e, s, u) if self.shape[0] < self.shape[1] else (u, s, e)


def _as_study(y, name):
    """y if it is a `StudyGram`, else one over y checked by `_check_matrix`."""
    return y if isinstance(y, StudyGram) else StudyGram(_check_matrix(y, name))


class ProjectedStudy:
    """One study with shared directions projected out, Y P with
    P = I - V V^T, never formed unless its SVD declines the downdate route
    (`dense` forms it).

    `study` is a `StudyGram`, whose kept Gram matrix the SVD downdates, or
    an array Y.  V (p x k) has orthonormal columns.  Neither array may be
    mutated while the operator is in use.
    """

    declined = "formed"

    def __init__(self, study, v):
        self.source = study if isinstance(study, StudyGram) else StudyGram(study)
        self.y, self.v, self.shape = self.source.y, v, self.source.shape

    def dense(self):
        return self.y - (self.y @ self.v) @ self.v.T

    def _top(self, r):
        """Top-r eigenpairs of the Gram matrix of Y P, downdated in place from
        the one the `StudyGram` keeps, and lambda_1 of the kept matrix.

        With B = Y V, the kept matrix becomes G - B B^T when it is G = Y Y^T
        (Y has fewer rows than columns), and P G P when it is G = Y^T Y.
        The `StudyGram` releases its Gram matrix and eigenpairs, since the
        downdate is their last use.  Cancellation in the downdate costs about
        eps * lambda_1(G), which is why the ratio guard compares against
        lambda_1(G).  Declines (`route=formed`) when no Gram matrix of Y is
        kept or both eigensolvers fail.
        """
        source, v = self.source, self.v
        packed, kept = source.packed_gram, source.eigenpairs
        source.packed_gram = source.eigenpairs = None
        if packed is None:
            return None, "formed reason=no_gram", None
        m, n = self.shape
        g = _unpack_lower(packed, min(m, n))
        b = self.b = self.y @ v  # B = Y V, which `_factors` reads as well
        if m < n:
            g -= b @ b.T
        else:
            gv = g @ v
            # P G P = G - h - h^T, with h = (G V - V (V^T G V) / 2) V^T
            h = (gv - v @ ((v.T @ gv) / 2.0)) @ v.T
            g -= h
            g -= h.T
        top, route = _gram_top(g, r)
        if top is None:
            return None, "formed reason=solver", None
        return top, "downdate " + route, kept[0][0]

    def _factors(self, e, s):
        y, v, b = self.y, self.v, self.b
        if self.shape[0] < self.shape[1]:  # e holds the left singular vectors
            return e, s, (y.T @ e - v @ (b.T @ e)) / s
        return (y @ e - b @ (v.T @ e)) / s, s, e


def _pack_lower(g):
    """The lower triangle of the square matrix g, row by row."""
    return g[np.tri(g.shape[0], dtype=bool)]


def _unpack_lower(packed, k):
    """The k x k symmetric matrix whose lower triangle `_pack_lower` packed."""
    lower = np.tri(k, dtype=bool)
    g = np.empty((k, k))
    g[lower] = packed
    g.T[lower] = packed
    return g


def _check_matrix(a, name="a"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{name} contains non-finite entries")
    return a


def _apply_sign_convention(left, right):
    # Largest-|entry| of each right column made positive; first index wins ties.
    peaks = right[np.argmax(np.abs(right), axis=0), np.arange(right.shape[1])]
    flips = np.where(peaks < 0, -1.0, 1.0)
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


def _chebyshev_filter(g, x, gx, upper, degree):
    """T_degree(2 g / upper - 1) applied to the columns of x, given gx = g @ x;
    g is used only through products `g @ x`.

    The Chebyshev polynomial stays within [-1, 1] on the eigenvalues in
    [0, upper] and grows fastest outside it, so the components above `upper`
    gain on the rest by far more than `degree` plain products would give
    them (Zhou, Saad, Tiago & Chelikowsky, J. Comput. Phys. 2006).  Costs
    degree - 1 products with g.
    """
    half = upper / 2.0
    prev, cur = x, (gx - half * x) / half
    for _ in range(degree - 1):
        prev, cur = cur, 2.0 * (g @ cur - half * cur) / half - prev
    return cur


def _subspace_eigh(g, r):
    """Top-r eigenpairs of the symmetric PSD matrix g by filtered subspace
    iteration.  g is an array or an operator such as `_StackGram`: only its
    `shape` and products `g @ x` are used.

    A block of width l = r + 3, started from one fixed random stream (it
    only seeds the iteration), takes one product and QR, and the
    Rayleigh-Ritz pairs of the next product are checked (Halko, Martinsson
    & Tropp, SIAM Rev. 2011).  After that first step, each step applies a
    Chebyshev filter of degree up to `_FILTER_DEGREE` on [0, theta_l] to the
    Ritz block, normalises its columns, and checks the Rayleigh-Ritz pairs
    of one QR of it.  A product costs in proportion to l, and the filter
    converges in as many products at l = r + 3 as at 2r + 5.  Returns
    ((w, v), (iters, products)), w nonincreasing, once every kept pair
    meets `_EIG_TOL`.  Returns (None, reason) when the full route
    (`_full_eigh`) is the better choice: "wide_block" when 8 (2r + 5) >= k
    (a rank that wide against g, like rank selection's k_max, mostly ends
    inside the noise bulk, where the first Ritz step only declines),
    "slow_gap" when the first Ritz ratio theta_l / theta_r predicts more
    than 2k / l plain products (about the cost of the full route) or the
    iteration reaches that many products, "solver" on a LinAlgError or a
    non-finite value.
    """
    k = g.shape[0]
    if 8 * (2 * r + 5) >= k:
        return None, "wide_block"
    width = r + 3
    cap = 2 * k // width
    omega = RngStream(0, ("gram_eig",)).generator().standard_normal((k, width))
    try:
        q = np.linalg.qr(g @ omega)[0]
        z = g @ q
        products, iters = 2, 1
        while True:
            theta, w = np.linalg.eigh(q.T @ z)
            theta, w = theta[::-1], w[:, ::-1]
            if not _all_finite(theta, w):
                return None, "solver"
            x = q @ w[:, :r]
            # relative to theta_1 before squaring, so large data cannot overflow
            scale = max(theta[0], np.finfo(np.float64).tiny)
            resid = np.linalg.norm((z @ w[:, :r] - x * theta[:r]) / scale, axis=0)
            if np.all(resid <= _EIG_TOL):
                return (theta[:r], x), (iters, products)
            # plain products shrink errors like (theta_l / theta_r)^it
            if iters == 1 and theta[-1] >= theta[r - 1] * _EIG_TOL ** (1.0 / cap):
                return None, "slow_gap"
            degree = min(_FILTER_DEGREE, cap + 1 - products)
            if degree < 1:
                return None, "slow_gap"
            # theta_l sits at roundoff, or below zero, when g has rank < l
            upper = max(theta[-1], theta[0] * np.finfo(np.float64).eps)
            y = _chebyshev_filter(g, q @ w, z @ w, upper, degree)
            q = np.linalg.qr(y / np.linalg.norm(y, axis=0))[0]
            z = g @ q
            products += degree
            iters += 1
    except np.linalg.LinAlgError:
        return None, "solver"


@functools.cache
def _load_syevr():
    """LAPACKE's `dsyevr` from the LAPACK that numpy links, or None.

    Bound, once, only when numpy reports scipy-openblas built with 64-bit
    integers (`USE64BITINT`) and `scipy_LAPACKE_dsyevr64_` resolves through
    numpy's own linalg extension.  The call then runs in numpy's library
    and BLAS thread pool; no second BLAS is loaded (scipy's would bring its
    own thread pool).  Other numpy builds get None, and `_full_eigh` runs
    numpy's full `eigh`.
    """
    lapack = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("lapack", {})
    if (lapack.get("name") != "scipy-openblas"
            or "USE64BITINT" not in str(lapack.get("openblas configuration", ""))):
        return None
    try:
        syevr = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_LAPACKE_dsyevr64_
    except (AttributeError, OSError):
        return None
    i64, real = ctypes.c_int64, ctypes.c_double
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    # (layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz)
    syevr.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, i64, doubles,
                      i64, real, real, i64, i64, real, ints, doubles, doubles, i64, ints]
    syevr.restype = i64
    return syevr


def _full_eigh(g, r):
    """Top-r eigenpairs (w nonincreasing) of the symmetric k x k matrix g,
    or None when the driver fails or gives a non-finite value, and the
    driver's name.

    "syevr": LAPACK's `dsyevr` for eigenvalues k - r + 1 .. k only, so just
    k x r eigenvectors are formed; it overwrites g.  "syevd": numpy's full
    `eigh`, sliced and copied, when `_load_syevr` finds no driver.
    """
    syevr, k = _load_syevr(), g.shape[0]
    if syevr is None:
        try:
            w, v = np.linalg.eigh(g)
        except np.linalg.LinAlgError:
            return None, "syevd"
        top, driver = (w[:-r - 1:-1].copy(), v[:, :-r - 1:-1].copy()), "syevd"
    else:
        w, z = np.empty(k), np.empty((r, k))
        found, support = np.zeros(1, np.int64), np.empty(2 * r, np.int64)
        # column-major, which a symmetric C-order g already is: no transposed
        # copies; z then holds one eigenvector per row, ascending
        info = syevr(_COL_MAJOR, b"V", b"I", b"L", k, g, k, 0.0, 0.0, k - r + 1, k, 0.0,
                     found, w, z, k, support)
        if info != 0 or found[0] != r:
            return None, "syevr"
        top, driver = (w[r - 1::-1], z[::-1].T), "syevr"
    return (top if _all_finite(*top) else None), driver


def _gram_top(g, r):
    """Top-r eigenpairs of the Gram matrix g, or None when both eigensolvers
    fail or give a non-finite value, and the route taken.  The full route
    may overwrite g."""
    top, detail = _subspace_eigh(g, r)
    if top is not None:
        return top, "subspace iters=%d products=%d" % detail
    top, driver = _full_eigh(g, r)
    return top, f"full reason={detail} driver={driver}"


def _operator_svd(op, r):
    """Top-r (left, s, right) of the request `op` from the top eigenpairs of
    its short-side Gram matrix, or None when `op._top` finds none or their
    smallest is at most `_GRAM_MIN_RATIO` of the eigenvalue it names
    (`route=<op.declined> reason=ratio`).  Logs one `event=gram_eig` line."""
    top, route, ref = op._top(r)
    if top is not None and top[0][-1] <= _GRAM_MIN_RATIO * ref:
        top, route = None, op.declined + " reason=ratio"
    logger.debug("event=gram_eig k=%d r=%d route=%s", min(op.shape), r, route)
    if top is None:
        return None
    w, e = top
    return op._factors(e, np.sqrt(np.maximum(w, 0.0)))


def truncated_svd(a, r) -> SvdFactors:
    """Top-r singular value decomposition with a deterministic sign convention.

    `a` is an array, a `StudyGram`, a `ProjectedStack` or a
    `ProjectedStudy`.  The reconstruction left @ diag(singvals) @ right.T
    is the best rank-r approximation of `a` in Frobenius norm.  Every
    request takes one route: the top eigenpairs of the short-side Gram
    matrix, so no factor larger than the input is ever formed.  Each kind
    of request gives those eigenpairs (`_top`) and the other factor from
    them (`_factors`), and an array request is served by a transient
    `StudyGram`.  Each request logs one `event=gram_eig` line at DEBUG with
    the route taken:

    - an array request forms that Gram matrix: `route=subspace iters=N
      products=P`, `route=full reason=... driver=syevr|syevd`, or
      `route=lapack reason=ratio`;
    - a `StudyGram` request takes the array route and keeps what it formed,
      or slices the kept eigenpairs, `route=reuse` (below);
    - a stack request runs the subspace iteration below on products with
      the Gram matrix, `route=stack iters=N products=P`.  When the stack has
      at least as many rows as columns, a product reads each study once, in
      row blocks of about 512 KiB (`ProjectedStack.gram_dot`); otherwise it
      is `dot` after `tdot`;
    - a `ProjectedStudy` request downdates the Gram matrix that an earlier
      request on its `StudyGram` formed, `route=downdate subspace ...` or
      `route=downdate full ...` (see `ProjectedStudy._top`).

    A request declines when its eigenpairs cannot be found, or when the
    smallest is at most `_GRAM_MIN_RATIO` of the largest (for a
    `ProjectedStudy`, of the largest of the Gram matrix it downdates).  An
    operator that declines (for any reason below, that guard, or no kept
    Gram matrix) logs `route=dense reason=...` (stack) or
    `route=formed reason=...` (study), is formed once, and the request goes
    on as an array request.

    Only the top r eigenpairs are computed, by seeded subspace iteration: a
    first Rayleigh-Ritz step, then Chebyshev-filtered steps on the Ritz
    block until every residual reaches roundoff, so the result never
    depends on the run seed; its block has r + 3 columns.  When the
    spectrum has too small a gap after rank r for that to be cheaper, when
    8 (2r + 5) reaches the Gram matrix's order k (rank selection's
    k_max = 30 at k = 200 or 500), or when the iteration fails, the full
    route runs instead: LAPACK's `dsyevr` for the top r eigenpairs alone,
    called in the library numpy links (`driver=syevr`), or numpy's full
    `eigh` on numpy builds where that symbol is not found (`driver=syevd`).
    The two drivers differ at roundoff, so draw bytes depend on the driver.
    Against dense LAPACK the singular values agree within a relative 1e-12
    and each factor's column span within a sine of the largest principal
    angle of 1e-10.

    A `StudyGram` keeps the Gram matrix and eigenpairs that a request on it
    formed.  A later request of no higher rank slices the eigenpairs and
    logs `route=reuse`; its factors meet the same tolerance against dense
    LAPACK.  An array request keeps nothing and is checked to be 2-D and
    finite, so every array request decomposes afresh.

    Dense LAPACK runs only when the Gram route declines: when
    sigma_r^2 / sigma_1^2 is below `_GRAM_MIN_RATIO`, too small for the Gram
    matrix to resolve (`route=lapack reason=ratio`), or when both of its
    eigensolvers fail.  It runs numpy's `gesdd`, and a `gesdd` failure
    (LinAlgError or non-finite kept factors) is retried once with scipy's
    `gesvd`, logged as `event=svd_fallback`.  Raises NumericalError, naming
    the shape and rank, when the retry fails as well.
    """
    if not hasattr(a, "_top"):
        a = StudyGram(_check_matrix(a))  # dies with this request
    small = min(a.shape)
    r = int(r)
    if not 1 <= r <= small:
        raise DimensionError(f"rank r={r} outside [1, {small}] for shape {a.shape}")

    out = _operator_svd(a, r)
    if out is None and a.declined != "lapack":
        a = StudyGram(a.dense())  # formed once; dies with this request
        out = _operator_svd(a, r)
    if out is None:
        out = _svd_lapack(a.y, r)
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
    raised by `fn` reaches the caller unchanged.  Each call runs in a copy
    of the caller's context, so a worker thread sees the caller's context
    variables, numpy's `errstate` among them (a context variable since numpy
    2), and behaves as a call at `threads` 1 would.
    """
    if threads <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # one copy per task: a context cannot be entered by two threads at once
        futures = [pool.submit(contextvars.copy_context().run, fn, i) for i in range(n)]
        return [f.result() for f in futures]


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

    def thread_generator(self) -> np.random.Generator:
        """The calling thread's one Philox generator, re-keyed to this stream.

        Its variates equal those of `generator()`, but no bit generator is
        built (which takes most of the cost of a short stream).  It is valid
        until the thread's next call, so a caller must not hold two.
        """
        try:
            rng, state = _THREAD_RNG.rng, _THREAD_RNG.state
        except AttributeError:
            rng = _THREAD_RNG.rng = np.random.Generator(np.random.Philox(key=0))
            state = _THREAD_RNG.state = rng.bit_generator.state  # counter 0, no buffer
        key = _hash_key128(self.base_seed, self.path)
        state["state"]["key"][:] = key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64
        rng.bit_generator.state = state
        return rng


_THREAD_RNG = threading.local()


def derive_stream(base_seed, path=()) -> RngStream:
    """Deterministic substream of the root seed for the given label path."""
    if isinstance(path, (str, int, np.integer)):
        path = (path,)
    return RngStream(int(base_seed), tuple(path))
