"""Dense linear-algebra kernels, reproducible random-number streams and an
order-preserving thread fan-out.

Every SVD (`truncated_svd`), low-rank or full-rank, goes through the top
eigenpairs of its input's short-side Gram matrix; dense LAPACK runs only
when that route declines.  An array request forms that Gram matrix.  A
`ProjectedStack` request (the shared-signal matrix of `spectral`) never
forms it, nor the stack itself: its eigenpairs come from products computed
one study block at a time.

No function mutates its inputs, so every operation is safe to call from
multiple threads.  The public functions are pure with one scoped exception:
inside `_factorization_scope`, which `posterior.run_blast` opens around one
fit's rank selection and factor estimation, `truncated_svd` keeps the Gram
eigenpairs of each input array and serves a later request of no higher rank
on the same array from them.  Nothing is kept outside that scope, and
`parallel_map` runs its tasks in copies of the caller's context, so the
worker threads of a fit share its memo.
"""

import contextlib
import contextvars
import functools
import hashlib
import logging
import weakref
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


# Gram eigenpairs kept for the current fit, by id() of the input array:
# (weakref to the array, top-R eigenvalues, k x R eigenvectors).  None
# outside `_factorization_scope`.
_FIT_EIGENPAIRS = contextvars.ContextVar("fit_eigenpairs", default=None)


@contextlib.contextmanager
def _factorization_scope():
    """Keep each array's Gram eigenpairs until the scope closes, so that a
    later `truncated_svd` request of no higher rank on the same array object
    slices them instead of decomposing again.

    An entry holds a weakref to its array and copies of the top eigenpairs,
    never the array itself.  Arrays must not be mutated inside the scope.
    """
    token = _FIT_EIGENPAIRS.set({})
    try:
        yield
    finally:
        _FIT_EIGENPAIRS.reset(token)


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
    W_s = U_s^T Y_s (q_s x p) and exposes products with the stack (`dot`)
    and with its transpose (`tdot`); `_StackGram` makes its short-side Gram
    matrix from the two.  Every product sums over the studies in their
    order, so its bytes do not depend on the caller's thread count.  The
    blocks must not be mutated while the stack is in use.
    """

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


@dataclass(frozen=True)
class _StackGram:
    """Short-side Gram matrix of a ProjectedStack: its `shape` and `@`."""

    stack: ProjectedStack

    @property
    def shape(self):
        k = min(self.stack.shape)
        return k, k

    def __matmul__(self, x):
        m, n = self.stack.shape
        if m >= n:
            return self.stack.tdot(self.stack.dot(x))
        return self.stack.dot(self.stack.tdot(x))


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

    A block of width l = 2r + 5, started from one fixed random stream (it
    only seeds the iteration), takes one product and QR, and the
    Rayleigh-Ritz pairs of the next product are checked (Halko, Martinsson
    & Tropp, SIAM Rev. 2011).  After that first step, each step applies a
    Chebyshev filter of degree up to `_FILTER_DEGREE` on [0, theta_l] to the
    Ritz block, normalises its columns, and checks the Rayleigh-Ritz pairs
    of one QR of it.  Returns ((w, v), (iters, products)), w nonincreasing,
    once every kept pair meets `_EIG_TOL`.  Returns (None, reason) when a
    full `eigh` is the better choice: "wide_block" when the block would span
    half of g or more, "slow_gap" when the first Ritz ratio
    theta_l / theta_r predicts more than 2k / l plain products (about the
    cost of a full `eigh`) or the iteration reaches that many products,
    "solver" on a LinAlgError or a non-finite value.
    """
    k = g.shape[0]
    width = 2 * r + 5
    if 2 * width >= k:
        return None, "wide_block"
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


def _gram_top(g, r):
    """Top-r eigenpairs of the Gram matrix g, or None, and the route taken."""
    top, detail = _subspace_eigh(g, r)
    if top is not None:
        return top, "subspace iters=%d products=%d" % detail
    try:
        w, v = np.linalg.eigh(g)
        top = w[::-1][:r], v[:, ::-1][:, :r]
    except np.linalg.LinAlgError:
        pass
    return top, f"full reason={detail}"


def _svd_gram(a, r):
    """Top-r SVD via eigendecomposition of the short-side Gram matrix.

    The top r eigenpairs come from `_subspace_eigh`, or from a full `eigh`
    when it declines; inside `_factorization_scope`, a request on an array
    whose eigenpairs are kept to rank r or more slices them instead.
    Returns None when both eigensolvers fail or the smallest requested
    component is below `_GRAM_MIN_RATIO` of the largest, in which case the
    caller falls back to LAPACK.  Logs one `event=gram_eig` line with the
    route taken.
    """
    m, n = a.shape
    transposed = m < n
    b = a.T if transposed else a  # b is tall: rows >= cols
    memo = _FIT_EIGENPAIRS.get()
    kept = memo.get(id(a)) if memo is not None else None
    if kept is not None and kept[0]() is a and r <= kept[1].size:
        top, route = (kept[1][:r], kept[2][:, :r]), "reuse"
    else:
        top, route = _gram_top(b.T @ b, r)
        if top is not None and not _all_finite(*top):
            top = None
        if top is not None and memo is not None:
            # copies, so no k x k eigenvector matrix outlives this request
            memo[id(a)] = (weakref.ref(a), top[0].copy(), top[1].copy())
    if top is not None and top[0][-1] <= _GRAM_MIN_RATIO * top[0][0]:
        top, route = None, "lapack reason=ratio"
    logger.debug("event=gram_eig k=%d r=%d route=%s", b.shape[1], r, route)
    if top is None:
        return None
    w, v = top
    s = np.sqrt(np.maximum(w, 0.0))
    u = (b @ v) / s
    if transposed:
        left, right = v, u
    else:
        left, right = u, v
    return left, s, right


def _svd_stack(stack, r):
    """Top-r SVD of a ProjectedStack from products with its Gram matrix.

    Returns None when `_subspace_eigh` declines or the smallest requested
    component is below `_GRAM_MIN_RATIO` of the largest, in which case the
    caller forms the stack and takes the array route.  Logs one
    `event=gram_eig` line with the route taken.
    """
    m, n = stack.shape
    top, detail = _subspace_eigh(_StackGram(stack), r)
    if top is not None and top[0][-1] <= _GRAM_MIN_RATIO * top[0][0]:
        top, detail = None, "ratio"
    if top is None:
        logger.debug("event=gram_eig k=%d r=%d route=dense reason=%s", min(m, n), r, detail)
        return None
    logger.debug("event=gram_eig k=%d r=%d route=stack iters=%d products=%d",
                 min(m, n), r, *detail)
    w, v = top
    s = np.sqrt(np.maximum(w, 0.0))
    if m >= n:
        return stack.dot(v) / s, s, v
    return v, s, stack.tdot(v) / s


def truncated_svd(a, r) -> SvdFactors:
    """Top-r singular value decomposition with a deterministic sign convention.

    `a` is an array or a `ProjectedStack`.  The reconstruction
    left @ diag(singvals) @ right.T is the best rank-r approximation of `a`
    in Frobenius norm.  Every request takes one route: the top eigenpairs of
    the short-side Gram matrix, so no factor larger than the input is ever
    formed.  An array request forms that Gram matrix; a stack request runs
    the subspace iteration below on products with it, computed one study
    block at a time, and logs `route=stack iters=N products=P`.  When that
    iteration declines (for any reason below, or the `_GRAM_MIN_RATIO`
    guard), it logs `route=dense reason=...`, the stack is formed once, and
    the request goes on as an array request.

    Only the top r eigenpairs are computed, by seeded subspace iteration: a
    first Rayleigh-Ritz step, then Chebyshev-filtered steps on the Ritz
    block until every residual reaches roundoff, so the result never
    depends on the run seed.  When the spectrum has too small a gap after
    rank r for that to be cheaper, when the block would span half of the
    Gram matrix, or when the iteration fails, a full `eigh` of the Gram
    matrix runs instead.  Against dense LAPACK the singular values agree
    within a relative 1e-12 and each factor's column span within a sine of
    the largest principal angle of 1e-10.  Each request logs one
    `event=gram_eig` line at DEBUG with the route taken:
    `route=subspace iters=N products=P`, `route=full reason=...`, or
    `route=lapack reason=ratio`.

    Inside one fit (`_factorization_scope`, opened by `run_blast`), the
    eigenpairs of each input array are kept, and a later request of no
    higher rank on the same array object slices them and logs
    `route=reuse`; its factors meet the same tolerance against dense
    LAPACK.  Outside a fit every request decomposes afresh.

    Dense LAPACK runs only when the Gram route declines: when
    sigma_r^2 / sigma_1^2 is below `_GRAM_MIN_RATIO`, too small for the Gram
    matrix to resolve (`route=lapack reason=ratio`), or when both of its
    eigensolvers fail.  It runs numpy's `gesdd`, and a `gesdd` failure
    (LinAlgError or non-finite kept factors) is retried once with scipy's
    `gesvd`, logged as `event=svd_fallback`.  Raises NumericalError, naming
    the shape and rank, when the retry fails as well.
    """
    stacked = isinstance(a, ProjectedStack)
    if not stacked:
        a = _check_matrix(a)
    m, n = a.shape
    small = min(m, n)
    r = int(r)
    if not 1 <= r <= small:
        raise DimensionError(f"rank r={r} outside [1, {small}] for shape {a.shape}")

    out = _svd_stack(a, r) if stacked else None
    if out is None:
        if stacked:
            a = a.dense()
        out = _svd_gram(a, r)
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
    raised by `fn` reaches the caller unchanged.  Each call sees the
    caller's context variables, so a worker thread shares the caller's
    `_factorization_scope` and returns what a sequential call would.
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


def derive_stream(base_seed, path=()) -> RngStream:
    """Deterministic substream of the root seed for the given label path."""
    if isinstance(path, (str, int, np.integer)):
        path = (path,)
    return RngStream(int(base_seed), tuple(path))
