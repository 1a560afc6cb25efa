"""Synthetic-data generation, evaluation metrics, and prediction tooling.

The generator draws sparse Gaussian loadings, uniform idiosyncratic
variances, and standard-normal factors; an optional confounder makes the
shared and some specific loadings partially collinear.  Metrics cover
relative Frobenius error on covariance components, rotation-aligned factor
error, and frequentist coverage of equal-tail credible intervals.  The
prediction utilities work through the low-rank-plus-diagonal structure and
never invert a dense p x p matrix.
"""

import logging
import time
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    DataError,
    DimensionError,
    GenerationError,
    InvalidCovarianceError,
    ParameterError,
    UndefinedMetricError,
)
from .numerics import _BLOCK_BYTES, RngStream, derive_stream, parallel_map, procrustes_rotation
from .posterior import CovarianceModel, DrawSet
from .spectral import MultiStudyDataset

logger = logging.getLogger(__name__)

_RANK_REGEN_ATTEMPTS = 10


@dataclass(frozen=True)
class SimScenario:
    """Design of one synthetic experiment."""

    n_studies: int = 3
    n_per_study: int | tuple = 300
    p: int = 200
    k0: int = 5
    q_s: int | tuple = 4
    loading_sparsity: float = 0.5
    loading_sd: float = 1.0
    noise_var_range: tuple = (0.5, 5.0)
    heteroscedastic: bool = False
    collinear: bool = False
    confounder_sd: float = 0.3
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.noise_var_range
        if not (0.0 < lo <= hi):
            raise ParameterError(f"noise_var_range must be positive with low <= high, got {self.noise_var_range}")
        if not 0.0 <= self.loading_sparsity <= 1.0:
            raise ParameterError(f"loading_sparsity must lie in [0, 1], got {self.loading_sparsity}")

    @property
    def n_s(self):
        if np.isscalar(self.n_per_study):
            return tuple([int(self.n_per_study)] * self.n_studies)
        return tuple(int(n) for n in self.n_per_study)

    @property
    def q_list(self):
        if np.isscalar(self.q_s):
            return tuple([int(self.q_s)] * self.n_studies)
        return tuple(int(q) for q in self.q_s)


@dataclass(frozen=True)
class SimTruth:
    """Ground-truth parameters behind one generated dataset."""

    lambda0: np.ndarray
    gamma0_s: tuple
    sigma0_sq: np.ndarray      # (p,) or (S, p) when heteroscedastic
    m0_s: tuple
    f0_s: tuple


def _sparse_normal(rng, shape, sparsity, sd):
    vals = rng.normal(0.0, sd, size=shape)
    mask = rng.random(size=shape) < sparsity
    vals[mask] = 0.0
    return vals


def generate(scenario: SimScenario):
    """Draw one dataset and its truth; same seed gives identical bytes.

    Loadings are regenerated (up to 10 times) until the stacked matrix
    [lambda0 gamma0_1 ... gamma0_S] has full column rank.
    """
    stream = derive_stream(scenario.seed, ("generate",))
    p, k0 = scenario.p, scenario.k0
    q_list = scenario.q_list
    total_cols = k0 + sum(q_list)
    if p < total_cols:
        raise ParameterError(
            f"p={p} too small for k0 + sum(q_s) = {total_cols} independent columns"
        )

    lambda0 = gamma0 = None
    for attempt in range(_RANK_REGEN_ATTEMPTS):
        rng = stream.child("loadings", attempt).generator()
        stacked = _sparse_normal(
            rng, (p, total_cols), scenario.loading_sparsity, scenario.loading_sd
        )
        lambda0 = stacked[:, :k0]
        gamma0 = []
        off = k0
        for q in q_list:
            gamma0.append(stacked[:, off : off + q])
            off += q
        if scenario.collinear:
            if k0 < 2 or any(q < 2 for q in q_list[1:]):
                raise ParameterError("collinear design needs k0 >= 2 and q_s >= 2 for s >= 2")
            conf = stream.child("confounder", attempt).generator().normal(
                0.0, scenario.confounder_sd, size=(p, 2)
            )
            lambda0 = lambda0.copy()
            lambda0[:, :2] += conf
            for s in range(1, scenario.n_studies):
                gamma0[s] = gamma0[s].copy()
                gamma0[s][:, :2] += conf
        if scenario.loading_sparsity >= 1.0:
            break  # all-zero loadings: pure-noise corner, rank check vacuous
        check = np.hstack([lambda0] + [g for g in gamma0 if g.shape[1] > 0])
        if check.shape[1] == 0:
            break
        sv = np.linalg.svd(check, compute_uv=False)
        if sv[-1] > 1e-10 * max(sv[0], 1.0):
            break
    else:
        raise GenerationError(
            f"stacked loading matrix rank-deficient after {_RANK_REGEN_ATTEMPTS} attempts"
        )

    var_rng = stream.child("noise_var").generator()
    lo, hi = scenario.noise_var_range
    if scenario.heteroscedastic:
        sigma0_sq = var_rng.uniform(lo, hi, size=(scenario.n_studies, p))
    else:
        sigma0_sq = var_rng.uniform(lo, hi, size=p)

    studies, m0_s, f0_s = [], [], []
    for s, (n_s, q) in enumerate(zip(scenario.n_s, q_list)):
        fac_rng = stream.child("factors", s).generator()
        m0 = fac_rng.standard_normal((n_s, k0))
        f0 = fac_rng.standard_normal((n_s, q))
        noise_rng = stream.child("noise", s).generator()
        sig = sigma0_sq[s] if scenario.heteroscedastic else sigma0_sq
        e = noise_rng.standard_normal((n_s, p)) * np.sqrt(sig)[None, :]
        studies.append(m0 @ lambda0.T + f0 @ gamma0[s].T + e)
        m0_s.append(m0)
        f0_s.append(f0)

    dataset = MultiStudyDataset(tuple(studies))
    truth = SimTruth(
        lambda0=lambda0,
        gamma0_s=tuple(gamma0),
        sigma0_sq=sigma0_sq,
        m0_s=tuple(m0_s),
        f0_s=tuple(f0_s),
    )
    return dataset, truth


def _gram_sq_norm(w_pos, w_neg, diag):
    """||W+ W+^T - W- W-^T + diag||_F^2 without forming p x p matrices."""
    t = 0.0
    t += np.sum((w_pos.T @ w_pos) ** 2)
    t += np.sum((w_neg.T @ w_neg) ** 2)
    t -= 2.0 * np.sum((w_pos.T @ w_neg) ** 2)
    t += np.sum(diag**2)
    t += 2.0 * np.sum(diag * np.sum(w_pos**2, axis=1))
    t -= 2.0 * np.sum(diag * np.sum(w_neg**2, axis=1))
    return float(t)


def rel_fro_error(estimate, truth) -> float:
    """||estimate - truth||_F / ||truth||_F for matrices or covariance models."""
    est_model = isinstance(estimate, CovarianceModel)
    tru_model = isinstance(truth, CovarianceModel)
    if est_model and tru_model:
        truth_sq = _gram_sq_norm(truth.factors(), np.zeros((truth.p, 0)), truth.diag_add)
        if truth_sq <= 0.0:
            raise UndefinedMetricError("truth has zero Frobenius norm")
        diff_sq = _gram_sq_norm(
            estimate.factors(), truth.factors(), estimate.diag_add - truth.diag_add
        )
        return float(np.sqrt(max(diff_sq, 0.0) / truth_sq))
    est = estimate.densify() if est_model else np.asarray(estimate, dtype=np.float64)
    tru = truth.densify() if tru_model else np.asarray(truth, dtype=np.float64)
    if est.shape != tru.shape:
        raise DimensionError(f"shape mismatch: {est.shape} vs {tru.shape}")
    denom = np.linalg.norm(tru)
    if denom == 0.0:
        raise UndefinedMetricError("truth has zero Frobenius norm")
    return float(np.linalg.norm(est - tru) / denom)


def procrustes_error(estimate, truth) -> float:
    """Rotation-aligned factor error, scaled by sqrt(n * r); 0 when r = 0."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise DimensionError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    n, r = estimate.shape
    if r == 0:
        return 0.0
    rot = procrustes_rotation(estimate, truth)
    return float(np.linalg.norm(estimate @ rot - truth) / np.sqrt(n * r))


def coverage_eval(draws: DrawSet, truth: SimTruth, level=0.95, submatrix=100,
                  stream: RngStream | None = None):
    """Frequentist coverage of equal-tail credible intervals on a random
    outcome subset.

    For every unordered pair (j, j') inside the subset, j = j' included, the
    interval of the draw products lambda_j . lambda_j' (and per study
    gamma_sj . gamma_sj') is checked against the true product.  Only that
    upper triangle is computed, for a subset of m = `submatrix` outcomes and
    T draws, and never all at once: it is made and decided in blocks of at
    most `_BLOCK_BYTES` (512 KiB) in one reused buffer, so memory grows as
    the m x k x (T+1) gather of the loadings plus at most about 1.2 MB
    whatever m and T (2.8 MB at m = 100, T = 500, k = 5; 7.2 MB at
    m = 300; 8.7 MB at m = 100, T = 2000), not as m^2 x T.  The truth rides
    along as draw T, zero-padded with the draws to the wider rank, so its
    products come from the same kernel and summation order.

    The interval is np.quantile's default (linear) one, but most pairs are
    decided without it, by counting the draws below and at or below the
    true product: a product strictly clear of both order statistics that
    bound an interval edge lies on a known side of that edge.  Only the
    remaining pairs (ties, degenerate rows, a product between the two order
    statistics of an edge), or a whole block with a non-finite or huge
    (>= 2^1022) draw product, go through np.quantile, collected over blocks
    into few calls, so the result equals the all-quantile computation
    exactly.  Blocks are scanned for such products only when the gathered
    loadings themselves could make one.
    Returns (coverage_shared, coverage_specific) with one specific entry per
    study (nan when q_s = 0).  Raises DimensionError when the draws and the
    truth disagree in p or in the number of studies.
    """
    if not 0.0 < level < 1.0:
        raise ParameterError(f"level must lie in (0, 1), got {level}")
    if len(draws) < 50:
        raise ParameterError(f"need at least 50 draws, got {len(draws)}")
    p = truth.lambda0.shape[0]
    draws_p = draws.sigma_tilde_sq.shape[1]
    truth_rows = {g.shape[0] for g in (truth.lambda0, *truth.gamma0_s)}
    if truth_rows != {draws_p}:
        raise DimensionError(f"draws have p={draws_p} outcomes, the truth's loadings have "
                             f"{sorted(truth_rows)} rows")
    if len(draws.gamma_tilde_s) != len(truth.gamma0_s):
        raise DimensionError(f"draws have {len(draws.gamma_tilde_s)} studies, "
                             f"the truth has {len(truth.gamma0_s)}")
    if submatrix < 1:
        raise ParameterError(f"submatrix must be at least 1, got {submatrix}")
    if submatrix > p:
        raise ParameterError(f"submatrix={submatrix} exceeds p={p}")
    if stream is None:
        stream = derive_stream(0, ("coverage",))
    rng = stream.generator()
    idx = np.sort(rng.permutation(p)[:submatrix])

    shared = _pair_coverage(draws.lambda_tilde, truth.lambda0, level, idx)
    specific = []
    for s, gamma0 in enumerate(truth.gamma0_s):
        if gamma0.shape[1] == 0:
            specific.append(float("nan"))
            continue
        specific.append(_pair_coverage(draws.gamma_tilde_s[s], gamma0, level, idx))
    return shared, tuple(specific)


def _lifted_rows(draw_rows, truth_rows, idx=None):
    """The (m, K, T+1) array whose column t holds the rows of draw t
    (draw_rows is (T, p, k)) and whose column T holds the truth (truth_rows
    is (p, k')), both restricted to the m outcomes `idx` (all p when None)
    and zero-padded to the wider rank K.

    The truth rides along as draw T, so its products come from the same
    kernel and summation order as the draws': a draw equal to the truth has
    exactly the true products.
    """
    t, p, k_draw = draw_rows.shape
    k_truth = truth_rows.shape[1]
    if idx is None:
        idx = np.arange(p)
    at = np.zeros((idx.size, max(k_draw, k_truth), t + 1))
    for row, j in zip(at, idx):  # outcome by outcome: no (T, m, k) gather
        row[:k_draw, :t] = draw_rows[:, j].T
    at[:, :k_truth, t] = truth_rows[idx]
    return at


def _block_pairs(m, width):
    """Pairs per block of `_triangle_blocks` for m outcomes and width T+1."""
    return min(max(1, _BLOCK_BYTES // (8 * width)), m * (m + 1) // 2)


def _triangle_blocks(at):
    """Yield the upper-triangle pair products at[i] . at[j], i <= j, summed
    over the rank axis, in the pair order of np.triu_indices(m), as (n, T+1)
    blocks of at most `_BLOCK_BYTES` (130 pairs at T = 500, 32 at T = 2000,
    at least one pair).  Each block is a view of one reused buffer, local
    to the call and valid until the next block is requested.
    """
    m, _, width = at.shape
    size = _block_pairs(m, width)
    buf = np.empty((size, width))
    n = 0
    for i in range(m):
        j = i
        while j < m:
            take = min(m - j, size - n)
            # sums over the rank axis in order, as repeated multiply-and-add
            # would (with at least two columns; one column takes another path)
            np.einsum("ct,jct->jt", at[i], at[j : j + take], out=buf[n : n + take])
            n += take
            j += take
            if n == size:
                yield buf
                n = 0
    if n:
        yield buf[:n]


class _EdgeRows:
    """The pairs that the counts leave undecided, collected over blocks and
    decided by one np.quantile call per `rows` of them.  np.quantile works
    row by row, so batching the rows leaves every interval unchanged.
    """

    def __init__(self, rows, quantiles):
        self.rows, self.quantiles = rows, quantiles
        self.parts, self.held, self.covered = [], 0, 0

    def add(self, prods, target):
        if self.held + len(target) > self.rows:
            self.flush()
        self.parts.append((prods, target))
        self.held += len(target)

    def flush(self):
        """Decide the rows held; returns the covered count of all rows added."""
        if self.parts:
            prods, target = (np.concatenate(x) if len(x) > 1 else x[0]
                             for x in zip(*self.parts))
            lo, hi = np.quantile(prods, self.quantiles, axis=-1, overwrite_input=True)
            self.covered += int(np.count_nonzero((target >= lo) & (target <= hi)))
            self.parts, self.held = [], 0
        return self.covered


def _pair_coverage(draw_rows, truth_rows, level, idx=None):
    # draw_rows: (T, p, k), truth_rows: (p, k'); returns the covered share
    # of the m(m+1)/2 pairs among the outcomes idx (all p when None),
    # decided block by block.
    t0 = time.perf_counter()
    n_draws = draw_rows.shape[0]
    alpha = (1.0 - level) / 2.0
    quantiles = np.array([alpha, 1.0 - alpha])
    # np.quantile's linear method interpolates between the order statistics
    # x(i), x(i+1) at the virtual index i + g = (T-1) q, and its lerp stays
    # inside [x(i), x(i+1)] unless x(i+1) - x(i) overflows, which needs a
    # product of magnitude 2^1022 or more.  A target strictly clear of both
    # order statistics of an edge therefore lies on a known side of it,
    # which counting the draws below it shows; only the pairs left over
    # need the quantiles themselves.
    a, b = np.floor((n_draws - 1) * quantiles).astype(np.intp)
    at = _lifted_rows(draw_rows, truth_rows, idx)
    # Every product is a sum of K terms of magnitude at most max|entry|^2, so
    # K max|entry|^2 < 2^1021 keeps all of them below 2^1022 (rounding adds
    # far less than the factor 2) and no block needs its own scan.  A nan or
    # inf entry fails the test (np.maximum propagates nan); then each block
    # is checked.
    bound = np.maximum(-at.min(initial=0.0), at.max(initial=0.0))
    guard = "inputs" if bound < np.sqrt(2.0**1021 / max(at.shape[1], 1)) else "blocks"
    size = _block_pairs(at.shape[0], n_draws + 1)
    # the rows held and their joined copy fill at most one block
    edges = _EdgeRows(max(1, size // 2), quantiles)
    # comparison flags, summed as bytes: far cheaper than count_nonzero by rows
    flags = np.empty((size, n_draws), dtype=bool)
    pairs = covered_pairs = quantile_pairs = block_pairs = 0
    routes = []
    for block in _triangle_blocks(at):
        n = block.shape[0]
        prods, target = block[:, :n_draws], block[:, n_draws]
        block_pairs = max(block_pairs, n)
        # false for a nan or inf product too (np.max propagates nan)
        if guard == "inputs" or np.abs([prods.min(), prods.max()]).max() < 2.0**1022:
            routes.append("counts")
            bits = flags[:n]
            np.less(prods, target[:, None], out=bits)
            n_lt = np.add.reduce(bits.view(np.uint8), axis=-1, dtype=np.int32)
            np.equal(prods, target[:, None], out=bits)
            n_le = n_lt
            if bits.any():  # ties: count the draws equal to the target
                n_le = n_lt + np.add.reduce(bits.view(np.uint8), axis=-1, dtype=np.int32)
            # n_lt >= a+2: x(a+1) < target, so lo <= target; n_le <= a: x(a) >
            # target, so lo > target; likewise at the upper edge with b
            covered = (n_lt >= a + 2) & (n_le <= b)
            outside = (n_le <= a) | (n_lt >= b + 2)
            edge = np.flatnonzero(~(covered | outside))
            covered_pairs += int(np.count_nonzero(covered))
        else:
            routes.append("quantile")
            edge = np.arange(n)
        if edge.size:
            edges.add(prods[edge], target[edge])
        pairs += n
        quantile_pairs += edge.size
    covered_pairs += edges.flush()
    route = routes[0] if len(set(routes)) == 1 else "mixed"
    logger.debug("event=coverage pairs=%d blocks=%d block_pairs=%d guard=%s quantile_pairs=%d "
                 "route=%s seconds=%.6f", pairs, len(routes), block_pairs, guard,
                 quantile_pairs, route, time.perf_counter() - t0)
    return covered_pairs / pairs


def _woodbury_pieces(w, diag):
    if np.any(diag <= 0.0):
        raise InvalidCovarianceError("diagonal of the covariance must be positive")
    with np.errstate(over="ignore"):
        dinv = 1.0 / diag
        core = np.eye(w.shape[1]) + (w * dinv[:, None]).T @ w
    if not (np.all(np.isfinite(dinv)) and np.all(np.isfinite(core))):
        raise InvalidCovarianceError("covariance diagonal is too small to invert")
    return dinv, core


@dataclass(frozen=True)
class _ConditioningPlan:
    """What conditioning on one observed set of one model needs, whatever
    the observed values y: a row's mean is `gain @ (w_o_dinv.T @ y)`, after
    a solve of y against `sigma_oo` on the dense fallback; `var` is the
    predictive variance."""

    target_idx: np.ndarray
    gain: np.ndarray            # W_t C^{-1}; W_t on the dense fallback
    w_o_dinv: np.ndarray        # D^{-1} W_o; W_o on the dense fallback
    sigma_oo: np.ndarray | None
    var: np.ndarray


def _check_observed_idx(observed_idx, p):
    if observed_idx.size == 0:
        raise ParameterError("observed index set is empty")
    if observed_idx.size != np.unique(observed_idx).size:
        raise ParameterError("observed indices must be distinct")
    if observed_idx.min() < 0 or observed_idx.max() >= p:
        raise DimensionError(f"observed indices outside [0, {p})")
    if observed_idx.size >= p:
        raise ParameterError("observed set must be a proper subset of the outcomes")


def _conditional_plan(cov: CovarianceModel, observed_idx):
    """Build the conditioning plan of a checked observed index set; raises
    InvalidCovarianceError where the observed block cannot be inverted."""
    p = cov.p
    mask = np.ones(p, dtype=bool)
    mask[observed_idx] = False
    target_idx = np.nonzero(mask)[0]

    w = cov.factors()
    w_o = w[observed_idx]
    w_t = w[target_idx]
    d_o = cov.diag_add[observed_idx]
    if np.any(cov.variances()[observed_idx] <= 0.0):
        raise InvalidCovarianceError("observed-block covariance has a nonpositive diagonal")

    sigma_oo = None
    floor = 1e-12 * max(float(np.max(d_o)), float(np.max(np.sum(w_o**2, axis=1))), 1.0)
    if np.min(d_o) > floor:
        # With C = I + W_o^T D^{-1} W_o, the Woodbury identity gives
        # W_o^T Sigma_oo^{-1} = C^{-1} W_o^T D^{-1}, so the mean
        # W_t W_o^T Sigma_oo^{-1} y is gain (W_o^T D^{-1} y) with gain = W_t C^{-1},
        # and the explained variance W_t W_o^T Sigma_oo^{-1} W_o W_t^T is
        # W_t (I - C^{-1}) W_t^T, which leaves diag(W_t C^{-1} W_t^T) + d_t:
        # mean and variance from one solve per plan.
        dinv, core = _woodbury_pieces(w_o, d_o)
        gain = np.linalg.solve(core, w_t.T).T
        w_o_dinv = w_o * dinv[:, None]
        var = np.sum(gain * w_t, axis=1) + cov.diag_add[target_idx]
    else:
        # singular diagonal: fall back to a dense solve on the observed block
        if observed_idx.size > 4096:
            raise InvalidCovarianceError(
                "observed block has a singular diagonal and is too large to densify"
            )
        sigma_oo = w_o @ w_o.T + np.diag(d_o)
        try:
            a = w_o.T @ np.linalg.solve(sigma_oo, w_o)
        except np.linalg.LinAlgError:
            raise InvalidCovarianceError("observed-block covariance is singular") from None
        gain, w_o_dinv = w_t, w_o
        cross_var = np.sum((w_t @ a) * w_t, axis=1)
        var = np.sum(w_t**2, axis=1) + cov.diag_add[target_idx] - cross_var
    return _ConditioningPlan(target_idx, gain, w_o_dinv, sigma_oo, np.maximum(var, 0.0))


def conditional_predict(cov: CovarianceModel, observed_idx, observed_vals):
    """Gaussian conditional mean and per-coordinate variance of the
    unobserved outcomes given the observed ones.

    Works through the low-rank-plus-diagonal structure: only r x r systems
    are solved, where r is the total factor rank.  Everything that does not
    depend on the observed values is planned once per (model, observed set)
    and kept on the model for the next call with the same set, so the
    model's arrays must not be changed in place after a call.  The plan
    holds the gain matrix W_t C^{-1} (C = I + W_o^T D^{-1} W_o), so a row's
    mean takes two matrix-vector products and no solve; only the dense
    fallback (a near-zero observed diagonal) solves per row.
    """
    observed_idx = np.asarray(observed_idx, dtype=np.intp)
    observed_vals = np.asarray(observed_vals, dtype=np.float64)
    key = (observed_idx.shape, observed_idx.tobytes())
    plan = cov._plans.get(key)
    if plan is None:  # a cached plan's index set has passed these checks
        _check_observed_idx(observed_idx, cov.p)
    if observed_vals.ndim != 1:
        raise DimensionError(f"observed values must be one row (1-D), got shape "
                             f"{observed_vals.shape}")
    if observed_vals.shape[0] != observed_idx.size:
        raise DimensionError("observed values and indices disagree in length")
    if plan is None:
        plan = _conditional_plan(cov, observed_idx)
        cov._plans.clear()
        cov._plans[key] = plan

    y = observed_vals
    if plan.sigma_oo is not None:
        try:
            y = np.linalg.solve(plan.sigma_oo, y)
        except np.linalg.LinAlgError:
            raise InvalidCovarianceError("observed-block covariance is singular") from None
    mean = plan.gain @ (plan.w_o_dinv.T @ y)
    return mean, plan.var.copy(), plan.target_idx.copy()


def gaussian_loglik(cov: CovarianceModel, y_test) -> float:
    """Total log-density of the rows of y_test under N(0, cov).

    Uses the factorized inverse and the matrix determinant lemma; cost is
    linear in p for fixed factor rank.
    """
    y = _prediction_inputs(cov, y_test)[0]
    w = cov.factors()
    dinv, core = _woodbury_pieces(w, cov.diag_add)
    sign, core_logdet = np.linalg.slogdet(core)
    if sign <= 0:
        raise InvalidCovarianceError("covariance core is not positive definite")
    logdet = float(np.sum(np.log(cov.diag_add)) + core_logdet)

    yd = y * dinv[None, :]
    quad_diag = np.sum(y * yd, axis=1)
    m = yd @ w
    quad_corr = np.sum(m * np.linalg.solve(core, m.T).T, axis=1)
    quad = quad_diag - quad_corr
    n_rows, p = y.shape
    return float(-0.5 * np.sum(quad) - 0.5 * n_rows * (logdet + p * np.log(2.0 * np.pi)))


def _prediction_inputs(cov: CovarianceModel, y_test, observed_idx=None):
    """Test rows as a 2-D array, and the observed outcome indices (by default
    the second half of the outcomes).  Rows whose width is not the model's p,
    or an index outside [0, p), raise DimensionError; a block with no rows or
    a non-finite entry raises DataError."""
    y = np.asarray(y_test, dtype=np.float64)
    if y.ndim == 1:
        y = y[None, :]
    if y.shape[1] != cov.p:
        raise DimensionError(f"y_test has {y.shape[1]} columns, expected {cov.p}")
    if y.shape[0] == 0:
        raise DataError("y_test has no rows")
    if not np.all(np.isfinite(y)):
        raise DataError("y_test contains non-finite entries")
    if observed_idx is None:
        return y, np.arange(cov.p // 2, cov.p)
    observed_idx = np.asarray(observed_idx, dtype=np.intp)
    # before any row is indexed with it, so a bad index is not an IndexError
    _check_observed_idx(observed_idx, cov.p)
    return y, observed_idx


def _central_z(level):
    """The z with P(|N(0, 1)| <= z) = level, from the standard library
    (within a few ulp of the exact quantile), so no command imports scipy."""
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def predictive_interval_coverage(cov: CovarianceModel, y_test, level,
                                 observed_idx=None) -> float:
    """Mean coverage of central predictive intervals over all test rows.

    Each row's target half is predicted from the observed half; a target is
    covered when it falls within mean +/- z * sd.  By default the second half
    of the outcomes is observed and the first half predicted.
    """
    if not 0.0 < level < 1.0:
        raise ParameterError(f"level must lie in (0, 1), got {level}")
    y, observed_idx = _prediction_inputs(cov, y_test, observed_idx)
    z = _central_z(level)
    hits = 0
    total = 0
    half_width = None
    for row in y:
        mean, var, target_idx = conditional_predict(cov, observed_idx, row[observed_idx])
        if half_width is None:  # every row has the same plan, so the same var
            half_width = z * np.sqrt(var)
        hits += int(np.count_nonzero(np.abs(row[target_idx] - mean) <= half_width))
        total += target_idx.size
    return hits / total


def prediction_nmse(cov: CovarianceModel, y_test, observed_idx=None):
    """Per-target mean squared prediction error over rows, normalized by each
    target's empirical variance in the test set."""
    y, observed_idx = _prediction_inputs(cov, y_test, observed_idx)
    errs = []
    target_idx = None
    for row in y:
        mean, _, target_idx = conditional_predict(cov, observed_idx, row[observed_idx])
        errs.append((row[target_idx] - mean) ** 2)
    mse = np.mean(np.stack(errs), axis=0)
    emp_var = np.var(y[:, target_idx], axis=0)
    if np.any(emp_var <= 0.0):
        raise UndefinedMetricError("a target outcome has zero empirical variance")
    return mse / emp_var, target_idx


@dataclass
class MetricsReport:
    """Per-fit evaluation metrics; the coverage fields are set only when the
    run produced enough draws.  A per-study entry is nan where the metric is
    undefined: a selected rank that differs from the truth's (procrustes), a
    study whose true q_s is 0 (rel_error_specific, coverage_specific)."""

    rel_error_shared: float
    rel_error_specific: list
    procrustes_shared: list
    procrustes_specific: list
    coverage_shared: float | None = None
    coverage_specific: list | None = None

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}

    def study_mean(self, name):
        """Mean over studies of the per-study metric `name`, skipping nan
        entries; nan when no study has a value."""
        vals = np.asarray(getattr(self, name) or [], dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        return float(vals.mean()) if vals.size else float("nan")


def evaluate_fit(result, truth: SimTruth, level=0.95, submatrix=100,
                 coverage_stream=None) -> MetricsReport:
    """Score one fitted result against the generator truth."""
    from .posterior import point_estimates

    shared_model, specific_models = point_estimates(result.spec, result.dims)
    p = truth.lambda0.shape[0]
    no_factors, zero = np.zeros((p, 0)), np.zeros(p)
    rel_shared = rel_fro_error(shared_model, CovarianceModel(truth.lambda0, no_factors, zero))
    # an undefined entry is nan, so the replicate is still scored: a study
    # without a true specific part here, a misselected rank for procrustes
    rel_specific = [
        rel_fro_error(model, CovarianceModel(no_factors, gamma0, zero))
        if gamma0.shape[1] else float("nan")
        for model, gamma0 in zip(specific_models, truth.gamma0_s)
    ]

    def aligned_errors(estimates, truths):
        return [procrustes_error(e, t) if e.shape == t.shape else float("nan")
                for e, t in zip(estimates, truths)]

    pro_shared = aligned_errors(result.factors.m_hat_s, truth.m0_s)
    pro_specific = aligned_errors(result.factors.f_hat_s, truth.f0_s)

    cov_shared = cov_specific = None
    if len(result.draws) >= 50:
        sub = min(submatrix, truth.lambda0.shape[0])
        t0 = time.perf_counter()
        cov_shared, cov_specific = coverage_eval(
            result.draws, truth, level=level, submatrix=sub, stream=coverage_stream
        )
        logger.debug("event=stage_done stage=coverage seconds=%.6f", time.perf_counter() - t0)
        cov_specific = list(cov_specific)
    return MetricsReport(
        rel_error_shared=rel_shared,
        rel_error_specific=rel_specific,
        procrustes_shared=pro_shared,
        procrustes_specific=pro_specific,
        coverage_shared=cov_shared,
        coverage_specific=cov_specific,
    )


def run_replicates(scenario: SimScenario, config, replicates, seed=None,
                   level=0.95, submatrix=100, threads=1):
    """Generate + fit + score `replicates` independent datasets.

    Replicate r runs on seed base + r, so every random stream is keyed by the
    replicate index; with threads > 1 the replicates execute in parallel
    (single-threaded fits inside) and the result list is identical to a
    sequential run.
    """
    from dataclasses import replace as dc_replace

    from .posterior import run_blast

    base_seed = scenario.seed if seed is None else seed

    def one(r):
        sc = dc_replace(scenario, seed=base_seed + r)
        dataset, truth = generate(sc)
        cfg = dc_replace(config, seed=base_seed + r,
                         threads=1 if threads > 1 else config.threads)
        result = run_blast(dataset, cfg)
        return evaluate_fit(
            result,
            truth,
            level=level,
            submatrix=submatrix,
            coverage_stream=derive_stream(base_seed + r, ("coverage",)),
        )

    return parallel_map(one, replicates, threads)


def summarize_replicates(reports):
    """Mean and standard error of each scalar metric over replicates.

    Per-study metrics are averaged within each replicate first (nan entries
    skipped); replicates with no value are left out.
    """
    def collect(get):
        vals = np.array([get(r) for r in reports], dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        if vals.size == 0:
            return None
        se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        return {"mean": float(vals.mean()), "se": se}

    summary = {
        "rel_error_shared": collect(lambda r: r.rel_error_shared),
        "rel_error_specific": collect(lambda r: r.study_mean("rel_error_specific")),
        "procrustes_shared": collect(lambda r: r.study_mean("procrustes_shared")),
        "procrustes_specific": collect(lambda r: r.study_mean("procrustes_specific")),
    }
    if any(r.coverage_shared is not None for r in reports):
        summary["coverage_shared"] = collect(lambda r: r.coverage_shared)  # None -> nan
        summary["coverage_specific"] = collect(lambda r: r.study_mean("coverage_specific"))
    return summary
