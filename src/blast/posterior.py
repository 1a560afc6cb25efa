"""Conjugate posterior for loadings and residual variances, with coverage
correction.

Conditionally on the estimated factors, each outcome j is an independent
ridge regression with a normal-inverse-gamma prior, so the posterior is
closed-form.  Credible intervals from the raw posterior undercover; the
per-pair inflation factors b (and their mean/max summaries rho) widen the
conditional loading variance to restore asymptotic frequentist coverage.
Draw t takes all of its variates from one counter-based RNG substream keyed
by (seed, "draw", t), so output never depends on the parallel schedule.
"""

import logging
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateSignalError,
    DegenerateVarianceError,
    DimensionError,
    InfeasibleHyperparameterError,
    NumericalError,
    ParameterError,
)
from .numerics import RngStream, derive_stream, parallel_map
from .ranks import RankSelectionConfig, require_dims, select_dims_report
from .spectral import FactorEstimates, LatentDims, MultiStudyDataset, estimate_factors

logger = logging.getLogger(__name__)

# Above this many (pairs x rank) flops the mean inflation switches to a
# uniform subsample of pairs.
_EXACT_PAIR_FLOPS = 1e9
_PAIR_SUBSAMPLE = 1_000_000
_PAIR_BLOCK = 512


@dataclass(frozen=True)
class Hyperparams:
    """Prior scales: loading variances tau^2 and the variance prior (nu0,
    sigma0^2).  tau_gamma_sq entries are None for studies with q_s = 0."""

    tau_lambda_sq: float
    tau_gamma_sq: tuple
    nu0: float = 1.0
    sigma0_sq: float = 1.0

    def __post_init__(self):
        if not (self.tau_lambda_sq > 0 and np.isfinite(self.tau_lambda_sq)):
            raise InfeasibleHyperparameterError(f"tau_lambda_sq={self.tau_lambda_sq}")
        for s, t in enumerate(self.tau_gamma_sq):
            if t is not None and not (t > 0 and np.isfinite(t)):
                raise InfeasibleHyperparameterError(f"tau_gamma_sq[{s}]={t}")
        if self.nu0 <= 0 or self.sigma0_sq <= 0:
            raise InfeasibleHyperparameterError(
                f"nu0={self.nu0}, sigma0_sq={self.sigma0_sq} must be positive"
            )


@dataclass(frozen=True)
class PosteriorSpec:
    """Everything the samplers and point estimates need, in closed form."""

    mu_lambda: np.ndarray        # p x k0 posterior mean rows mu_{lambda j}
    k_scalar: float              # 1 / (n + tau_lambda^{-2})
    gamma_n: float               # nu0 + n
    delta_sq: np.ndarray         # p, posterior variance scales
    v_j: np.ndarray              # p, residual variances of the shared fit
    rho_lambda: float
    rho_gamma: tuple             # per study, 1.0 where q_s = 0
    mu_gamma_s: tuple            # per study p x q_s
    k_gamma_s: tuple             # per study 1 / (n_s + tau_gamma^{-2}), 0.0 if q_s = 0
    n: int
    n_s: tuple
    q_s: tuple
    gamma_inflation_source: str = "rho_gamma"
    # cached cross-products for the draw-time specific-loading means
    f_t_y_s: tuple = field(default=(), repr=False)
    f_t_m_s: tuple = field(default=(), repr=False)

    def rho_for_gamma(self, s):
        if self.gamma_inflation_source == "rho_lambda":
            return self.rho_lambda
        return self.rho_gamma[s]


@dataclass(frozen=True)
class PosteriorDraw:
    """One joint draw of loadings and residual variances."""

    lambda_tilde: np.ndarray
    gamma_tilde_s: tuple
    sigma_tilde_sq: np.ndarray


@dataclass(frozen=True, eq=False)
class DrawSet:
    """T posterior draws as arrays with the draw axis first: shared loadings
    T x p x k0, one T x p x q_s array per study, residual variances T x p.
    `draws[t]` is draw t, as a PosteriorDraw of views into these arrays."""

    lambda_tilde: np.ndarray
    gamma_tilde_s: tuple
    sigma_tilde_sq: np.ndarray

    def __post_init__(self):
        t_p = self.sigma_tilde_sq.shape
        loadings = [a.shape for a in (self.lambda_tilde, *self.gamma_tilde_s)]
        if len(t_p) != 2 or any(len(s) != 3 or s[:2] != t_p for s in loadings):
            raise DimensionError("draw arrays must be T x p x k0, T x p x q_s and T x p, "
                                 f"got {loadings + [t_p]}")

    def __len__(self):
        return self.sigma_tilde_sq.shape[0]

    def __getitem__(self, t):
        t = operator.index(t)
        return PosteriorDraw(
            lambda_tilde=self.lambda_tilde[t],
            gamma_tilde_s=tuple(g[t] for g in self.gamma_tilde_s),
            sigma_tilde_sq=self.sigma_tilde_sq[t],
        )


@dataclass(frozen=True)
class CovarianceModel:
    """Low-rank-plus-diagonal covariance: lam lam^T + gam gam^T + diag."""

    lambda_hat: np.ndarray
    gamma_hat: np.ndarray
    diag_add: np.ndarray

    def __post_init__(self):
        p = self.diag_add.shape[0]
        if self.lambda_hat.shape[0] != p or self.gamma_hat.shape[0] != p:
            raise DimensionError("factor row counts must match the diagonal length")

    @property
    def p(self):
        return self.diag_add.shape[0]

    def factors(self):
        return np.hstack([self.lambda_hat, self.gamma_hat])

    def densify(self):
        w = self.factors()
        return w @ w.T + np.diag(self.diag_add)

    def variances(self):
        w = self.factors()
        return np.sum(w**2, axis=1) + self.diag_add


def estimate_hyperparams(dataset: MultiStudyDataset, fe: FactorEstimates,
                         dims: LatentDims, nu0=1.0, sigma0_sq=1.0) -> Hyperparams:
    """Data-adaptive prior scales.

    The shared scale balances the captured signal energy against the summed
    residual variances; study scales do the same with the specific-factor
    energy of the data after subtracting a provisional shared fit (prior
    scale 1), which breaks the circular dependence on tau_lambda.
    """
    n = fe.n_total
    v_j = _residual_variances(fe)
    omega = float(np.sum(v_j))
    theta = float(np.sum(fe.d_c**2) / n)
    # zero up to roundoff, relative to the total energy of the shared fit
    floor = 1e-12 * float(np.sum(fe.y_c**2)) / n
    if omega <= floor:
        raise DegenerateSignalError("summed residual variances are zero (noise-free data)")
    if theta <= floor:
        raise DegenerateSignalError("captured shared-signal energy is zero")
    tau_lambda_sq = theta / (dims.k0 * omega)

    mu_prov = fe.y_c.T @ fe.m_hat / (n + 1.0)  # provisional fit, prior scale 1
    tau_gamma_sq = []
    for s, y_s in enumerate(dataset.studies):
        if dims.q_s[s] == 0:
            tau_gamma_sq.append(None)
            continue
        n_s = dataset.n_s[s]
        resid = y_s - fe.m_hat_s[s] @ mu_prov.T
        theta_s = float(np.sum((fe.u_perp_s[s].T @ resid) ** 2) / n_s)
        tau_gamma_sq.append(theta_s / (dims.q_s[s] * omega))
    return Hyperparams(
        tau_lambda_sq=tau_lambda_sq,
        tau_gamma_sq=tuple(tau_gamma_sq),
        nu0=float(nu0),
        sigma0_sq=float(sigma0_sq),
    )


def _residual_variances(fe: FactorEstimates):
    col_sq = np.sum(fe.y_c**2, axis=0)
    captured = np.sum((fe.v_c * fe.d_c) ** 2, axis=1)
    return np.maximum(col_sq - captured, 0.0) / fe.n_total


def nig_update(m_hat, y, tau_sq, nu0=1.0, sigma0_sq=1.0):
    """Conjugate update for outcomes regressed on scaled-orthonormal factors.

    Requires m_hat^T m_hat = n I (within roundoff), which makes the posterior
    covariance scalar.  Returns (mu, k_scalar, gamma_n, delta_sq) with mu the
    p x k matrix of row-wise posterior means.
    """
    m_hat = np.asarray(m_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = m_hat.shape[0]
    denom = n + 1.0 / tau_sq
    mu = y.T @ m_hat / denom
    k_scalar = 1.0 / denom
    gamma_n = nu0 + n
    col_sq = np.sum(y**2, axis=0)
    quad = np.sum(mu**2, axis=1) * denom  # mu^T K^{-1} mu
    delta_sq = (nu0 * sigma0_sq + col_sq - quad) / gamma_n
    if np.any(delta_sq <= 0.0):
        raise DegenerateVarianceError("posterior variance scale delta^2 is not positive")
    return mu, k_scalar, gamma_n, delta_sq


def fit_lambda_posterior(fe: FactorEstimates, hp: Hyperparams):
    """Closed-form posterior for the shared loadings and residual variances.

    Returns (mu_lambda, k_scalar, gamma_n, delta_sq, v_j); mu_lambda is also
    checked against its equivalent scaled-SVD form.
    """
    n = fe.n_total
    mu_lambda, k_scalar, gamma_n, delta_sq = nig_update(
        fe.m_hat, fe.y_c, hp.tau_lambda_sq, nu0=hp.nu0, sigma0_sq=hp.sigma0_sq
    )
    closed = (np.sqrt(n) * k_scalar) * (fe.v_c * fe.d_c)
    scale = max(float(np.max(np.abs(closed))), 1e-300)
    if np.max(np.abs(mu_lambda - closed)) > 1e-8 * scale:
        raise NumericalError("ridge posterior mean disagrees with its SVD form")
    v_j = _residual_variances(fe)
    return mu_lambda, k_scalar, gamma_n, delta_sq, v_j


def mu_gamma(y_s, m_hat_s, f_hat_s, mu_lambda, tau_gamma_sq) -> np.ndarray:
    """Posterior mean of the specific loadings for one study (p x q_s).

    Row j is the ridge fit of outcome j on the specific factors after
    removing the shared-fit contribution.
    """
    q_s = f_hat_s.shape[1]
    if q_s == 0:
        return np.zeros((y_s.shape[1], 0))
    n_s = y_s.shape[0]
    denom = n_s + 1.0 / tau_gamma_sq
    return (y_s.T @ f_hat_s - mu_lambda @ (m_hat_s.T @ f_hat_s)) / denom


def _pair_summary(num_den_fn, diag_b, p):
    """Mean/max of b over unordered pairs, blocked for fixed reduction order.

    num_den_fn(i0, i1) returns the (num, den) arrays of rows [i0, i1) against
    columns [i0, p); b = sqrt(1 + num/den) with 0/0 treated as 0.
    """
    total = float(np.sum(diag_b))
    best = float(np.max(diag_b))
    for i0 in range(0, p, _PAIR_BLOCK):
        i1 = min(i0 + _PAIR_BLOCK, p)
        num, den = num_den_fn(i0, i1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(den > 0.0, num / den, 0.0)
        b = np.sqrt(1.0 + ratio)
        # strictly-upper entries: column c > row a of the block, in row order
        upper = b[~np.tri(i1 - i0, p - i0, dtype=bool)]
        total += float(np.sum(upper))
        if upper.size:
            best = max(best, float(np.max(upper)))
    n_pairs = p * (p - 1) / 2.0
    return total / n_pairs, best


def _pair_summary_sampled(num_den_pairs_fn, diag_b, p):
    """Subsampled mean over off-diagonal pairs; max over sample and diagonal.

    The subsample estimates a deterministic mean, so it comes from one fixed
    stream rather than the run seed.
    """
    rng = derive_stream(0, ("inflation", "pairs")).generator()
    m = _PAIR_SUBSAMPLE
    i = rng.integers(0, p, size=m)
    j = rng.integers(0, p - 1, size=m)
    j = np.where(j >= i, j + 1, j)  # uniform over ordered pairs i != j
    num, den = num_den_pairs_fn(i, j)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(den > 0.0, num / den, 0.0)
    b = np.sqrt(1.0 + ratio)
    n_pairs = p * (p - 1) / 2.0
    mean = float(np.mean(b)) + float(np.sum(diag_b)) / n_pairs
    best = max(float(np.max(b)), float(np.max(diag_b)))
    return mean, best


def inflation_lambda(mu_lambda, v_j, strategy="mean", fixed=None) -> float:
    """Variance-inflation factor for the shared loadings.

    This is the specific-loading factor of a study with no shared part
    beneath it, so it delegates to `inflation_gamma`.
    """
    p = np.shape(v_j)[0]
    return inflation_gamma(mu_lambda, np.zeros((p, 0)), v_j, strategy=strategy,
                           fixed=fixed)


def inflation_gamma(mu_gamma_s, mu_lambda, v_j, strategy="mean", fixed=None) -> float:
    """Variance-inflation factor for one study's specific loadings.

    Per-pair factors compare the sampling variability of the loading products
    against the naive posterior scale; `strategy` summarizes them by their
    mean (default), their max, or returns a user-fixed value.
    """
    mu_gamma_s = np.asarray(mu_gamma_s, dtype=np.float64)
    mu_lambda = np.asarray(mu_lambda, dtype=np.float64)
    v_j = np.asarray(v_j, dtype=np.float64)
    p = v_j.shape[0]
    if p < 2:
        raise ParameterError(f"inflation needs p >= 2 outcomes, got {p}")
    if strategy == "fixed":
        if fixed is None or fixed < 1.0:
            raise ParameterError("fixed inflation requires a value >= 1")
        return float(fixed)
    if strategy not in ("mean", "max"):
        raise ParameterError(f"unknown inflation strategy {strategy!r}")
    if np.any(v_j <= 0.0):
        raise DegenerateVarianceError("some residual variance V_j is zero")
    ng = np.sum(mu_gamma_s**2, axis=1)
    nl = np.sum(mu_lambda**2, axis=1)
    # V_j estimates the residual variance sigma_j^2 and substitutes it
    # directly in the oracle factors.
    diag_b = np.sqrt(1.0 + (ng + 2.0 * nl) / (2.0 * v_j))

    def num_den(i, j, dot):
        # i and j select the pair rows and columns and broadcast together;
        # dot(x) gives the matching inner products of the rows of x.
        gg, gl = dot(mu_gamma_s), dot(mu_lambda)
        # data of extreme scale overflow here; _require_finite reports it
        with np.errstate(over="ignore", invalid="ignore"):
            num = ng[i] * ng[j] + gg**2 + ng[i] * nl[j] + nl[i] * ng[j] + 2.0 * gg * gl
            den = v_j[i] * ng[j] + ng[i] * v_j[j]
        return num, den

    rank = max(mu_gamma_s.shape[1] + mu_lambda.shape[1], 1)
    if p * p * rank <= _EXACT_PAIR_FLOPS:
        def block(i0, i1):
            rows, cols = slice(i0, i1), slice(i0, None)
            # slicing the full product (not x[cols]) keeps the products bit-equal
            return num_den((rows, None), (None, cols), lambda x: (x[rows] @ x.T)[:, cols])

        mean, best = _pair_summary(block, diag_b, p)
    else:
        def pairs(i, j):
            return num_den(i, j, lambda x: np.sum(x[i] * x[j], axis=1))

        mean, best = _pair_summary_sampled(pairs, diag_b, p)
    return mean if strategy == "mean" else best


def build_posterior_spec(dataset: MultiStudyDataset, fe: FactorEstimates,
                         dims: LatentDims, hp: Hyperparams,
                         inflation_strategy="mean", inflation_fixed=None,
                         gamma_inflation_source="rho_gamma") -> PosteriorSpec:
    """Assemble all posterior parameters (steps 3-6 of the full procedure)."""
    if gamma_inflation_source not in ("rho_gamma", "rho_lambda"):
        raise ParameterError(f"unknown gamma_inflation_source {gamma_inflation_source!r}")
    mu_l, k_scalar, gamma_n, delta_sq, v_j = fit_lambda_posterior(fe, hp)
    rho_lambda = inflation_lambda(mu_l, v_j, strategy=inflation_strategy,
                                  fixed=inflation_fixed)

    mu_gamma_list, rho_gamma, k_gamma_s = [], [], []
    f_t_y, f_t_m = [], []
    for s, y_s in enumerate(dataset.studies):
        f_hat = fe.f_hat_s[s]
        m_hat_s = fe.m_hat_s[s]
        if dims.q_s[s] == 0:
            mu_gamma_list.append(np.zeros((dataset.p, 0)))
            rho_gamma.append(1.0)
            k_gamma_s.append(0.0)
            f_t_y.append(np.zeros((0, dataset.p)))
            f_t_m.append(np.zeros((0, dims.k0)))
            continue
        tau_sq = hp.tau_gamma_sq[s]
        mg = mu_gamma(y_s, m_hat_s, f_hat, mu_l, tau_sq)
        mu_gamma_list.append(mg)
        rho_gamma.append(
            inflation_gamma(mg, mu_l, v_j, strategy=inflation_strategy,
                            fixed=inflation_fixed)
        )
        k_gamma_s.append(1.0 / (dataset.n_s[s] + 1.0 / tau_sq))
        f_t_y.append(f_hat.T @ y_s)
        f_t_m.append(f_hat.T @ m_hat_s)

    return PosteriorSpec(
        mu_lambda=mu_l,
        k_scalar=k_scalar,
        gamma_n=gamma_n,
        delta_sq=delta_sq,
        v_j=v_j,
        rho_lambda=rho_lambda,
        rho_gamma=tuple(rho_gamma),
        mu_gamma_s=tuple(mu_gamma_list),
        k_gamma_s=tuple(k_gamma_s),
        n=fe.n_total,
        n_s=dataset.n_s,
        q_s=dims.q_s,
        gamma_inflation_source=gamma_inflation_source,
        f_t_y_s=tuple(f_t_y),
        f_t_m_s=tuple(f_t_m),
    )


def sample_draw(spec: PosteriorSpec, stream: RngStream) -> PosteriorDraw:
    """One joint posterior draw, all of it from one generator on `stream`.

    The posterior is a product over outcomes, so each block is drawn for all
    p outcomes at once, in a fixed order: the p variances sigma^2, the p x k0
    shared-loading normals, then each study's p x q_s specific-loading
    normals.  The specific-loading mean is recomputed from the drawn shared
    loadings.
    """
    p, k0 = spec.mu_lambda.shape
    rng = stream.generator()
    sig = (spec.gamma_n * spec.delta_sq / 2.0) / rng.standard_gamma(spec.gamma_n / 2.0, size=p)
    lam_sd = np.sqrt(sig * spec.rho_lambda**2 * spec.k_scalar)
    lam = spec.mu_lambda + lam_sd[:, None] * rng.standard_normal((p, k0))
    gammas = []
    for s, q in enumerate(spec.q_s):
        k_g = spec.k_gamma_s[s]
        mean = (spec.f_t_y_s[s].T - lam @ spec.f_t_m_s[s].T) * k_g
        sd = np.sqrt(spec.rho_for_gamma(s) ** 2 * sig * k_g)
        gammas.append(mean + sd[:, None] * rng.standard_normal((p, q)))
    return PosteriorDraw(
        lambda_tilde=lam,
        gamma_tilde_s=tuple(gammas),
        sigma_tilde_sq=sig,
    )


def point_estimates(spec: PosteriorSpec, dims: LatentDims):
    """Posterior means of the covariance components, coverage-corrected.

    Shared low-rank component: mu_L mu_L^T + rho_L^2 Psi with Psi the induced
    diagonal; specific components analogously (their diagonal already carries
    the study inflation).  The vanished factor cross-product means no extra
    diagonal term is needed for the specific components.
    """
    if spec.gamma_n <= 2.0:
        raise InfeasibleHyperparameterError(
            f"gamma_n={spec.gamma_n} <= 2: posterior variance mean does not exist"
        )
    p = spec.mu_lambda.shape[0]
    ig_mean_scale = spec.gamma_n / (spec.gamma_n - 2.0)
    psi_diag = dims.k0 * spec.k_scalar * ig_mean_scale * spec.delta_sq
    shared = CovarianceModel(
        lambda_hat=spec.mu_lambda,
        gamma_hat=np.zeros((p, 0)),
        diag_add=spec.rho_lambda**2 * psi_diag,
    )
    specific = []
    for s in range(len(spec.q_s)):
        rho = spec.rho_for_gamma(s)
        psi_s_diag = (
            spec.q_s[s] * rho**2 * spec.k_gamma_s[s] * ig_mean_scale * spec.delta_sq
        )
        specific.append(
            CovarianceModel(
                lambda_hat=np.zeros((p, 0)),
                gamma_hat=spec.mu_gamma_s[s],
                diag_add=psi_s_diag,
            )
        )
    return shared, tuple(specific)


def study_covariance(spec: PosteriorSpec, s) -> CovarianceModel:
    """Fitted full covariance of study s: shared + specific + residual."""
    if spec.gamma_n <= 2.0:
        raise InfeasibleHyperparameterError(f"gamma_n={spec.gamma_n} <= 2")
    sigma_hat = spec.gamma_n * spec.delta_sq / (spec.gamma_n - 2.0)
    return CovarianceModel(
        lambda_hat=spec.mu_lambda,
        gamma_hat=spec.mu_gamma_s[s],
        diag_add=sigma_hat,
    )


@dataclass(frozen=True)
class BlastConfig:
    """Settings for the end-to-end fit."""

    dims: LatentDims | None = None
    k_max: int | None = None
    tau: float = 0.2
    nu0: float = 1.0
    sigma0_sq: float = 1.0
    tau_lambda_sq: float | None = None   # override the data-adaptive estimate
    tau_gamma_sq: tuple | None = None    # idem, one entry per study
    n_mc: int = 500
    seed: int = 0
    threads: int = 1
    inflation_strategy: str = "mean"
    inflation_fixed: float | None = None
    gamma_inflation_source: str = "rho_gamma"
    projection_weighting: str = "uniform"
    center_columns: bool = False

    def __post_init__(self):
        if self.n_mc < 0:
            raise ParameterError(f"n_mc must be >= 0, got {self.n_mc}")
        if self.threads < 1:
            raise ParameterError(f"threads must be >= 1, got {self.threads}")
        if self.projection_weighting not in ("uniform", "by_n"):
            raise ParameterError(f"unknown projection_weighting {self.projection_weighting!r}")


@dataclass(frozen=True)
class BlastResult:
    factors: FactorEstimates
    dims: LatentDims
    hyperparams: Hyperparams
    spec: PosteriorSpec
    draws: DrawSet
    report: dict


def run_blast(dataset: MultiStudyDataset, config: BlastConfig) -> BlastResult:
    """Full pipeline: rank selection, factor estimation, posterior, draws.

    Raises on any failure; partial results are never returned.  Fixing the
    seed makes the output byte-identical for any `threads` value at a fixed
    BLAS thread count; a different BLAS thread count can change the rounding.
    """
    timings = {}
    t0 = time.perf_counter()
    if config.center_columns:
        dataset = dataset.center_columns()

    jic_traces = None
    if config.dims is not None:
        dims = config.dims
        dims.validate_for(dataset)
    else:
        rank_cfg = RankSelectionConfig(k_max=config.k_max, tau=config.tau)
        rank_report = select_dims_report(
            dataset, rank_cfg, weighting=config.projection_weighting,
            threads=config.threads,
        )
        dims = require_dims(rank_report, config.tau)
        jic_traces = rank_report.traces
    _stage_done(timings, "rank_selection", t0)

    t0 = time.perf_counter()
    fe = estimate_factors(
        dataset, dims, weighting=config.projection_weighting, threads=config.threads
    )
    _stage_done(timings, "factor_estimation", t0)

    t0 = time.perf_counter()
    hp = estimate_hyperparams(dataset, fe, dims, nu0=config.nu0,
                              sigma0_sq=config.sigma0_sq)
    if config.tau_lambda_sq is not None or config.tau_gamma_sq is not None:
        overrides = {}
        if config.tau_lambda_sq is not None:
            overrides["tau_lambda_sq"] = float(config.tau_lambda_sq)
        if config.tau_gamma_sq is not None:
            tg = config.tau_gamma_sq
            if np.isscalar(tg):
                tg = tuple(
                    None if q == 0 else float(tg) for q in dims.q_s
                )
            overrides["tau_gamma_sq"] = tuple(tg)
        hp = replace(hp, **overrides)
    spec = build_posterior_spec(
        dataset, fe, dims, hp,
        inflation_strategy=config.inflation_strategy,
        inflation_fixed=config.inflation_fixed,
        gamma_inflation_source=config.gamma_inflation_source,
    )
    _require_finite(spec)
    _stage_done(timings, "posterior_fit", t0)

    t0 = time.perf_counter()
    draws = _sample_all(spec, config)
    _stage_done(timings, "sampling", t0)

    report = {
        "dims": {"k0": dims.k0, "k_s": list(dims.k_s), "q_s": list(dims.q_s)},
        "hyperparams": {
            "tau_lambda_sq": hp.tau_lambda_sq,
            "tau_gamma_sq": [t if t is None else float(t) for t in hp.tau_gamma_sq],
            "nu0": hp.nu0,
            "sigma0_sq": hp.sigma0_sq,
        },
        "rho_lambda": spec.rho_lambda,
        "rho_gamma": list(spec.rho_gamma),
        "p_tilde_spectrum": [float(x) for x in fe.p_tilde_spectrum],
        "n_mc": config.n_mc,
        "seed": config.seed,
        "timings": timings,
    }
    if jic_traces is not None:
        report["jic"] = [t.to_dict() for t in jic_traces]
    return BlastResult(factors=fe, dims=dims, hyperparams=hp, spec=spec,
                       draws=draws, report=report)


def _stage_done(timings, stage, t0):
    seconds = time.perf_counter() - t0
    timings[f"{stage}_s"] = seconds
    logger.debug("event=stage_done stage=%s seconds=%.6f", stage, seconds)


def _require_finite(spec):
    """Raise NumericalError naming the first non-finite posterior quantity.

    Data of extreme scale can overflow the inflation products, which would
    otherwise leave NaN in rho and in every draw.
    """
    quantities = (
        ("rho_lambda", (spec.rho_lambda,)),
        ("rho_gamma", spec.rho_gamma),
        ("mu_lambda", (spec.mu_lambda,)),
        ("mu_gamma_s", spec.mu_gamma_s),
        ("delta_sq", (spec.delta_sq,)),
    )
    for name, values in quantities:
        if not all(np.all(np.isfinite(v)) for v in values):
            raise NumericalError(
                f"posterior {name} is not finite; the data scale overflows double precision"
            )


def _sample_all(spec, config):
    """All n_mc draws, each written into its row of arrays allocated once."""
    n_mc, (p, k0) = config.n_mc, spec.mu_lambda.shape
    draws = DrawSet(
        lambda_tilde=np.empty((n_mc, p, k0)),
        gamma_tilde_s=tuple(np.empty((n_mc, p, q)) for q in spec.q_s),
        sigma_tilde_sq=np.empty((n_mc, p)),
    )
    root = derive_stream(config.seed, ("draw",))

    def fill(t):
        d = sample_draw(spec, root.child(t))
        draws.lambda_tilde[t] = d.lambda_tilde
        for out, g in zip(draws.gamma_tilde_s, d.gamma_tilde_s):
            out[t] = g
        draws.sigma_tilde_sq[t] = d.sigma_tilde_sq

    parallel_map(fill, n_mc, config.threads)
    return draws
