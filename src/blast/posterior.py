"""Conjugate posterior for loadings and residual variances, with coverage
correction.

Conditionally on the estimated factors, each outcome j is an independent
ridge regression with a normal-inverse-gamma prior, so the posterior is
closed-form.  Credible intervals from the raw posterior undercover; the
per-pair inflation factors b (and their mean/max summaries rho) widen the
conditional loading variance to restore asymptotic frequentist coverage.
The sum runs exactly over all p(p-1)/2 pairs, at every p: each block of
rows goes through two BLAS matrix products over "lifted" per-outcome
features, whose inner products are each pair's numerator and denominator.
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
from .spectral import (
    PROJECTION_WEIGHTINGS,
    FactorEstimates,
    LatentDims,
    MultiStudyDataset,
    estimate_factors,
)

logger = logging.getLogger(__name__)

# Rows per block of the exact pair sum.
_PAIR_ROWS = 64


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
    # draw-time cross-products of the studies' specific factors, stacked in
    # study order over Q = sum(q_s) rows: f_hat_s^T Y_s (Q x p) and
    # f_hat_s^T m_hat_s (Q x k0)
    f_t_y: np.ndarray = field(repr=False)
    f_t_m: np.ndarray = field(repr=False)
    gamma_inflation_source: str = "rho_gamma"
    # derived from the fields above for `sample_draw`: gamma_n delta^2 / 2,
    # each block's rho^2 and conditional variance scale (shared first, then
    # one per study), and k_gamma_s repeated over each study's rows of Q
    sig_scale: np.ndarray = field(init=False, repr=False, compare=False)
    sd_rho_sq: np.ndarray = field(init=False, repr=False, compare=False)
    sd_k: np.ndarray = field(init=False, repr=False, compare=False)
    k_gamma_cols: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rho = (self.rho_lambda, *(self.rho_for_gamma(s) for s in range(len(self.q_s))))
        k_gamma = np.array(self.k_gamma_s, dtype=np.float64)
        for name, value in (("sig_scale", self.gamma_n * self.delta_sq / 2.0),
                            ("sd_rho_sq", np.array([r**2 for r in rho])),
                            ("sd_k", np.concatenate([[self.k_scalar], k_gamma])),
                            ("k_gamma_cols", np.repeat(k_gamma, self.q_s))):
            object.__setattr__(self, name, value)

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
    # evalsim.conditional_predict's plan for the last observed set, so the
    # arrays above must not change in place once a prediction has run
    _plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    floor = 1e-12 * float(np.sum(fe.yc_col_sq)) / n
    if omega <= floor:
        raise DegenerateSignalError("summed residual variances are zero (noise-free data)")
    if theta <= floor:
        raise DegenerateSignalError("captured shared-signal energy is zero")
    tau_lambda_sq = theta / (dims.k0 * omega)

    mu_prov = fe.yc_t_m / (n + 1.0)  # provisional fit, prior scale 1
    tau_gamma_sq = []
    for s in range(dataset.n_studies):
        if dims.q_s[s] == 0:
            tau_gamma_sq.append(None)
            continue
        u = fe.u_perp_s[s]
        # U_s^T (Y_s - m_hat_s mu_prov^T), without the n_s x p difference
        coef = fe.w_s[s] - (u.T @ fe.m_hat_s[s]) @ mu_prov.T
        theta_s = float(np.sum(coef**2) / dataset.n_s[s])
        tau_gamma_sq.append(theta_s / (dims.q_s[s] * omega))
    return Hyperparams(
        tau_lambda_sq=tau_lambda_sq,
        tau_gamma_sq=tuple(tau_gamma_sq),
        nu0=float(nu0),
        sigma0_sq=float(sigma0_sq),
    )


def _residual_variances(fe: FactorEstimates):
    captured = np.sum((fe.v_c * fe.d_c) ** 2, axis=1)
    return np.maximum(fe.yc_col_sq - captured, 0.0) / fe.n_total


def nig_update(m_hat, y, tau_sq, nu0=1.0, sigma0_sq=1.0):
    """Conjugate update for outcomes regressed on scaled-orthonormal factors.

    Requires m_hat^T m_hat = n I (within roundoff), which makes the posterior
    covariance scalar.  Returns (mu, k_scalar, gamma_n, delta_sq) with mu the
    p x k matrix of row-wise posterior means.
    """
    m_hat = np.asarray(m_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _nig_from_stats(y.T @ m_hat, np.sum(y**2, axis=0), m_hat.shape[0], tau_sq,
                           nu0, sigma0_sq)


def _nig_from_stats(y_t_m, col_sq, n, tau_sq, nu0, sigma0_sq):
    """`nig_update` from the two statistics it reads of the n x p outcomes
    y: y_t_m = y^T m_hat (p x k) and col_sq, the column sums of squares."""
    denom = n + 1.0 / tau_sq
    mu = y_t_m / denom
    k_scalar = 1.0 / denom
    gamma_n = nu0 + n
    quad = np.sum(mu**2, axis=1) * denom  # mu^T K^{-1} mu
    delta_sq = (nu0 * sigma0_sq + col_sq - quad) / gamma_n
    if np.any(delta_sq <= 0.0):
        raise DegenerateVarianceError("posterior variance scale delta^2 is not positive")
    return mu, k_scalar, gamma_n, delta_sq


def fit_lambda_posterior(fe: FactorEstimates, hp: Hyperparams):
    """Closed-form posterior for the shared loadings and residual variances.

    Reads y_c only through fe.yc_t_m and fe.yc_col_sq.  Returns (mu_lambda,
    k_scalar, gamma_n, delta_sq, v_j); mu_lambda, built from the data
    cross-product y_c^T m_hat, is also checked against its equivalent
    scaled-SVD form sqrt(n) k V_c D_c.
    """
    n = fe.n_total
    mu_lambda, k_scalar, gamma_n, delta_sq = _nig_from_stats(
        fe.yc_t_m, fe.yc_col_sq, n, hp.tau_lambda_sq, hp.nu0, hp.sigma0_sq
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
    if f_hat_s.shape[1] == 0:
        return np.zeros((y_s.shape[1], 0))
    return _mu_gamma_from_stats(f_hat_s.T @ y_s, m_hat_s, f_hat_s, mu_lambda, tau_gamma_sq)


def _mu_gamma_from_stats(f_t_y, m_hat_s, f_hat_s, mu_lambda, tau_gamma_sq):
    """`mu_gamma` from the cross-product f_t_y = f_hat_s^T y_s (q_s x p)."""
    denom = f_hat_s.shape[0] + 1.0 / tau_gamma_sq
    return (f_t_y.T - mu_lambda @ (m_hat_s.T @ f_hat_s)) / denom


def _lifted_features(g, l, v, ng, nl):
    """Per-outcome rows whose inner products give each pair's num and den.

    With gg = g g^T and gl = l l^T, gg (gg + 2 gl) = sum_ab g_ia g_ja
    (g_ib g_jb + 2 l_ib l_jb), so num_ij = <zl_i, zr_j> and
    den_ij = <dl_i, dr_j>.  The num features are q (q + k) + 3 wide.
    """
    p = g.shape[0]

    def outer(right):  # row i: vec(g_i (x) right_i)
        return (g[:, :, None] * right[:, None, :]).reshape(p, -1)

    zl = np.column_stack([ng, ng, nl, outer(np.hstack([g, 2.0 * l]))])
    zr = np.column_stack([ng, nl, ng, outer(np.hstack([g, l]))])
    return zl, zr, np.column_stack([v, ng]), np.column_stack([ng, v])


def _pair_summary(zl, zr, dl, dr, diag_b, strategy, zero_den):
    """Mean or max of b = sqrt(1 + num/den) over unordered pairs, 0/0 as 0.

    Rows go _PAIR_ROWS at a time against columns [i0, p), two matrix
    products and a few in-place passes over a block that fits in cache.
    The block's own square on and below the diagonal is zeroed; those zeros
    never win the max, since every b >= 1.  The block size is part of the
    reduction order of the mean.  The pass that sets b = 1 where den is
    not > 0 runs only if `zero_den` says such a den may occur.
    """
    p = diag_b.shape[0]
    num_buf, den_buf = np.empty(_PAIR_ROWS * p), np.empty(_PAIR_ROWS * p)
    row_stat = np.empty(p)
    reduce_rows = np.sum if strategy == "mean" else np.max
    lower = np.tri(_PAIR_ROWS, dtype=bool)
    for i0 in range(0, p, _PAIR_ROWS):
        h, w = min(_PAIR_ROWS, p - i0), p - i0
        num = np.matmul(zl[i0:i0 + h], zr[i0:].T, out=num_buf[:h * w].reshape(h, w))
        den = np.matmul(dl[i0:i0 + h], dr[i0:].T, out=den_buf[:h * w].reshape(h, w))
        np.divide(num, den, out=num)
        if zero_den:
            np.copyto(num, 0.0, where=~(den > 0.0))
        num += 1.0
        np.sqrt(num, out=num)
        np.copyto(num[:, :h], 0.0, where=lower[:h, :h])
        reduce_rows(num, axis=1, out=row_stat[i0:i0 + h])
    if strategy == "mean":
        return (float(np.sum(diag_b)) + float(np.sum(row_stat))) / (p * (p - 1) / 2.0)
    # np.maximum, unlike the builtin max, keeps a NaN for _require_finite
    return float(np.max(np.maximum(diag_b, row_stat)))


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
    t0 = time.perf_counter()
    q, k = mu_gamma_s.shape[1], mu_lambda.shape[1]
    # data of extreme scale overflow in the pair products and leave NaN or
    # inf in rho; _require_finite reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ng = np.sum(mu_gamma_s**2, axis=1)
        nl = np.sum(mu_lambda**2, axis=1)
        # V_j estimates the residual variance sigma_j^2 and substitutes it
        # directly in the oracle factors.
        diag_b = np.sqrt(1.0 + (ng + 2.0 * nl) / (2.0 * v_j))
        # den_ij = v_i ng_j + ng_i v_j, with v > 0, is > 0 unless some ng is
        # 0 or NaN or a product underflows; the least product tells them all
        zero_den = not float(np.min(ng)) * float(np.min(v_j)) > 0.0
        rho = _pair_summary(*_lifted_features(mu_gamma_s, mu_lambda, v_j, ng, nl),
                            diag_b, strategy, zero_den)
    logger.debug("event=inflation p=%d width=%d seconds=%.6f",
                 p, q * (q + k) + 3, time.perf_counter() - t0)
    return rho


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
    for s in range(dataset.n_studies):
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
        f_t_y_s = np.sqrt(dataset.n_s[s]) * fe.w_s[s]  # f_hat^T Y_s
        mg = _mu_gamma_from_stats(f_t_y_s, m_hat_s, f_hat, mu_l, tau_sq)
        mu_gamma_list.append(mg)
        rho_gamma.append(
            inflation_gamma(mg, mu_l, v_j, strategy=inflation_strategy,
                            fixed=inflation_fixed)
        )
        k_gamma_s.append(1.0 / (dataset.n_s[s] + 1.0 / tau_sq))
        f_t_y.append(f_t_y_s)
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
        # in column order, so that the sampler reads its transpose contiguously
        f_t_y=np.asfortranarray(np.vstack(f_t_y)),
        f_t_m=np.vstack(f_t_m),
        gamma_inflation_source=gamma_inflation_source,
    )


def sample_draw(spec: PosteriorSpec, stream: RngStream, out=None) -> PosteriorDraw:
    """One joint posterior draw, all of it from one generator on `stream`.

    The posterior is a product over outcomes, so each block is drawn for all
    p outcomes at once, in a fixed order: the p variances sigma^2 (gamma
    variates), then in one call the p x k0 shared-loading normals followed
    by each study's p x q_s specific-loading normals.  The standard
    deviations of all S + 1 blocks come from one (S + 1) x p pass, and the
    specific-loading means, recomputed from the drawn shared loadings, from
    one product for all studies.  The draw is written into `out`, a
    PosteriorDraw of C-contiguous arrays (a row of a DrawSet, say), or into
    new arrays when it is None, and returned; its bytes are the same either
    way.
    """
    p, k0 = spec.mu_lambda.shape
    if out is None:
        out = PosteriorDraw(lambda_tilde=np.empty((p, k0)),
                            gamma_tilde_s=tuple(np.empty((p, q)) for q in spec.q_s),
                            sigma_tilde_sq=np.empty(p))
    rng = stream.thread_generator()
    sig = rng.standard_gamma(spec.gamma_n / 2.0, size=p, out=out.sigma_tilde_sq)
    np.divide(spec.sig_scale, sig, out=sig)
    # row c: sqrt(rho_c^2 sigma^2 k_c), multiplied in that order
    sd = np.multiply.outer(spec.sd_rho_sq, sig)
    sd *= spec.sd_k[:, None]
    np.sqrt(sd, out=sd)
    z = rng.standard_normal(p * (k0 + spec.f_t_m.shape[0]))
    lam = np.multiply(z[:p * k0].reshape(p, k0), sd[0, :, None], out=out.lambda_tilde)
    lam += spec.mu_lambda
    mean = lam @ spec.f_t_m.T  # p x Q, study s in its q_s columns
    np.subtract(spec.f_t_y.T, mean, out=mean)
    mean *= spec.k_gamma_cols
    col = 0
    for s, gam in enumerate(out.gamma_tilde_s, start=1):
        q, at = gam.shape[1], p * (k0 + col)
        np.multiply(z[at:at + p * q].reshape(p, q), sd[s, :, None], out=gam)
        gam += mean[:, col:col + q]
        col += q
    return out


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
        if self.projection_weighting not in PROJECTION_WEIGHTINGS:
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

    Raises on any failure; partial results are never returned.  With a
    fixed seed, `threads` (worker threads for the draws, nothing else) never
    changes the bytes.  A different BLAS thread count may round the matrix
    products differently and so change the bytes, but not the dims, and
    `rho_lambda` and every `rho_gamma` stay within 1e-12 relative (tested at
    desk, CLI and large-p scale).
    """
    timings = {}
    t0 = time.perf_counter()
    if config.center_columns:
        dataset = dataset.center_columns()

    jic_traces = studies = None
    if config.dims is not None:
        dims = config.dims
        dims.validate_for(dataset)
    else:
        rank_cfg = RankSelectionConfig(k_max=config.k_max, tau=config.tau)
        rank_report = select_dims_report(dataset, rank_cfg,
                                         weighting=config.projection_weighting)
        dims = require_dims(rank_report, config.tau)
        jic_traces, studies = rank_report.traces, rank_report.studies
        del rank_report
    _stage_done(timings, "rank_selection", t0)

    t0 = time.perf_counter()
    # rank selection's rank-k_max eigenpairs serve the rank-k_s requests
    fe = estimate_factors(dataset, dims, weighting=config.projection_weighting,
                          studies=studies)
    studies = None  # the kept eigenpairs and Gram matrices go with the factor step
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
    """All n_mc draws, each written by `sample_draw` into its row of arrays
    allocated once."""
    n_mc, (p, k0) = config.n_mc, spec.mu_lambda.shape
    draws = DrawSet(
        lambda_tilde=np.empty((n_mc, p, k0)),
        gamma_tilde_s=tuple(np.empty((n_mc, p, q)) for q in spec.q_s),
        sigma_tilde_sq=np.empty((n_mc, p)),
    )
    root = derive_stream(config.seed, ("draw",))

    parallel_map(lambda t: sample_draw(spec, root.child(t), out=draws[t]), n_mc,
                 config.threads)
    return draws
