"""Latent-dimension selection.

Per-study total ranks come from a penalized surrogate log-likelihood
(information criterion); the shared rank comes from the gap in the spectrum
of the averaged projector.  One SVD per study is computed and reused across
all candidate ranks, and its eigenpairs, kept on the study's
`numerics.StudyGram`, serve the basis at the chosen rank and the factor step.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSignalError, DegenerateVarianceError, DimensionError
from .numerics import StudyGram, _as_study, parallel_map, truncated_svd
from .spectral import LatentDims, MultiStudyDataset, projection_weights, shared_basis

logger = logging.getLogger(__name__)

_VAR_FLOOR = 1e-12
DEFAULT_TAU = 0.2
DEFAULT_K_MAX_CAP = 30


def _largest_k_max(min_dim):
    """Largest searched rank for a study of min(n_s, p) = min_dim: a rank of
    min_dim fits the data exactly and leaves no residual variance."""
    return max(min_dim - 1, 1)


@dataclass(frozen=True)
class RankSelectionConfig:
    """Settings for rank selection.

    k_max caps the per-study search at no more than min_s min(n_s, p) - 1,
    since a rank of min(n_s, p) leaves no residual variance (None resolves
    to min(30, min_s min(n_s, p) - 1)); tau is the spectral-gap threshold.
    """

    k_max: int | None = None
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise DimensionError(f"tau must lie in (0, 1), got {self.tau}")
        if self.k_max is not None and self.k_max < 1:
            raise DimensionError(f"k_max must be >= 1, got {self.k_max}")

    def resolve_k_max(self, dataset: MultiStudyDataset) -> int:
        cap = _largest_k_max(min(min(n, dataset.p) for n in dataset.n_s))
        if self.k_max is None:
            return min(DEFAULT_K_MAX_CAP, cap)
        if self.k_max > cap:
            raise DimensionError(
                f"k_max={self.k_max} exceeds the largest allowed value {cap} "
                f"= min_s min(n_s, p) - 1"
            )
        return self.k_max


@dataclass(frozen=True)
class JicTrace:
    """Criterion values for one study over k = 1..k_max."""

    ks: np.ndarray
    loglik: np.ndarray
    jic: np.ndarray

    def to_dict(self):
        return {
            "k": [int(k) for k in self.ks],
            "loglik": [float(v) for v in self.loglik],
            "jic": [float(v) for v in self.jic],
        }


def _study_svd_summary(y_s, k_max):
    """One truncated SVD of y_s, an array or a `StudyGram`, plus the column
    statistics reused for every k."""
    fac = truncated_svd(y_s, k_max)
    y_s = y_s.dense() if isinstance(y_s, StudyGram) else y_s
    col_sq = np.einsum("ij,ij->j", y_s, y_s)  # bit-equal to np.sum(y_s**2, axis=0)
    # energy captured by each component, per outcome: (d_l * v_jl)^2
    comp_sq = (fac.right * fac.singvals) ** 2  # p x k_max
    return fac, col_sq, comp_sq


def _loglik_at_k(n_s, p, col_sq, comp_sq, k, tau_s_sq):
    resid_sq = col_sq - comp_sq[:, :k].sum(axis=1)
    resid_sq = np.maximum(resid_sq, 0.0)
    sigma_sq = resid_sq / n_s
    if np.any(sigma_sq < _VAR_FLOOR):
        raise DegenerateVarianceError(
            f"residual variance below {_VAR_FLOOR} at k={k}; "
            "rank saturates the data"
        )
    # Loadings are shrunk by n_s / (n_s + 1/tau^2); the fitted-signal part of
    # each column keeps (1 - shrink)^2 of its energy in the residual.
    shrink = n_s / (n_s + 1.0 / tau_s_sq)
    fit_sq = comp_sq[:, :k].sum(axis=1)
    resid_full = resid_sq + (1.0 - shrink) ** 2 * fit_sq
    loglik = (
        -0.5 * n_s * np.sum(np.log(sigma_sq))
        - 0.5 * np.sum(resid_full / sigma_sq)
        - 0.5 * n_s * p * math.log(2.0 * math.pi)
    )
    return float(loglik)


def _loglik_all_k(n_s, p, col_sq, comp_sq):
    """`_loglik_at_k` at every k = 1..k_max at once, each k at its
    self-consistent prior scale: signal energy over k times the noise."""
    ks = np.arange(1, comp_sq.shape[1] + 1)
    fit_sq = np.cumsum(comp_sq, axis=1)  # p x k_max, column k-1 sums the top k
    resid_sq = np.maximum(col_sq[:, None] - fit_sq, 0.0)
    sigma_sq = resid_sq / n_s
    low = np.any(sigma_sq < _VAR_FLOOR, axis=0)
    if low.any():
        raise DegenerateVarianceError(
            f"residual variance below {_VAR_FLOOR} at k={int(np.argmax(low)) + 1}; "
            "rank saturates the data"
        )
    fit_total = np.cumsum(comp_sq.sum(axis=0))
    theta = fit_total / n_s
    omega = np.maximum((col_sq.sum() - fit_total) / n_s, 0.0)
    scaled = (omega > 0.0) & (theta > 0.0)
    tau_sq = np.where(scaled, theta / (ks * np.where(scaled, omega, 1.0)), 1.0)
    shrink = n_s / (n_s + 1.0 / tau_sq)
    resid_full = resid_sq + (1.0 - shrink) ** 2 * fit_sq
    return (
        -0.5 * n_s * np.sum(np.log(sigma_sq), axis=0)
        - 0.5 * np.sum(resid_full / sigma_sq, axis=0)
        - 0.5 * n_s * p * math.log(2.0 * math.pi)
    )


def surrogate_loglik(y_s, k, tau_s) -> float:
    """Gaussian log-likelihood at the rank-k spectral fit of one study.

    Factors are the leading-k left singular vectors scaled to norm sqrt(n_s),
    loadings their ridge conditional mean with prior scale tau_s, residual
    variances the per-outcome mean squared residual from the unshrunk
    projection.
    """
    study = _as_study(y_s, "y_s")
    n_s, p = study.shape
    if not 1 <= k <= min(n_s, p):
        raise DimensionError(f"k={k} outside [1, {min(n_s, p)}]")
    _, col_sq, comp_sq = _study_svd_summary(study, k)
    return _loglik_at_k(n_s, p, col_sq, comp_sq, k, float(tau_s) ** 2)


def select_study_rank(y_s, cfg: RankSelectionConfig):
    """Pick the per-study rank minimizing the penalized surrogate criterion.

    Ties break toward smaller k.  `y_s` is an array or a `StudyGram`, which
    keeps the eigenpairs for later requests.  Returns (k_hat, JicTrace).
    """
    study = _as_study(y_s, "y_s")
    n_s, p = study.shape
    cap = _largest_k_max(min(n_s, p))
    k_max = min(cfg.k_max if cfg.k_max is not None else DEFAULT_K_MAX_CAP, cap)
    _, col_sq, comp_sq = _study_svd_summary(study, k_max)

    ks = np.arange(1, k_max + 1)
    loglik = _loglik_all_k(n_s, p, col_sq, comp_sq)
    jic = -2.0 * loglik + ks * max(n_s, p) * math.log(min(n_s, p))
    k_hat = int(ks[np.argmin(jic)])  # argmin returns the first (smallest) k
    return k_hat, JicTrace(ks=ks, loglik=loglik, jic=jic)


def select_shared_rank(p_tilde_spectrum, k_hat_s, tau) -> int:
    """Count the leading averaged-projector singular values above 1 - tau.

    The count is capped at min_s k_hat_s.  Returns 0 when even the top value
    sits at or below the threshold (no shared structure).
    """
    spectrum = np.asarray(p_tilde_spectrum, dtype=np.float64)
    if spectrum.size == 0:
        raise DimensionError("empty spectrum")
    if not 0.0 < tau < 1.0:
        raise DimensionError(f"tau must lie in (0, 1), got {tau}")
    j_max = min(int(min(k_hat_s)), spectrum.size)
    return int(np.sum(spectrum[:j_max] > 1.0 - tau))


@dataclass(frozen=True)
class RankReport:
    """Everything rank selection produced; dims is None when no shared
    structure was found (k0 = 0); `studies` serve `estimate_factors`."""

    k0: int
    k_hat_s: tuple
    q_s: tuple
    traces: tuple
    spectrum: np.ndarray
    k_max: int
    studies: tuple = field(repr=False)

    @property
    def dims(self):
        if self.k0 == 0:
            return None
        return LatentDims(k0=self.k0, k_s=self.k_hat_s, q_s=self.q_s)


def select_dims(dataset: MultiStudyDataset, cfg: RankSelectionConfig, weighting="uniform",
                threads=1) -> LatentDims:
    """Full selection: per-study ranks, then the shared rank, then q_s."""
    report = select_dims_report(dataset, cfg, weighting=weighting, threads=threads)
    return require_dims(report, cfg.tau)


def require_dims(report: RankReport, tau) -> LatentDims:
    """The selected dims; DegenerateSignalError when no shared structure was
    found (k0 = 0)."""
    if report.dims is None:
        raise DegenerateSignalError(
            f"no shared structure: top averaged-projector singular value "
            f"{report.spectrum[0]:.4f} <= 1 - tau = {1.0 - tau:.4f}"
        )
    return report.dims


def select_dims_report(dataset: MultiStudyDataset, cfg: RankSelectionConfig,
                       weighting="uniform", threads=1) -> RankReport:
    """Like select_dims but returns the full trace, including the k0 = 0 case."""
    weights = projection_weights(dataset, weighting)
    k_max = cfg.resolve_k_max(dataset)
    eff_cfg = RankSelectionConfig(k_max=k_max, tau=cfg.tau)
    studies = tuple(StudyGram(y) for y in dataset.studies)

    def one_study(s):
        k_hat, trace = select_study_rank(studies[s], eff_cfg)
        # a second SVD, at the chosen rank, slices the eigenpairs of the first
        fac = truncated_svd(studies[s], k_hat)
        return k_hat, trace, fac.right

    results = parallel_map(one_study, dataset.n_studies, threads)
    k_hat_s = [r[0] for r in results]
    traces = [r[1] for r in results]
    bases = [r[2] for r in results]
    for s, k_hat in enumerate(k_hat_s):
        if k_hat == k_max:
            logger.warning("event=k_max_saturated study=%d k_hat=%d k_max=%d", s, k_hat, k_max)

    _, spectrum = shared_basis(bases, 1, weights=weights)
    k0 = select_shared_rank(spectrum, k_hat_s, eff_cfg.tau)
    if k0 == 0:
        logger.warning("event=no_shared_structure top_singval=%.4f threshold=%.4f",
                       spectrum[0], 1.0 - eff_cfg.tau)
    # select_shared_rank caps k0 at min(k_hat_s), so no q_s is negative
    return RankReport(k0=k0, k_hat_s=tuple(k_hat_s), q_s=tuple(k - k0 for k in k_hat_s),
                      traces=tuple(traces), spectrum=spectrum, k_max=k_max, studies=studies)
