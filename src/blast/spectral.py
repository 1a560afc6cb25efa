"""Spectral estimation of shared and study-specific latent factors.

Given per-study data matrices Y_s (n_s x p), the estimator proceeds in four
steps: (1) per-study right singular bases V_s; (2) the averaged projector
P-tilde = (1/S) sum_s V_s V_s^T, whose leading singular vectors V-bar span the
shared directions; (3) study-specific factors from Y_s with the shared
directions projected out; (4) shared factors from the stacked matrices with
the study-specific factors regressed out.  Projectors are always represented
by their orthonormal bases, never as p x p matrices.  Every SVD goes
through its input's short-side Gram matrix (`numerics.truncated_svd`).  The
per-study and basis SVDs form it.  The specific-factor SVD of step (3)
forms neither Y_s with the shared directions projected out nor its Gram
matrix: it works on a `numerics.ProjectedStudy`, whose Gram matrix is a
rank-k0 downdate of the study's own.  The shared-factor SVD of step (4)
forms neither the stacked n x p matrix nor its Gram matrix: it works on a
`numerics.ProjectedStack`, through products that read each study once.
Each study is decomposed once, on its `numerics.StudyGram`: in `run_blast`,
step (1) slices the eigenpairs that rank selection kept there (or forms them
when the dims are given), and step (3) downdates the kept Gram matrix.
Step (4) keeps each study's U_s^T Y_s, which is all the posterior reads of
the specific factors against the data.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, DegenerateSignalError, DimensionError, NumericalError,
                     ParameterError)
from .numerics import (ProjectedStack, ProjectedStudy, StudyGram, _as_study, _check_matrix,
                       truncated_svd)

_RANK_TOL = 1e-12
# the names `projection_weights` decides
PROJECTION_WEIGHTINGS = ("uniform", "by_n")


@dataclass(frozen=True)
class MultiStudyDataset:
    """Ordered per-study observation matrices over a common outcome set."""

    studies: tuple
    outcome_names: tuple | None = None

    def __post_init__(self):
        studies = tuple(_check_matrix(y, f"study {s}") for s, y in enumerate(self.studies))
        if len(studies) < 1:
            raise DataError("dataset needs at least one study")
        p = studies[0].shape[1]
        if p < 2:
            raise DataError(f"need at least 2 outcomes, got p={p}")
        for s, y in enumerate(studies):
            if y.shape[1] != p:
                raise DimensionError(
                    f"study {s} has p={y.shape[1]}, expected {p} (all studies share outcomes)"
                )
            if y.shape[0] < 2:
                raise DataError(f"study {s} has n_s={y.shape[0]} < 2")
        if self.outcome_names is not None:
            names = tuple(self.outcome_names)
            if len(names) != p:
                raise DimensionError(f"{len(names)} outcome names for p={p} outcomes")
            object.__setattr__(self, "outcome_names", names)
        object.__setattr__(self, "studies", studies)

    @property
    def n_studies(self):
        return len(self.studies)

    @property
    def n_s(self):
        return tuple(y.shape[0] for y in self.studies)

    @property
    def n_total(self):
        return sum(self.n_s)

    @property
    def p(self):
        return self.studies[0].shape[1]

    def center_columns(self) -> "MultiStudyDataset":
        """Return a copy with per-study column means removed."""
        return MultiStudyDataset(
            tuple(y - y.mean(axis=0, keepdims=True) for y in self.studies),
            self.outcome_names,
        )


@dataclass(frozen=True)
class LatentDims:
    """Shared rank k0 plus per-study total (k_s) and specific (q_s) ranks."""

    k0: int
    k_s: tuple
    q_s: tuple

    def __post_init__(self):
        object.__setattr__(self, "k_s", tuple(int(k) for k in self.k_s))
        object.__setattr__(self, "q_s", tuple(int(q) for q in self.q_s))
        if self.k0 < 1:
            raise DimensionError(f"k0 must be >= 1, got {self.k0}")
        if len(self.k_s) != len(self.q_s):
            raise DimensionError("k_s and q_s must have one entry per study")
        for s, (k, q) in enumerate(zip(self.k_s, self.q_s)):
            if q != k - self.k0 or q < 0:
                raise DimensionError(
                    f"study {s}: need q_s = k_s - k0 >= 0, got k0={self.k0} k_s={k} q_s={q}"
                )

    @classmethod
    def from_ranks(cls, k0, k_s):
        return cls(k0=int(k0), k_s=tuple(k_s), q_s=tuple(int(k) - int(k0) for k in k_s))

    def validate_for(self, dataset: MultiStudyDataset):
        if len(self.k_s) != dataset.n_studies:
            raise DimensionError(
                f"dims describe {len(self.k_s)} studies, dataset has {dataset.n_studies}"
            )
        for s, (k, n) in enumerate(zip(self.k_s, dataset.n_s)):
            if k > min(n, dataset.p):
                raise DimensionError(
                    f"study {s}: k_s={k} exceeds min(n_s, p)={min(n, dataset.p)}"
                )


@dataclass(frozen=True)
class FactorEstimates:
    """Estimator outputs: factors, the SVD pieces of the stacked shared-signal
    matrix y_c, and the two statistics of y_c that the posterior reads.

    m_hat = sqrt(n) times the leading left singular vectors of y_c, so
    m_hat^T m_hat = n I_k0 exactly; f_hat_s = sqrt(n_s) u_perp_s likewise.
    m_hat_s^T f_hat_s = 0 by construction, and is checked here: the
    posterior relies on it.  The n x p y_c itself is never
    formed, unless its SVD declines the product route (see
    `numerics.truncated_svd`), and is never kept.  w_s holds each study's
    u_perp_s^T Y_s, so f_hat_s^T Y_s = sqrt(n_s) w_s without another pass
    over the study.
    """

    m_hat: np.ndarray                # n x k0, stacked shared factors
    m_hat_s: tuple                   # per-study n_s x k0 blocks of m_hat
    f_hat_s: tuple                   # per-study n_s x q_s specific factors
    yc_col_sq: np.ndarray            # p, column sums of squares of y_c
    yc_t_m: np.ndarray               # p x k0, y_c^T m_hat
    d_c: np.ndarray                  # k0 nonincreasing singular values
    v_c: np.ndarray                  # p x k0
    u_perp_s: tuple                  # per-study n_s x q_s
    p_tilde_spectrum: np.ndarray     # singular values of the averaged projector
    w_s: tuple = field(repr=False)   # per-study q_s x p, u_perp_s^T Y_s
    n_s: tuple = field(default=())

    def __post_init__(self):
        for s, (m_hat_s, f_hat_s) in enumerate(zip(self.m_hat_s, self.f_hat_s)):
            cross = np.max(np.abs(m_hat_s.T @ f_hat_s), initial=0.0)
            if not cross <= 1e-8 * np.sqrt(self.m_hat.shape[0] * f_hat_s.shape[0]):
                raise NumericalError(f"study {s}: specific factors are not orthogonal to the "
                                     f"shared ones (max |m_hat_s^T f_hat_s| = {cross:.3g})")

    @property
    def n_total(self):
        return sum(self.n_s)


def study_right_basis(y_s, k_s) -> np.ndarray:
    """Leading-k_s right singular vectors of one study (p x k_s).

    The projection P_s = V_s V_s^T is represented by this basis only.  `y_s`
    is an array or a `StudyGram`.
    """
    fac = truncated_svd(_as_study(y_s, "y_s"), k_s)
    if fac.singvals[-1] < _RANK_TOL * max(fac.singvals[0], _RANK_TOL):
        raise DegenerateSignalError(
            f"singular value {k_s} of the study matrix is numerically zero; "
            f"rank below the requested k_s={k_s}"
        )
    return fac.right


def shared_basis(bases, k0, weights=None):
    """Shared directions from averaged per-study projectors.

    Factorizes P-tilde = sum_s w_s V_s V_s^T = W W^T through the p x (sum k_s)
    concatenation W of the weight-scaled bases, so its singular values come
    from s_j(W)^2 without forming any p x p matrix.  Returns (v_bar, spectrum)
    with v_bar the leading-k0 singular vectors and `spectrum` the full
    singular-value spectrum of P-tilde.
    """
    bases = [_check_matrix(v, f"basis {s}") for s, v in enumerate(bases)]
    p = bases[0].shape[0]
    for s, v in enumerate(bases):
        if v.shape[0] != p:
            raise DimensionError(f"basis {s} has p={v.shape[0]}, expected {p}")
    min_k = min(v.shape[1] for v in bases)
    if not 1 <= k0 <= min_k:
        raise DimensionError(f"k0={k0} exceeds the smallest basis rank {min_k}")
    if weights is None:
        weights = np.full(len(bases), 1.0 / len(bases))
    else:
        weights = np.asarray(weights, dtype=np.float64)
        weights = weights / weights.sum()
    w = np.hstack([np.sqrt(wt) * v for wt, v in zip(weights, bases)])
    full = min(w.shape)
    fac = truncated_svd(w, full)
    spectrum = fac.singvals**2
    v_bar = fac.left[:, :k0]
    return v_bar, spectrum


def specific_factors(y_s, v_bar, q_s):
    """Specific factors of one study after removing the shared directions.

    Decomposes Y_s with its shared-span component projected out, as a
    `ProjectedStudy` (a downdate of the Gram matrix that `y_s` keeps, if
    it is a `StudyGram`), and returns (f_hat_s, u_perp_s) where
    f_hat_s = sqrt(n_s) u_perp_s holds the leading q_s left singular
    vectors.  q_s = 0 yields empty (n_s x 0) factors.
    """
    study = _as_study(y_s, "y_s")
    v_bar = _check_matrix(v_bar, "v_bar")
    n_s, p = study.shape
    if p != v_bar.shape[0]:
        raise DimensionError(f"y_s has p={p} but v_bar has p={v_bar.shape[0]}")
    if q_s == 0:
        empty = np.zeros((n_s, 0))
        return empty, empty
    fac = truncated_svd(ProjectedStudy(study, v_bar), q_s)
    # degeneracy is judged against the scale of the input, not the residual
    scale = max(float(np.linalg.norm(study.y)), _RANK_TOL)
    if fac.singvals[-1] < _RANK_TOL * scale:
        raise DegenerateSignalError(
            f"residual signal after removing shared directions has rank < q_s={q_s}"
        )
    u_perp = fac.left
    return np.sqrt(n_s) * u_perp, u_perp


def shared_factors(dataset: MultiStudyDataset, u_perp_s, k0):
    """Shared factors from the stacked studies with specific factors removed.

    The shared-signal matrix y_c stacks each study's Y_s minus its
    projection onto u_perp_s.  It is decomposed once, as a
    `ProjectedStack`, and m_hat = sqrt(n) u_c, with u_c its leading-k0 left
    singular vectors.  The posterior needs only two statistics of y_c, and
    both are taken from the stack.  Returns (m_hat, m_hat_s, yc_col_sq,
    yc_t_m, d_c, v_c, w_s) with yc_col_sq the column sums of squares of y_c,
    yc_t_m = y_c^T m_hat and w_s the stack's u_perp_s^T Y_s per study.
    """
    n = dataset.n_total
    y_c = ProjectedStack(dataset.studies, u_perp_s)
    fac = truncated_svd(y_c, k0)
    if fac.singvals[-1] < _RANK_TOL * max(fac.singvals[0], _RANK_TOL):
        raise DegenerateSignalError(f"shared-signal matrix has numerical rank < k0={k0}")
    m_hat = np.sqrt(n) * fac.left
    m_hat_s = _split_rows(m_hat, dataset.n_s)
    return m_hat, m_hat_s, y_c.col_sq(), y_c.tdot(m_hat), fac.singvals, fac.right, y_c.coefs


def _split_rows(stacked, n_s):
    offsets = np.cumsum((0,) + tuple(n_s))
    return tuple(stacked[offsets[s] : offsets[s + 1]] for s in range(len(n_s)))


def projection_weights(dataset: MultiStudyDataset, weighting):
    """Study weights of the averaged projector for `shared_basis`: None
    (equal weights) for "uniform", sample-size shares for "by_n"."""
    if weighting not in PROJECTION_WEIGHTINGS:
        raise ParameterError(f"unknown projection weighting {weighting!r}")
    if weighting == "uniform":
        return None
    return np.asarray(dataset.n_s, dtype=np.float64) / dataset.n_total


def estimate_factors(
    dataset: MultiStudyDataset,
    dims: LatentDims,
    weighting="uniform",
    studies=None,
) -> FactorEstimates:
    """Run the full four-step factor estimator.

    `weighting` selects uniform projector averaging (default) or sample-size
    weighting ("by_n").  `studies` holds the `StudyGram` of each study, as
    `RankReport.studies`; None builds them.
    """
    dims.validate_for(dataset)
    weights = projection_weights(dataset, weighting)
    if studies is None:
        studies = tuple(StudyGram(y) for y in dataset.studies)

    bases = [study_right_basis(study, k) for study, k in zip(studies, dims.k_s)]
    v_bar, spectrum = shared_basis(bases, dims.k0, weights=weights)
    specific = [specific_factors(study, v_bar, q) for study, q in zip(studies, dims.q_s)]
    f_hat_s = tuple(f for f, _ in specific)
    u_perp_s = tuple(u for _, u in specific)
    m_hat, m_hat_s, yc_col_sq, yc_t_m, d_c, v_c, w_s = shared_factors(dataset, u_perp_s,
                                                                      dims.k0)
    return FactorEstimates(
        m_hat=m_hat,
        m_hat_s=m_hat_s,
        f_hat_s=f_hat_s,
        yc_col_sq=yc_col_sq,
        yc_t_m=yc_t_m,
        d_c=d_c,
        v_c=v_c,
        u_perp_s=u_perp_s,
        p_tilde_spectrum=spectrum,
        w_s=w_s,
        n_s=dataset.n_s,
    )
