"""Multi-study factor analysis via spectral factor estimation and
coverage-corrected conjugate Bayesian inference."""

from .errors import (
    BlastError,
    ConfigError,
    DataError,
    DegenerateSignalError,
    DegenerateVarianceError,
    DimensionError,
    GenerationError,
    InfeasibleHyperparameterError,
    InvalidCovarianceError,
    NumericalError,
    ParameterError,
    ParseError,
    UndefinedMetricError,
)
from .evalsim import (
    MetricsReport,
    SimScenario,
    SimTruth,
    conditional_predict,
    coverage_eval,
    evaluate_fit,
    gaussian_loglik,
    generate,
    prediction_nmse,
    predictive_interval_coverage,
    procrustes_error,
    rel_fro_error,
    run_replicates,
    summarize_replicates,
)
from .numerics import RngStream, SvdFactors, derive_stream, procrustes_rotation, truncated_svd
from .posterior import (
    BlastConfig,
    BlastResult,
    CovarianceModel,
    DrawSet,
    Hyperparams,
    PosteriorDraw,
    PosteriorSpec,
    build_posterior_spec,
    estimate_hyperparams,
    fit_lambda_posterior,
    inflation_gamma,
    inflation_lambda,
    mu_gamma,
    nig_update,
    point_estimates,
    run_blast,
    sample_draw,
    study_covariance,
)
from .ranks import (
    JicTrace,
    RankReport,
    RankSelectionConfig,
    select_dims,
    select_dims_report,
    select_shared_rank,
    select_study_rank,
    surrogate_loglik,
)
from .spectral import (
    FactorEstimates,
    LatentDims,
    MultiStudyDataset,
    estimate_factors,
    shared_basis,
    shared_factors,
    specific_factors,
    study_right_basis,
)

__version__ = "0.1.0"
