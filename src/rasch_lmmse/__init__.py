"""Linear MMSE estimation for the Rasch model from one-bit responses.

The package provides exact linear-MMSE and least-squares estimators for
probit sign observations, closed-form MSE expressions for the Rasch
design, posterior-mean / MAP / Fisher-bound baselines, data loading, and
experiment harnesses.
"""

from .baselines import (
    FisherBound,
    GibbsConfig,
    MapConfig,
    fisher_lower_bound,
    fisher_rasch_ability_bound,
    map_fit,
    pm_exact,
    pm_exact_mse,
    pm_gibbs,
    probit_information,
)
from .data import (
    ResponseSet,
    binarize_ratings,
    load_movielens,
    load_triplets,
    save_triplets,
)
from .experiments import (
    CvConfig,
    CvResult,
    ExperimentResult,
    SyntheticConfig,
    accuracy,
    auc,
    fit_response_set,
    run_cross_validation,
    run_synthetic,
    snr_to_sigma2,
)
from .linear_probit import (
    GeneralProbitModel,
    LinearizedQuantities,
    LmmseSolution,
    linearize,
    lmmse_fit,
    lmmse_predicted_mse,
    ls_fit,
    sign_covariance,
)
from .rasch import (
    KnownDifficultyModel,
    RaschDesign,
    StructuredCyInverse,
    known_difficulty_fit,
    known_difficulty_predicted_mse,
    rasch_asymptotic_mse,
    rasch_closed_form_mse,
    rasch_design_matrix,
    rasch_fast_lmmse_fit,
    rasch_lmmse_fit,
    rasch_s,
    split_estimate,
    structured_cy_inverse,
)
from .specfun import (
    Correlation,
    binorm_cdf,
    log_norm_cdf,
    norm_cdf,
    norm_cdf_inv,
    norm_pdf,
)

__version__ = "0.1.0"

__all__ = [
    "Correlation",
    "CvConfig",
    "CvResult",
    "ExperimentResult",
    "FisherBound",
    "GeneralProbitModel",
    "GibbsConfig",
    "KnownDifficultyModel",
    "LinearizedQuantities",
    "LmmseSolution",
    "MapConfig",
    "RaschDesign",
    "ResponseSet",
    "StructuredCyInverse",
    "SyntheticConfig",
    "accuracy",
    "auc",
    "binarize_ratings",
    "binorm_cdf",
    "fisher_lower_bound",
    "fisher_rasch_ability_bound",
    "fit_response_set",
    "known_difficulty_fit",
    "known_difficulty_predicted_mse",
    "linearize",
    "lmmse_fit",
    "lmmse_predicted_mse",
    "load_movielens",
    "load_triplets",
    "log_norm_cdf",
    "ls_fit",
    "map_fit",
    "norm_cdf",
    "norm_cdf_inv",
    "norm_pdf",
    "pm_exact",
    "pm_exact_mse",
    "pm_gibbs",
    "probit_information",
    "rasch_asymptotic_mse",
    "rasch_closed_form_mse",
    "rasch_design_matrix",
    "rasch_fast_lmmse_fit",
    "rasch_lmmse_fit",
    "rasch_s",
    "run_cross_validation",
    "run_synthetic",
    "save_triplets",
    "sign_covariance",
    "snr_to_sigma2",
    "split_estimate",
    "structured_cy_inverse",
]
