"""Transfer learning for regression with block-mismatched covariates."""

from .core import (CapacityError, ConfigError, ConvergenceError, DataError,
                   Dataset, DimensionError, HeterotlError, IncompatibleError,
                   InvalidValueError, SupportError, TLFit, TruthRecord,
                   l1_estimation_error, mean_absolute_prediction_error,
                   read_dataset_csv, rmse, write_dataset_csv)
from .estimators import (HtlModel, bootstrap_refit, fit_homogeneous,
                         fit_htl, fit_proxy_coefficients, fit_target_lasso,
                         load_model, oracle_predict, predict, save_model)
from .feature_map import (FeatureMapModel, average_maps, fit_linear_map,
                          fit_sieve_map, impute, map_discrepancy)
from .penalized_reg import (LassoSettings, SolveDiagnostics, cv_lambda,
                            kkt_check, lasso, lasso_with_offset,
                            null_threshold, soft_threshold)
from .sieve_basis import (BasisIndexSet, admissible_count,
                          default_truncation, expand, phi, unravel)
from .simulation import MetricsReport, SimConfig, run_replications

__version__ = "0.1.0"

__all__ = [
    "BasisIndexSet", "CapacityError", "ConfigError", "ConvergenceError",
    "DataError", "Dataset", "DimensionError", "FeatureMapModel",
    "HeterotlError", "HtlModel", "IncompatibleError", "InvalidValueError",
    "LassoSettings", "MetricsReport", "SimConfig", "SolveDiagnostics",
    "SupportError", "TLFit", "TruthRecord", "admissible_count",
    "average_maps", "bootstrap_refit", "cv_lambda", "default_truncation",
    "expand", "fit_homogeneous", "fit_htl", "fit_linear_map",
    "fit_proxy_coefficients", "fit_sieve_map", "fit_target_lasso", "impute",
    "kkt_check", "l1_estimation_error", "lasso", "lasso_with_offset",
    "load_model", "map_discrepancy", "mean_absolute_prediction_error",
    "null_threshold", "oracle_predict", "phi", "predict", "read_dataset_csv",
    "rmse", "run_replications", "save_model", "soft_threshold", "unravel",
    "write_dataset_csv",
]
