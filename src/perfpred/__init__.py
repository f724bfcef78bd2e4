"""Predict LM benchmark performance from documented design decisions."""

from .baselines import PowerLawParams, ScalePoint, eval_power_law, fit_log_linear, fit_power_law, median_predictor
from .gbtree import GBTConfig, TreeEnsemble, fit_gbt, paper_grid
from .metrics import accuracy, brier, mae, r_squared
from .pipeline import CVPlan, CVResult, SelectionTrace, fit_tuned, greedy_select, grid_search, multi_seed_mae, run_cv, run_cv_requests, run_cv_seeds
from .registry import (
    Dataset,
    FeatureMatrix,
    ModelRecord,
    Registry,
    RegistryError,
    ScoreRecord,
    TaskSpec,
    encode_features,
    join_scores,
    load_registry,
    load_scores,
)
from .shapley import shap_dependence, shap_matrix, shap_summary, tree_shap
from .stats import bh_fdr, cohen_kappa, mean_ci95, paired_t_test, pearson
from .metabias import MetaResult, TaskEffect, estimate_contrast, peese, pet, pet_peese

__version__ = "0.1.0"
