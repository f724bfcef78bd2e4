"""Time the four library calls of the ROADMAP's ad-hoc baseline table, once each.

    python3 perfbench/roadmap_baseline.py

Input: ``GenSpec(n_models=92, noise_sigma=0.02, missing_rate=0.2)``, seed 0,
paper grid, 3x3 nested CV. These sizes are too slow for a benchmark run
(the all-features CV alone takes minutes), so this script only reconciles
the benchmark's scaled workloads with the table; see BASELINE.md.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from perfpred import registry, shapley  # noqa: E402
from perfpred.gbtree import GBTConfig, fit_gbt, paper_grid  # noqa: E402
from perfpred.pipeline import SCALING_FEATURES, CVPlan, run_cv  # noqa: E402
from perfpred.synthdata import GenSpec, synth_dataset  # noqa: E402


def timed(label, fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    print(f"{label:<48} {time.perf_counter() - t:8.2f} s", flush=True)
    return out


def main() -> int:
    dataset, _ = synth_dataset(GenSpec(n_models=92, noise_sigma=0.02, missing_rate=0.2), 0)
    features = registry.all_feature_names()
    X = registry.encode_features(dataset, features)
    print(f"{len(dataset)} models x {X.values.shape[1]} encoded columns, "
          f"{int((~X.missing_mask).any(axis=0).sum())} with any value")
    timed("run_cv, all features", run_cv, dataset, features, "gbt", CVPlan(seed=0), paper_grid())
    timed("run_cv, scale-only", run_cv, dataset, list(SCALING_FEATURES), "gbt", CVPlan(seed=0),
          paper_grid())
    ens = timed("fit_gbt, all features, depth 5, 100 trees", fit_gbt, X.values, dataset.values,
                GBTConfig(5, 0.1, 100), X.missing_mask, X.column_names)
    timed("shap_matrix, 92 rows, same ensemble", shapley.shap_matrix, ens, X)
    return 0


if __name__ == "__main__":
    sys.exit(main())
