"""Nested cross-validation, grid search, multi-seed evaluation, and greedy
forward feature selection.

Fold assignment is a pure function of the sorted model ids and the seed:
ids are shuffled with the package's counter-based generator and dealt
round-robin, so any two runs (or implementations honoring the same PRNG)
produce identical splits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import baselines
from .gbtree import GBTConfig, TreeEnsemble, fit_gbt, fit_gbt_batch
from .metrics import mae
from .prng import PRNG_ID, CounterRng
from .registry import Dataset, FeatureMatrix, encode_features

PREDICTOR_KINDS = ("median", "log_linear", "power_law", "gbt")
SCALING_FEATURES = ("total_params", "total_tokens_billions")


@dataclass(frozen=True)
class CVPlan:
    outer_folds: int = 3
    inner_folds: int = 3
    seed: int = 0

    def with_seed(self, seed: int) -> "CVPlan":
        return CVPlan(self.outer_folds, self.inner_folds, seed)


def fold_assignment(model_ids, seed: int, n_folds: int) -> dict[str, int]:
    """Deterministic partition into folds of near-equal size."""
    ids = sorted(model_ids)
    rng = CounterRng(seed)
    rng.shuffle(ids)
    return {m: i % n_folds for i, m in enumerate(ids)}


@dataclass
class CVResult:
    task_id: str
    feature_names: tuple[str, ...]
    predictor_kind: str
    seed: int
    predictions: dict[str, float]  # out-of-fold, one per model
    mae: float
    fold_assignment: dict[str, int]
    fold_configs: list[dict]  # chosen hyperparameters per outer fold (gbt only)
    prng: str = PRNG_ID

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "feature_names": list(self.feature_names),
            "predictor_kind": self.predictor_kind,
            "seed": self.seed,
            "predictions": {k: self.predictions[k] for k in sorted(self.predictions)},
            "mae": self.mae,
            "fold_assignment": {k: self.fold_assignment[k] for k in sorted(self.fold_assignment)},
            "fold_configs": self.fold_configs,
            "prng": self.prng,
        }


def scale_points(dataset: Dataset) -> list[baselines.ScalePoint]:
    """One point per model: parameter count N, token count D and the score."""
    return [
        baselines.ScalePoint(r.arch.total_params, r.data.total_tokens_billions * 1e9, float(v))
        for r, v in zip(dataset.records, dataset.values)
    ]


def grid_search(train_X: FeatureMatrix, train_y: np.ndarray, grid: list[GBTConfig],
                inner_folds: int, seed: int) -> GBTConfig:
    """Pick the config minimizing mean inner-CV MAE.

    Ties break by (smaller n_trees, smaller max_depth, smaller rate).
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    n = len(train_X.model_ids)
    if n < inner_folds:
        raise ValueError("training split smaller than inner_folds")
    assign = fold_assignment(train_X.model_ids, seed, inner_folds)
    folds = np.array([assign[m] for m in train_X.model_ids])

    # boosting is stagewise, so an n_trees=k ensemble is a prefix of the
    # n_trees=m>k one; share fits across the tree-count axis of the grid
    groups: dict[GBTConfig, list[tuple[int, int]]] = {}
    for gi, c in enumerate(grid):
        groups.setdefault(replace(c, n_trees=0), []).append((c.n_trees, gi))

    # the prototypes share each inner fold's training rows, so each fold
    # fits them as one lockstep batch
    protos = [replace(shape, n_trees=max(nt for nt, _ in members))
              for shape, members in groups.items()]
    preds_by_config = {gi: np.empty(n) for gi in range(len(grid))}
    for f in range(inner_folds):
        test = folds == f
        fits = fit_gbt_batch(train_X.values[~test], train_y[~test], protos,
                             column_names=train_X.column_names)
        for members, ens in zip(groups.values(), fits):
            staged = ens.staged_predict(train_X.values[test])
            for nt, gi in members:
                preds_by_config[gi][test] = staged[:, nt]
    scored = [
        (mae(preds_by_config[gi], train_y), c.n_trees, c.max_depth, c.learning_rate, gi)
        for gi, c in enumerate(grid)
    ]
    scored.sort()
    return grid[scored[0][4]]


def fit_tuned(X: FeatureMatrix, y: np.ndarray, grid: list[GBTConfig], inner_folds: int,
              seed: int) -> tuple[GBTConfig, TreeEnsemble]:
    """Grid-search on ``X``, then refit the winning config on all of ``X``."""
    best = grid_search(X, y, grid, inner_folds, seed)
    return best, fit_gbt(X.values, y, best, column_names=X.column_names)


def run_cv(dataset: Dataset, feature_names, predictor_kind: str, plan: CVPlan,
           grid: list[GBTConfig] | None = None) -> CVResult:
    """Outer CV with per-fold nested hyperparameter search for the gbt kind.

    Baseline kinds fit directly on each outer training split. MAE pools the
    out-of-fold predictions across all folds.
    """
    if predictor_kind not in PREDICTOR_KINDS:
        raise ValueError(f"unknown predictor kind: {predictor_kind}")
    n = len(dataset)
    if n < 3 * plan.outer_folds:
        raise ValueError("too few rows for the outer fold count")
    if predictor_kind == "gbt" and not grid:
        raise ValueError("gbt requires a nonempty grid")

    assign = fold_assignment(dataset.model_ids, plan.seed, plan.outer_folds)
    folds = np.array([assign[m] for m in dataset.model_ids])
    X = encode_features(dataset, list(feature_names)) if predictor_kind == "gbt" else None
    points = scale_points(dataset)

    preds = np.empty(n)
    fold_configs: list[dict] = []
    for f in range(plan.outer_folds):
        test = folds == f
        train_idx = np.nonzero(~test)[0]
        test_idx = np.nonzero(test)[0]
        y_train = dataset.values[train_idx]
        if predictor_kind == "median":
            preds[test_idx] = baselines.median_predictor(y_train)
        elif predictor_kind == "log_linear":
            a, b, c = baselines.fit_log_linear([points[i] for i in train_idx])
            for i in test_idx:
                preds[i] = a + b * np.log10(points[i].N) + c * np.log10(points[i].D)
        elif predictor_kind == "power_law":
            params, _ = baselines.fit_power_law([points[i] for i in train_idx],
                                                dataset.task.polarity)
            for i in test_idx:
                preds[i] = baselines.predict_power_law_score(
                    params, points[i].N, points[i].D, dataset.task.polarity)
        else:
            best, ens = fit_tuned(X.subset_rows(train_idx), y_train, grid, plan.inner_folds,
                                  plan.seed)
            preds[test_idx] = ens.predict(X.values[test_idx])
            fold_configs.append(asdict(best))

    return CVResult(
        task_id=dataset.task.task_id,
        feature_names=tuple(feature_names),
        predictor_kind=predictor_kind,
        seed=plan.seed,
        predictions={m: float(preds[i]) for i, m in enumerate(dataset.model_ids)},
        mae=mae(preds, dataset.values),
        fold_assignment=assign,
        fold_configs=fold_configs,
    )


def multi_seed_mae(dataset: Dataset, feature_names, predictor_kind: str, seeds,
                   grid: list[GBTConfig] | None = None,
                   plan: CVPlan | None = None) -> list[float]:
    """One pooled out-of-fold MAE per seed, in seed order."""
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    plan = plan or CVPlan()
    return [run_cv(dataset, feature_names, predictor_kind, plan.with_seed(s), grid).mae
            for s in seeds]


@dataclass
class SelectionStep:
    added_feature: str
    mean_mae_after: float
    improvement: float


@dataclass
class SelectionTrace:
    base_features: tuple[str, ...]
    base_mae: float
    steps: list[SelectionStep] = field(default_factory=list)

    @property
    def final_features(self) -> tuple[str, ...]:
        return self.base_features + tuple(s.added_feature for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "base_features": list(self.base_features),
            "base_mae": self.base_mae,
            "steps": [
                {"added_feature": s.added_feature, "mean_mae_after": s.mean_mae_after,
                 "improvement": s.improvement}
                for s in self.steps
            ],
            "final_features": list(self.final_features),
            "prng": PRNG_ID,
        }


def greedy_select(dataset: Dataset, candidate_features, plan: CVPlan,
                  grid: list[GBTConfig], selection_seeds, tol: float = 1e-4) -> SelectionTrace:
    """Forward selection starting from the two scale features.

    Each step scores base + candidate by mean MAE over the selection seeds
    (full outer-CV protocol per seed) and keeps the best candidate while the
    improvement is at least ``tol``. Candidate ties break lexicographically.
    """
    if len(selection_seeds) == 0:
        raise ValueError("greedy selection needs at least one seed")
    candidates = list(candidate_features)
    for f in SCALING_FEATURES:
        if f in candidates:
            raise ValueError(f"candidates must exclude the scale feature {f!r}")

    def score(features) -> float:
        return float(np.mean(multi_seed_mae(dataset, features, "gbt", selection_seeds,
                                            grid, plan)))

    selected = list(SCALING_FEATURES)
    current = score(selected)
    trace = SelectionTrace(tuple(selected), current)
    remaining = sorted(candidates)
    while remaining:
        results = [(score(selected + [c]), c) for c in remaining]
        best_mae, best_feat = min(results)
        improvement = current - best_mae
        if improvement < tol:
            break
        trace.steps.append(SelectionStep(best_feat, best_mae, improvement))
        selected.append(best_feat)
        remaining.remove(best_feat)
        current = best_mae
    return trace
