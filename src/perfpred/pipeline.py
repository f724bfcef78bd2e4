"""Nested cross-validation, grid search, multi-seed evaluation, and greedy
forward feature selection.

Fold assignment is a pure function of the sorted model ids and the seed:
ids are shuffled with the package's counter-based generator and dealt
round-robin, so any two runs (or implementations honoring the same PRNG)
produce identical splits.

A GBT nested CV runs through ``gbtree.staged_batch`` in lockstep batches
that keep no trees, only the predictions of their held-out rows.
``run_cv_requests`` takes many requests, each a (dataset, feature list,
seeds). It grid-searches each request on its own, as many of its seeds
per batch as ``BATCH_CELLS`` admits, fitting every prototype config on
every inner training split. Then it refits the winner of every outer
split of every request together, in one shared batch whenever
``BATCH_CELLS`` admits it. A request that raises a ``ValueError`` gets it
in its result slot and no refits; the others go on. ``run_cv_seeds`` and
``run_cv`` are its one-request cases, which raise that error, and each
result is byte-equal to ``run_cv`` of that request and seed alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import baselines
from .gbtree import GBTConfig, TreeEnsemble, fit_gbt, staged_batch
from .metrics import mae
from .prng import PRNG_ID, CounterRng
from .registry import Dataset, FeatureMatrix, encode_features

PREDICTOR_KINDS = ("median", "log_linear", "power_law", "gbt")
# cells of a batch: (fit, column, training row) of grid-search fits, (fit, stacked row) of refits
BATCH_CELLS = 1 << 17
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
    return _grid_search_batch(train_X, train_y, [np.arange(len(train_y))], grid, inner_folds,
                              [seed])[0]


def _grid_search_batch(X: FeatureMatrix, y: np.ndarray, trains: list[np.ndarray],
                       grid: list[GBTConfig], inner_folds: int,
                       seeds: list[int]) -> list[GBTConfig]:
    """``grid_search`` on each training split ``trains[s]`` (ascending row
    indices of ``X``) with inner folds drawn by ``seeds[s]``, every fit of
    every split in one lockstep batch that keeps only its staged
    predictions of its inner test rows."""
    if not grid:
        raise ValueError("empty hyperparameter grid")
    # boosting is stagewise, so an n_trees=k ensemble is a prefix of the
    # n_trees=m>k one; share fits across the tree-count axis of the grid
    groups: dict[GBTConfig, list[tuple[int, int]]] = {}
    for gi, c in enumerate(grid):
        groups.setdefault(replace(c, n_trees=0), []).append((c.n_trees, gi))
    protos = [replace(shape, n_trees=max(nt for nt, _ in members))
              for shape, members in groups.items()]

    tests, rows, held = [], [], []  # (split, its inner test rows); each prototype's rows
    for s, (train, seed) in enumerate(zip(trains, seeds)):
        if len(train) < inner_folds:
            raise ValueError("training split smaller than inner_folds")
        ids = [X.model_ids[i] for i in train]
        assign = fold_assignment(ids, seed, inner_folds)
        folds = np.array([assign[m] for m in ids])
        for f in range(inner_folds):
            tests.append((s, folds == f))
            rows += [train[folds != f]] * len(protos)
            held += [train[folds == f]] * len(protos)
    stages = [[nt for nt, _ in members] for members in groups.values()]
    staged = iter(staged_batch(X.values, y, protos * len(tests), rows, held,
                               stages * len(tests)))
    preds = [np.empty((len(grid), len(train))) for train in trains]
    for s, test in tests:
        for members, st in zip(groups.values(), staged):
            for j, (_, gi) in enumerate(members):
                preds[s][gi, test] = st[:, j]
    best = []
    for pred, train in zip(preds, trains):
        scored = [(mae(pred[gi], y[train]), c.n_trees, c.max_depth, c.learning_rate, gi)
                  for gi, c in enumerate(grid)]
        scored.sort()
        best.append(grid[scored[0][4]])
    return best


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
    return run_cv_seeds(dataset, feature_names, predictor_kind, [plan.seed], grid, plan)[0]


def run_cv_seeds(dataset: Dataset, feature_names, predictor_kind: str, seeds,
                 grid: list[GBTConfig] | None = None,
                 plan: CVPlan | None = None) -> list[CVResult]:
    """``run_cv`` under ``plan``'s fold counts (default ``CVPlan()``) for
    each of ``seeds``, which must be distinct, in seed order. ``plan.seed``
    is not read: ``seeds`` take its place. The one-request case of
    ``run_cv_requests``, raising its request's ``ValueError``.
    """
    (results,) = run_cv_requests([(dataset, feature_names, seeds)], predictor_kind, grid, plan)
    if isinstance(results, ValueError):
        raise results
    return results


def run_cv_requests(requests, predictor_kind: str, grid: list[GBTConfig] | None = None,
                    plan: CVPlan | None = None) -> list[list[CVResult] | ValueError]:
    """``run_cv_seeds`` of each request ``(dataset, feature_names, seeds)``,
    in request order; a request that raises gets its ``ValueError`` in its
    place, and no refits. An unknown kind, or gbt without a grid, raises
    for the call.

    The gbt kind grid-searches each request on its own, as many of its
    seeds in one lockstep batch as ``BATCH_CELLS`` admits. The winners of
    every outer split of every request are then refitted together, in as
    few batches as ``BATCH_CELLS`` admits. A refit batch runs over one
    stacked matrix: a row block per request and a column block per
    distinct column list, NaN elsewhere. Restricted to one request's rows,
    the canonical order is that request's own, because the other blocks'
    NaN keys tie; no column of another block has two present values in
    one of its nodes, so none is ever admissible; and its columns keep
    their relative order, so the lowest-feature-index tie-break holds. A
    refit trains on an outer training split, which holds each of its inner
    training splits, so it passes every check its grid-search fits passed.
    Every result is byte-equal to ``run_cv`` of its request and seed.
    """
    if predictor_kind not in PREDICTOR_KINDS:
        raise ValueError(f"unknown predictor kind: {predictor_kind}")
    if predictor_kind == "gbt" and not grid:
        raise ValueError("gbt requires a nonempty grid")
    plan = plan or CVPlan()
    preds = [np.empty((len(seeds), len(dataset))) for dataset, _, seeds in requests]
    fold_configs = [[[] for _ in seeds] for _, _, seeds in requests]
    outcomes = []  # each request's outer fold assignments, or the ValueError it raised
    matrices, refits = {}, []  # each gbt request's encoded features; its winners to refit
    for r, (dataset, features, seeds) in enumerate(requests):
        try:
            if len(set(seeds)) != len(seeds):
                raise ValueError("seeds must be distinct")
            if len(dataset) < 3 * plan.outer_folds:
                raise ValueError("too few rows for the outer fold count")
            assigns, splits = _outer_splits(dataset, seeds, plan)
            if predictor_kind == "gbt":
                matrices[r] = encode_features(dataset, list(features))
                refits += _grid_searches(r, matrices[r], dataset.values, seeds, splits, grid,
                                         plan, fold_configs[r])
            else:
                _baseline_cv(dataset, predictor_kind, splits, preds[r])
        except ValueError as e:
            outcomes.append(e)
        else:
            outcomes.append(assigns)
    _refit(requests, matrices, refits, preds)

    results = []
    for (dataset, feature_names, seeds), assigns, *per_seed in zip(requests, outcomes, preds,
                                                                    fold_configs):
        results.append(assigns if isinstance(assigns, ValueError) else [CVResult(
            task_id=dataset.task.task_id,
            feature_names=tuple(feature_names),
            predictor_kind=predictor_kind,
            seed=seed,
            predictions={m: float(p) for m, p in zip(dataset.model_ids, pred.tolist())},
            mae=mae(pred, dataset.values),
            fold_assignment=assign,
            fold_configs=configs,
        ) for seed, assign, pred, configs in zip(seeds, assigns, *per_seed)])
    return results


def _outer_splits(dataset: Dataset, seeds, plan: CVPlan):
    """Each seed's outer fold assignment, and its (training rows, test rows)
    per outer fold."""
    assigns = [fold_assignment(dataset.model_ids, s, plan.outer_folds) for s in seeds]
    splits = [[(np.flatnonzero(folds != f), np.flatnonzero(folds == f))
               for f in range(plan.outer_folds)]
              for folds in (np.array([a[m] for m in dataset.model_ids]) for a in assigns)]
    return assigns, splits


def _baseline_cv(dataset: Dataset, predictor_kind: str, splits, preds) -> None:
    """Fill ``preds[k]`` with the out-of-fold predictions of the baseline
    kind fitted on each outer training split of seed ``k``."""
    y = dataset.values
    points = scale_points(dataset)
    for k, seed_splits in enumerate(splits):
        for train_idx, test_idx in seed_splits:
            if predictor_kind == "median":
                preds[k, test_idx] = baselines.median_predictor(y[train_idx])
            elif predictor_kind == "log_linear":
                a, b, c = baselines.fit_log_linear([points[i] for i in train_idx])
                for i in test_idx:
                    preds[k, i] = a + b * np.log10(points[i].N) + c * np.log10(points[i].D)
            else:
                params, _ = baselines.fit_power_law([points[i] for i in train_idx],
                                                    dataset.task.polarity)
                for i in test_idx:
                    preds[k, i] = baselines.predict_power_law_score(
                        params, points[i].N, points[i].D, dataset.task.polarity)


def _grid_searches(r, X, y, seeds, splits, grid, plan, fold_configs):
    """Grid-search every outer training split of request ``r`` (encoded
    features ``X``, targets ``y``) under each of its ``seeds``, appending
    each winner to ``fold_configs[k]``: the refits ``(r, k, training rows,
    test rows, winning config)`` of seed ``k``."""
    # (fit, column, training row) cells of one seed's grid-search fits
    cells = (len({replace(c, n_trees=0) for c in grid}) * X.values.shape[1]
             * (plan.outer_folds - 1) * (plan.inner_folds - 1) * len(y))
    step = max(1, BATCH_CELLS // max(cells, 1))  # no columns: fitting refuses
    refits = []
    for first in range(0, len(seeds), step):
        batch = [(k, train, test) for k in range(first, min(first + step, len(seeds)))
                 for train, test in splits[k]]
        best = _grid_search_batch(X, y, [train for _, train, _ in batch], grid,
                                  plan.inner_folds, [seeds[k] for k, _, _ in batch])
        for (k, train, test), config in zip(batch, best):
            fold_configs[k].append(asdict(config))
            refits.append((r, k, train, test, config))
    return refits


def _refit(requests, matrices, refits, preds) -> None:
    """Fill ``preds[r][k, test]`` of each refit ``(r, k, train, test,
    config)`` with its outer test predictions, the refits of every request
    stacked: request ``r``'s encoded features are ``matrices[r]``."""
    # a refit batch's dense (fit, stacked row) arrays hold its fits times
    # the rows of its requests: pack the refits in order under BATCH_CELLS
    packs, members, n_rows = [], set(), 0
    for refit in refits:
        r = refit[0]
        grown = n_rows + (r not in members) * len(requests[r][0])
        if not packs or (len(packs[-1]) + 1) * grown > BATCH_CELLS:
            packs.append([])
            members, grown = set(), len(requests[r][0])
        packs[-1].append(refit)
        members.add(r)
        n_rows = grown
    for pack in packs:
        row_at, col_at = {}, {}  # each request's first stacked row, each column list's first column
        for r, *_ in pack:
            if r not in row_at:
                row_at[r] = sum(len(requests[q][0]) for q in row_at)
                col_at.setdefault(matrices[r].column_names, sum(map(len, col_at)))
        stacked = np.full((sum(len(requests[r][0]) for r in row_at), sum(map(len, col_at))),
                          np.nan)
        for r, at in row_at.items():
            X, c = matrices[r].values, col_at[matrices[r].column_names]
            stacked[at:at + len(X), c:c + X.shape[1]] = X
        y = np.concatenate([requests[r][0].values for r in row_at])
        staged = staged_batch(stacked, y, [c for *_, c in pack],
                              [train + row_at[r] for r, _, train, _, _ in pack],
                              [test + row_at[r] for r, _, _, test, _ in pack],
                              [[c.n_trees] for *_, c in pack])
        for (r, k, _, test, _), st in zip(pack, staged):
            preds[r][k, test] = st[:, 0]


def multi_seed_mae(dataset: Dataset, feature_names, predictor_kind: str, seeds,
                   grid: list[GBTConfig] | None = None,
                   plan: CVPlan | None = None) -> list[float]:
    """One pooled out-of-fold MAE per seed, in seed order."""
    return [r.mae for r in run_cv_seeds(dataset, feature_names, predictor_kind, seeds, grid,
                                        plan)]


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
    improvement is at least ``tol``. Candidate ties break lexicographically,
    and a candidate given twice is refused. ``plan.seed`` is not read:
    ``selection_seeds`` take its place.
    """
    if len(selection_seeds) == 0:
        raise ValueError("greedy selection needs at least one seed")
    if np.isnan(tol):
        raise ValueError("tol must not be NaN")
    remaining = sorted(candidate_features)
    for f in SCALING_FEATURES:
        if f in remaining:
            raise ValueError(f"candidates must exclude the scale feature {f!r}")
    if len(set(remaining)) < len(remaining):
        raise ValueError("candidates must not repeat a feature")

    def score(features) -> float:
        return float(np.mean(multi_seed_mae(dataset, features, "gbt", selection_seeds,
                                            grid, plan)))

    selected = list(SCALING_FEATURES)
    current = score(selected)
    trace = SelectionTrace(tuple(selected), current)
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
