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
split of every request, those of one feature list together, in one
shared batch per feature list whenever ``BATCH_CELLS`` admits it. A
request that raises a ``ValueError`` gets it in its result slot and no
refits; the others go on. ``run_cv_seeds`` and ``run_cv`` are its
one-request cases, which raise that error, and each result is byte-equal
to ``run_cv`` of that request and seed alone.

The batches of a call are independent, so they run on a pool of forked
workers: first every grid-search batch, then every refit batch, each
phase largest first. There is one worker per CPU in the process's
affinity mask (``taskset`` limits it), up to the batch count of the
first phase that has more than one; a phase of one batch, or a mask of
one CPU, runs in the calling process.
No worker outlives the call, and the output bytes do not depend on the
worker count.
"""

from __future__ import annotations

import os
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


def _fold_splits(model_ids, seed: int, n_folds: int):
    """``fold_assignment`` of ``model_ids`` and each fold's (training, test)
    positions in ``model_ids``, ascending."""
    assign = fold_assignment(model_ids, seed, n_folds)
    folds = np.array([assign[m] for m in model_ids])
    return assign, [(np.flatnonzero(folds != f), np.flatnonzero(folds == f))
                    for f in range(n_folds)]


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

    tests, rows, held = [], [], []  # (split, its inner test positions); each prototype's rows
    for s, (train, seed) in enumerate(zip(trains, seeds)):
        if len(train) < inner_folds:
            raise ValueError("training split smaller than inner_folds")
        for inner_train, inner_test in _fold_splits([X.model_ids[i] for i in train], seed,
                                                    inner_folds)[1]:
            tests.append((s, inner_test))
            rows += [train[inner_train]] * len(protos)
            held += [train[inner_test]] * len(protos)
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
    every outer split of every request are then refitted, those of one
    column list together, in as few batches as ``BATCH_CELLS`` admits. A
    refit batch stacks the rows of its requests, and a fit reads only its
    own request's block, so by ``staged_batch``'s contract it is the fit
    of that request alone. A refit trains on an outer training split,
    which holds each of its inner training splits, so it passes every
    check its grid-search fits passed. The grid-search batches, then the
    refit batches, run on one fork pool (``_Units``). Every result is
    byte-equal to ``run_cv`` of its request and seed, whatever the worker
    count.
    """
    if predictor_kind not in PREDICTOR_KINDS:
        raise ValueError(f"unknown predictor kind: {predictor_kind}")
    if predictor_kind == "gbt" and not grid:
        raise ValueError("gbt requires a nonempty grid")
    plan = plan or CVPlan()
    records = [_Request(dataset, features, seeds, np.empty((len(seeds), len(dataset))),
                        [[] for _ in seeds]) for dataset, features, seeds in requests]
    for rec in records:
        try:
            if len(set(rec.seeds)) != len(rec.seeds):
                raise ValueError("seeds must be distinct")
            if len(rec.dataset) < 3 * plan.outer_folds:
                raise ValueError("too few rows for the outer fold count")
            outer = [_fold_splits(rec.dataset.model_ids, s, plan.outer_folds) for s in rec.seeds]
            rec.assigns, rec.splits = [a for a, _ in outer], [sp for _, sp in outer]
            if predictor_kind == "gbt":
                rec.X = encode_features(rec.dataset, list(rec.features))
            else:
                _baseline_cv(rec.dataset, predictor_kind, rec.splits, rec.preds)
        except ValueError as e:
            rec.error = e
    if predictor_kind == "gbt":
        _nested_gbt([rec for rec in records if rec.error is None], grid, plan)
    return [rec.error or [CVResult(
        task_id=rec.dataset.task.task_id,
        feature_names=tuple(rec.features),
        predictor_kind=predictor_kind,
        seed=seed,
        predictions={m: float(p) for m, p in zip(rec.dataset.model_ids, pred.tolist())},
        mae=mae(pred, rec.dataset.values),
        fold_assignment=assign,
        fold_configs=configs,
    ) for seed, assign, pred, configs in zip(rec.seeds, rec.assigns, rec.preds, rec.configs)]
        for rec in records]


@dataclass(eq=False)
class _Request:
    """One request of ``run_cv_requests`` and what its CV makes of it: each
    seed's outer fold assignment and (training rows, test rows) per outer
    fold, the encoded features (gbt), each seed's out-of-fold predictions
    and fold winners, or the first ``ValueError`` it raised."""
    dataset: Dataset
    features: list | tuple  # as given
    seeds: list | tuple
    preds: np.ndarray
    configs: list[list[dict]]
    assigns: list[dict[str, int]] | None = None
    splits: list[list[tuple[np.ndarray, np.ndarray]]] | None = None
    X: FeatureMatrix | None = None
    error: ValueError | None = None


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


def _packs(items, cells) -> list[list]:
    """``items`` cut, in order, into packs of at most ``BATCH_CELLS`` cells,
    ``cells(pack)`` a pack's count; an item that fills more makes a pack
    alone."""
    packs = []
    for item in items:
        if not packs or cells(packs[-1] + [item]) > BATCH_CELLS:
            packs.append([])
        packs[-1].append(item)
    return packs


def _nested_gbt(records, grid, plan) -> None:
    """Grid-search the ``_Request``s, as many seeds of one per batch as
    ``BATCH_CELLS`` admits, then refit their winners, on one ``_Units``. A
    request whose batch raises gets the first such ``ValueError`` and no
    refits; each other gets its winners and its outer test predictions."""
    protos = len({replace(c, n_trees=0) for c in grid})
    searches = []  # (request, its (seed k, training rows, test rows) of one batch)
    for rec in records:
        # (fit, column, training row) cells of one seed's grid-search fits
        cells = (protos * rec.X.values.shape[1] * (plan.outer_folds - 1)
                 * (plan.inner_folds - 1) * len(rec.dataset))
        searches += [(rec, [(k, train, test) for k in ks for train, test in rec.splits[k]])
                     for ks in _packs(range(len(rec.seeds)), lambda ks: len(ks) * cells)]
    with _Units() as units:
        # a batch's cost is its columns times its training rows: its (fit,
        # column, training row) cells times rounds, less the grid's factor
        found = units.run([(rec.X.values.shape[1] * sum(len(t) for _, t, _ in batch),
                            _grid_search_batch,
                            (rec.X, rec.dataset.values, [t for _, t, _ in batch], grid,
                             plan.inner_folds, [rec.seeds[k] for k, _, _ in batch]))
                           for rec, batch in searches], ValueError)
        for (rec, _), best in zip(searches, found):
            if isinstance(best, ValueError) and rec.error is None:
                rec.error = best
        lists: dict[tuple, list] = {}  # each column list's (request, k, train, test, config)
        for (rec, batch), best in zip(searches, found):
            if rec.error is None:
                lists.setdefault(rec.X.column_names, []).extend(
                    (rec, *split, config) for split, config in zip(batch, best))
        # a refit pack's (fit, stacked row) cells: the size of its dense arrays
        packs = [pack for same in lists.values() for pack in _packs(
            same, lambda pack: len(pack) * sum(len(r.dataset) for r in {r for r, *_ in pack}))]
        staged = units.run([_refit_unit(pack) for pack in packs])
    for pack, pack_staged in zip(packs, staged):
        for (rec, k, _, test, config), st in zip(pack, pack_staged):
            rec.configs[k].append(asdict(config))
            rec.preds[k, test] = st[:, 0]


def _refit_unit(pack):
    """The ``staged_batch`` unit ``(cost, fn, args)`` of a refit pack: the
    row blocks of its requests stacked, each refit's rows shifted to its
    block."""
    row_at = {}  # each request's first stacked row
    for rec, *_ in pack:
        row_at.setdefault(rec, sum(len(r.dataset) for r in row_at))
    stacked = np.concatenate([rec.X.values for rec in row_at])
    y = np.concatenate([rec.dataset.values for rec in row_at])
    return (stacked.shape[1] * sum(len(train) * c.n_trees for _, _, train, _, c in pack),
            staged_batch,
            (stacked, y, [c for *_, c in pack],
             [train + row_at[rec] for rec, _, train, _, _ in pack],
             [test + row_at[rec] for rec, _, _, test, _ in pack],
             [[c.n_trees] for *_, c in pack]))


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask."""
    return len(os.sched_getaffinity(0))


class _Units:
    """Runs lists of independent units ``(cost, fn, args)``.

    A list of two or more units, on two or more CPUs, runs on a fork pool,
    largest cost first; otherwise its units run here, in order. The pool
    is made for the first such list, with one worker per CPU up to that
    list's length, serves every later list, and is shut down on exit,
    every worker joined. A unit's ``fn(*args)`` reads only its arguments,
    so its result does not depend on where it ran.
    """

    def __init__(self):
        self.pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)

    def run(self, units, caught=()) -> list:
        """Each unit's result, or the ``caught`` exception it raised, in unit
        order; any other exception propagates."""
        workers = min(_cpus(), len(units))
        if workers < 2:
            return [_outcome(caught, fn, *args) for _, fn, args in units]
        if self.pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self.pool = ProcessPoolExecutor(workers,
                                            mp_context=multiprocessing.get_context("fork"))
        futures = {u: self.pool.submit(units[u][1], *units[u][2])
                   for u in sorted(range(len(units)), key=lambda u: units[u][0], reverse=True)}
        return [_outcome(caught, futures[u].result) for u in range(len(units))]


def _outcome(caught, call, *args):
    """``call(*args)``, or the ``caught`` exception it raised."""
    try:
        return call(*args)
    except caught as e:
        return e


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
    ``selection_seeds`` take its place. A step scores all its candidates in
    one ``run_cv_requests`` call and raises the first candidate's error.
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

    def scores(feature_lists) -> list[float]:
        """Mean MAE over the selection seeds of each feature list."""
        results = run_cv_requests([(dataset, fs, selection_seeds) for fs in feature_lists],
                                  "gbt", grid, plan)
        for result in results:
            if isinstance(result, ValueError):
                raise result
        return [float(np.mean([r.mae for r in result])) for result in results]

    selected = list(SCALING_FEATURES)
    (current,) = scores([selected])
    trace = SelectionTrace(tuple(selected), current)
    while remaining:
        results = list(zip(scores([selected + [c] for c in remaining]), remaining))
        best_mae, best_feat = min(results)
        improvement = current - best_mae
        if improvement < tol:
            break
        trace.steps.append(SelectionStep(best_feat, best_mae, improvement))
        selected.append(best_feat)
        remaining.remove(best_feat)
        current = best_mae
    return trace
