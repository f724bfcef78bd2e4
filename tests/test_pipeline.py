import concurrent.futures
import json
import multiprocessing
import os
import tracemalloc
from dataclasses import asdict, replace
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_dataset
from perfpred.baselines import fit_log_linear, ScalePoint
from perfpred import gbtree, pipeline
from perfpred.gbtree import GBTConfig, fit_gbt, paper_grid
from perfpred.metrics import mae
from perfpred.pipeline import (
    SCALING_FEATURES,
    CVPlan,
    fold_assignment,
    greedy_select,
    grid_search,
    multi_seed_mae,
    run_cv,
    run_cv_seeds,
)
from perfpred.prng import PRNG_ID, CounterRng
from perfpred.registry import (
    Column,
    Dataset,
    FeatureMatrix,
    all_feature_names,
    encode_features,
)
from perfpred.synthdata import GenSpec, synth_dataset


def test_fold_assignment_partitions_evenly():
    ids = [f"m{i}" for i in range(17)]
    for seed in range(5):
        assign = fold_assignment(ids, seed, 3)
        assert set(assign) == set(ids)
        sizes = sorted(list(assign.values()).count(f) for f in range(3))
        assert sizes == [5, 6, 6]
    # pure function of the sorted ids, independent of input order
    shuffled = list(reversed(ids))
    assert fold_assignment(shuffled, 2, 3) == fold_assignment(ids, 2, 3)
    assert fold_assignment(ids, 0, 3) != fold_assignment(ids, 1, 3)


def test_median_cv_matches_hand_enumeration():
    ds = small_dataset(9)
    result = run_cv(ds, [], "median", CVPlan(seed=0))
    for model_id, pred in result.predictions.items():
        fold = result.fold_assignment[model_id]
        train_vals = [v for m, v in zip(ds.model_ids, ds.values)
                      if result.fold_assignment[m] != fold]
        assert pred == pytest.approx(float(np.median(train_vals)))
    expected = np.mean([abs(result.predictions[m] - v)
                        for m, v in zip(ds.model_ids, ds.values)])
    assert result.mae == pytest.approx(expected)


def test_log_linear_cv_matches_per_fold_fits():
    ds = small_dataset(10)
    result = run_cv(ds, [], "log_linear", CVPlan(seed=1))
    for fold in range(3):
        train = [(r, v) for r, v in zip(ds.records, ds.values)
                 if result.fold_assignment[r.model_id] != fold]
        a, b, c = fit_log_linear([
            ScalePoint(r.arch.total_params, r.data.total_tokens_billions * 1e9, float(v))
            for r, v in train])
        for r, v in zip(ds.records, ds.values):
            if result.fold_assignment[r.model_id] == fold:
                want = (a + b * np.log10(r.arch.total_params)
                        + c * np.log10(r.data.total_tokens_billions * 1e9))
                assert result.predictions[r.model_id] == pytest.approx(want)


def test_constant_targets_give_zero_mae():
    ds = small_dataset(9, score_fn=lambda r: 0.5)
    for kind, grid in [("median", None), ("log_linear", None),
                       ("gbt", [GBTConfig(2, 0.3, 10)])]:
        result = run_cv(ds, list(SCALING_FEATURES), kind, CVPlan(seed=0), grid)
        assert result.mae == pytest.approx(0.0, abs=1e-12), kind


def test_run_cv_validation():
    ds = small_dataset(8)
    with pytest.raises(ValueError, match="unknown predictor"):
        run_cv(ds, [], "mlp", CVPlan())
    with pytest.raises(ValueError, match="too few rows"):
        run_cv(ds, [], "median", CVPlan())
    with pytest.raises(ValueError, match="nonempty grid"):
        run_cv(small_dataset(9), list(SCALING_FEATURES), "gbt", CVPlan())
    with pytest.raises(ValueError, match="all feature values missing"):
        run_cv(small_dataset(9), [], "gbt", CVPlan(), [GBTConfig(2, 0.3, 10)])


def test_result_serialization_is_stable():
    ds = small_dataset(9)
    r1 = run_cv(ds, [], "median", CVPlan(seed=3))
    r2 = run_cv(ds, [], "median", CVPlan(seed=3))
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())
    assert r1.to_dict()["prng"] == PRNG_ID


def _feature_matrix(values, names=None):
    n, p = values.shape
    names = names or [f"f{j}" for j in range(p)]
    return FeatureMatrix(
        tuple(f"m{i:02d}" for i in range(n)),
        tuple(Column(nm, "F", "identity") for nm in names),
        values,
    )


def test_grid_search_singleton_is_identity():
    rng = CounterRng(2)
    values = np.array([[rng.normal(), rng.normal()] for _ in range(18)])
    y = values[:, 0] + 0.2 * np.array([rng.normal() for _ in range(18)])
    X = _feature_matrix(values)
    only = GBTConfig(3, 0.1, 20)
    assert grid_search(X, y, [only], 3, seed=0) == only


def test_grid_search_prefers_depth_two_for_xor():
    rng = CounterRng(6)
    values = np.array([[float(rng.randint(2)), float(rng.randint(2))]
                       for _ in range(36)])
    y = np.logical_xor(values[:, 0] > 0.5, values[:, 1] > 0.5).astype(float)
    X = _feature_matrix(values)
    grid = [GBTConfig(1, 1.0, 50, min_samples_leaf=1),
            GBTConfig(2, 1.0, 50, min_samples_leaf=1)]
    best = grid_search(X, y, grid, 3, seed=0)
    assert best.max_depth == 2


def test_grid_search_tie_breaks_toward_smaller_models():
    # constant targets: every config scores identically, so the smallest
    # (n_trees, depth, rate) must win
    values = np.arange(24, dtype=float).reshape(12, 2)
    y = np.full(12, 0.5)
    X = _feature_matrix(values)
    best = grid_search(X, y, paper_grid(), 3, seed=0)
    assert (best.n_trees, best.max_depth, best.learning_rate) == (50, 2, 0.01)


def test_grid_search_validation():
    X = _feature_matrix(np.ones((2, 1)))
    with pytest.raises(ValueError, match="empty"):
        grid_search(X, np.ones(2), [], 3, 0)
    with pytest.raises(ValueError, match="smaller than inner_folds"):
        grid_search(X, np.ones(2), [GBTConfig()], 3, 0)


def test_gbt_cv_singleton_grid_matches_manual_fits():
    ds = small_dataset(12)
    cfg = GBTConfig(2, 0.3, 25)
    result = run_cv(ds, list(SCALING_FEATURES), "gbt", CVPlan(seed=2), [cfg])
    X = encode_features(ds, list(SCALING_FEATURES))
    folds = np.array([result.fold_assignment[m] for m in ds.model_ids])
    for fold in range(3):
        test = folds == fold
        ens = fit_gbt(X.values[~test], ds.values[~test], cfg,
                      mask=X.missing_mask[~test], column_names=X.column_names)
        preds = ens.predict(X.values[test], X.missing_mask[test])
        got = [result.predictions[m] for m, t in zip(ds.model_ids, test) if t]
        assert got == pytest.approx(list(preds), abs=1e-12)
    assert all(c == {"max_depth": 2, "learning_rate": 0.3, "n_trees": 25,
                     "min_samples_leaf": 2} for c in result.fold_configs)


def reference_run_cv(ds, features, plan, grid) -> dict:
    """Nested CV one fit at a time: every config fitted alone on every inner
    training split, scored by its staged predictions, the lowest mean MAE
    chosen with ties to fewer trees, then lower depth, then lower rate, then
    grid order, and refitted alone on the outer training split."""
    X = encode_features(ds, features)
    y = ds.values
    assign = fold_assignment(ds.model_ids, plan.seed, plan.outer_folds)
    folds = np.array([assign[m] for m in ds.model_ids])
    preds = np.empty(len(y))
    chosen = []
    for f in range(plan.outer_folds):
        train = np.flatnonzero(folds != f)
        Xt, yt = X.values[train], y[train]
        ids = [ds.model_ids[i] for i in train]
        inner_assign = fold_assignment(ids, plan.seed, plan.inner_folds)
        inner = np.array([inner_assign[m] for m in ids])
        scores = np.empty((len(grid), len(train)))
        for g in range(plan.inner_folds):
            test = inner == g
            for gi, c in enumerate(grid):
                ens = fit_gbt(Xt[~test], yt[~test], c, column_names=X.column_names)
                scores[gi, test] = ens.staged_predict(Xt[test])[:, c.n_trees]
        best = min(range(len(grid)), key=lambda gi: (mae(scores[gi], yt), grid[gi].n_trees,
                                                     grid[gi].max_depth,
                                                     grid[gi].learning_rate, gi))
        ens = fit_gbt(Xt, yt, grid[best], column_names=X.column_names)
        preds[folds == f] = ens.predict(X.values[folds == f])
        chosen.append(asdict(grid[best]))
    return {"predictions": {m: float(p) for m, p in zip(ds.model_ids, preds)},
            "mae": mae(preds, y), "fold_configs": chosen}


@st.composite
def nested_cv_problems(draw):
    """Small synthetic datasets with missing features, a few feature sets,
    seeds, and grids whose configs share depths and rates across tree counts."""
    spec = GenSpec(n_models=draw(st.integers(9, 20)), noise_sigma=0.02,
                   missing_rate=draw(st.sampled_from([0.0, 0.3, 0.6])),
                   feature_effects={"pct_code": 0.002})
    ds = synth_dataset(spec, seed=draw(st.integers(0, 1000)))[0]
    features = draw(st.sampled_from([list(SCALING_FEATURES),
                                     ["total_params", "pct_code", "entropy_mean"],
                                     all_feature_names()[:8]]))
    config = st.builds(GBTConfig, max_depth=st.sampled_from([1, 2, 3, 5]),
                       learning_rate=st.sampled_from([0.1, 0.3]),
                       n_trees=st.sampled_from([1, 3, 6]))
    grid = draw(st.lists(config, min_size=1, max_size=4))
    seeds = draw(st.lists(st.integers(0, 50), min_size=1, max_size=2, unique=True))
    return ds, features, grid, seeds


@settings(max_examples=25, deadline=None, derandomize=True)
@given(nested_cv_problems())
def test_run_cv_equals_a_nested_cv_of_single_fits(problem):
    ds, features, grid, seeds = problem
    for seed in seeds:
        got = run_cv(ds, features, "gbt", CVPlan(seed=seed), grid).to_dict()
        want = reference_run_cv(ds, features, CVPlan(seed=seed), grid)
        assert json.dumps({k: got[k] for k in want}, sort_keys=True) == \
            json.dumps(want, sort_keys=True)
    assert multi_seed_mae(ds, features, "gbt", seeds, grid) == \
        [reference_run_cv(ds, features, CVPlan(seed=s), grid)["mae"] for s in seeds]


@pytest.mark.parametrize("features", [list(SCALING_FEATURES),
                                      ["total_params", "total_tokens_billions", "pct_code",
                                       "entropy_mean"]])
def test_a_batch_of_seeds_equals_one_run_cv_per_seed(features):
    # a cap of two seeds per grid-search batch, so five seeds take three
    # grid-search calls of staged_batch, and one refit call for them all;
    # on one CPU, for mock counts no call made in a forked worker
    ds, _ = synth_dataset(GenSpec(n_models=14, noise_sigma=0.02, missing_rate=0.3,
                                  feature_effects={"pct_code": 0.002}), seed=5)
    grid = [GBTConfig(2, 0.3, 4), GBTConfig(2, 0.3, 8), GBTConfig(3, 0.1, 8)]
    per_seed = 2 * len(features) * 2 * 2 * len(ds)  # prototypes, columns, training rows
    for seeds in ([0], [0, 1], [0, 1, 2, 3, 4], [3, 0, 7]):
        want = [json.dumps(run_cv(ds, features, "gbt", CVPlan(seed=s), grid).to_dict())
                for s in seeds]
        with mock.patch.object(pipeline, "BATCH_CELLS", 2 * per_seed), \
                mock.patch.object(pipeline, "_cpus", return_value=1), \
                mock.patch.object(pipeline, "staged_batch", wraps=gbtree.staged_batch) as fits:
            got = run_cv_seeds(ds, features, "gbt", seeds, grid)
            maes = multi_seed_mae(ds, features, "gbt", seeds, grid)
        assert [json.dumps(r.to_dict()) for r in got] == want
        assert maes == [json.loads(w)["mae"] for w in want]
        assert fits.call_count == 2 * (-(-len(seeds) // 2) + 1)  # run_cv_seeds, multi_seed_mae


def test_requests_of_two_datasets_and_two_feature_lists_share_their_refits():
    # grid searches stay one per request; the refits of the requests of one
    # feature list run in one stacked batch, or in more under a small
    # BATCH_CELLS, in either request order, and every result is byte-equal
    # to run_cv of its request and seed alone; on one CPU, for mock counts
    # no call made in a worker
    spec = dict(noise_sigma=0.02, missing_rate=0.3, feature_effects={"pct_code": 0.002})
    big, _ = synth_dataset(GenSpec(n_models=16, **spec), seed=5)
    small, _ = synth_dataset(GenSpec(n_models=11, **spec), seed=6)
    four = ["total_params", "total_tokens_billions", "pct_code", "entropy_mean"]
    assert np.isnan(encode_features(big, four).values).any()
    requests = [(big, list(SCALING_FEATURES), [0, 3]), (big, four, [1]),
                (small, list(SCALING_FEATURES), [2, 0, 5]), (small, four, [4, 0])]
    grid = [GBTConfig(2, 0.3, 4), GBTConfig(2, 0.3, 8), GBTConfig(3, 0.1, 8)]
    assert pipeline.run_cv_requests([], "gbt", grid) == []
    want = [[json.dumps(run_cv(ds, fs, "gbt", CVPlan(seed=s), grid).to_dict()) for s in seeds]
            for ds, fs, seeds in requests]
    widths = {encode_features(big, fs).values.shape[1] for fs in (SCALING_FEATURES, four)}
    packs = []  # each capped call's refit batches: (stacked rows, fits)
    for order, cap, refit_calls in ((1, pipeline.BATCH_CELLS, 2), (1, 200, None),
                                    (-1, 200, None)):
        with mock.patch.object(pipeline, "BATCH_CELLS", cap), \
                mock.patch.object(pipeline, "_cpus", return_value=1), \
                mock.patch.object(pipeline, "staged_batch", wraps=gbtree.staged_batch) as fits, \
                mock.patch.object(pipeline, "_grid_search_batch",
                                  wraps=pipeline._grid_search_batch) as searches:
            got = pipeline.run_cv_requests(requests[::order], "gbt", grid)
        assert [[json.dumps(r.to_dict()) for r in results] for results in got] == want[::order]
        refits = fits.call_args_list[searches.call_count:]
        # a refit batch stacks rows only: its matrix is one feature list's width
        assert {c.args[0].shape[1] for c in refits} == widths
        if refit_calls:
            assert (searches.call_count, len(refits)) == (len(requests), refit_calls)
        else:  # each batch holds at most cap (fit, stacked row) cells, some two requests
            assert len(refits) > 2
            assert all(len(c.args[2]) * len(c.args[0]) <= cap for c in refits)
            assert any(len(c.args[0]) > len(big) for c in refits)
            packs.append(sorted((len(c.args[0]), len(c.args[2])) for c in refits))
    assert packs[0] != packs[1]  # the reversed order packs its refits otherwise


def test_a_request_that_raises_fails_alone():
    # the failing request gets the ValueError run_cv raises for it alone and
    # no refits; the other requests' results and their shared refit batches,
    # one per feature list, are as they would be without it, and
    # run_cv_seeds raises; on one CPU, for mock counts no call made in a worker
    spec = dict(noise_sigma=0.02, missing_rate=0.3, feature_effects={"pct_code": 0.002})
    big, _ = synth_dataset(GenSpec(n_models=16, **spec), seed=5)
    small, _ = synth_dataset(GenSpec(n_models=11, **spec), seed=6)
    tiny, _ = synth_dataset(GenSpec(n_models=8, **spec), seed=7)
    blank = Dataset(small.task, tuple(replace(r, data=replace(r.data, pct_code=None))
                                      for r in small.records), small.values)
    four = ["total_params", "total_tokens_billions", "pct_code", "entropy_mean"]
    grid = [GBTConfig(2, 0.3, 4), GBTConfig(2, 0.3, 8), GBTConfig(3, 0.1, 8)]
    good = [(big, list(SCALING_FEATURES), [0, 3]), (small, list(SCALING_FEATURES), [2, 0]),
            (big, four, [1])]
    want = [[json.dumps(run_cv(ds, fs, "gbt", CVPlan(seed=s), grid).to_dict()) for s in seeds]
            for ds, fs, seeds in good]
    for bad, message in (((blank, ["pct_code"], [1, 2]), "all feature values missing"),
                         ((tiny, four, [0]), "too few rows for the outer fold count")):
        ds, fs, seeds = bad
        with pytest.raises(ValueError, match=message):
            run_cv(ds, fs, "gbt", CVPlan(seed=seeds[0]), grid)
        with mock.patch.object(pipeline, "_cpus", return_value=1), \
                mock.patch.object(pipeline, "staged_batch", wraps=gbtree.staged_batch) as fits, \
                mock.patch.object(pipeline, "_grid_search_batch",
                                  wraps=pipeline._grid_search_batch) as searches:
            got = pipeline.run_cv_requests([good[0], bad, *good[1:]], "gbt", grid)
        assert isinstance(got[1], ValueError) and str(got[1]) == message
        assert [[json.dumps(r.to_dict()) for r in results]
                for results in got[:1] + got[2:]] == want
        # one refit batch per feature list: a row block and the 3 outer folds
        # of each seed of its good requests alone
        scale, wide = fits.call_args_list[searches.call_count:]
        for refit, requests in ((scale, good[:2]), (wide, good[2:])):
            assert len(refit.args[0]) == sum(len(ds) for ds, *_ in requests)
            assert len(refit.args[2]) == 3 * sum(len(seeds) for *_, seeds in requests)
        with pytest.raises(ValueError, match=message):
            run_cv_seeds(ds, fs, "gbt", seeds, grid)


def test_results_do_not_depend_on_the_worker_count():
    # five grid-search batches (one per request) and two refit batches (one
    # per feature list) on 1, 2 and at most 5 forked workers: every result,
    # the failing request's error too, is byte-equal, the pool never has more
    # workers than CPUs or batches, and no worker outlives the call
    spec = dict(noise_sigma=0.02, missing_rate=0.3, feature_effects={"pct_code": 0.002})
    big, _ = synth_dataset(GenSpec(n_models=16, **spec), seed=5)
    small, _ = synth_dataset(GenSpec(n_models=11, **spec), seed=6)
    blank = Dataset(small.task, tuple(replace(r, data=replace(r.data, pct_code=None))
                                      for r in small.records), small.values)
    four = ["total_params", "total_tokens_billions", "pct_code", "entropy_mean"]
    requests = [(big, list(SCALING_FEATURES), [0, 3]), (small, four, [4, 0]),
                (blank, ["pct_code"], [1, 2]), (small, list(SCALING_FEATURES), [2, 0, 5]),
                (big, four, [1])]
    grid = [GBTConfig(2, 0.3, 4), GBTConfig(2, 0.3, 8), GBTConfig(3, 0.1, 8)]
    pool = concurrent.futures.ProcessPoolExecutor
    got = {}
    for cpus in (1, 2, 64):
        made = []

        def counted(workers, **kwargs):
            made.append(workers)
            return pool(workers, **kwargs)

        with mock.patch.object(pipeline, "_cpus", return_value=cpus), \
                mock.patch.object(concurrent.futures, "ProcessPoolExecutor", counted):
            results = pipeline.run_cv_requests(requests, "gbt", grid)
        assert multiprocessing.active_children() == []
        assert made == ([] if cpus == 1 else [min(cpus, len(requests))])
        got[cpus] = [repr(r) if isinstance(r, ValueError) else
                     [json.dumps(x.to_dict()) for x in r] for r in results]
    assert got[1][2] == repr(ValueError("all feature values missing"))
    assert got[1] == got[2] == got[64]


def _killed(*args, caller=os.getpid()):
    if os.getpid() == caller:
        raise AssertionError("a unit of a pool ran in the calling process")
    os._exit(3)


def test_a_killed_worker_raises_and_leaves_no_process():
    ds, _ = synth_dataset(GenSpec(n_models=12, noise_sigma=0.02, missing_rate=0.2), seed=1)
    requests = [(ds, list(SCALING_FEATURES), [0]), (ds, ["total_params"], [1])]
    with mock.patch.object(pipeline, "_cpus", return_value=2), \
            mock.patch.object(pipeline, "_grid_search_batch", _killed), \
            pytest.raises(BrokenProcessPool):
        pipeline.run_cv_requests(requests, "gbt", [GBTConfig(2, 0.3, 4)])
    assert multiprocessing.active_children() == []


def test_a_batch_of_seeds_keeps_no_grid_search_trees():
    # 108 grid-search fits of up to 40 trees in one batch: kept, their trees
    # would take about 2 MB of node pool, and the peak would pass 3 MB;
    # tracemalloc counts allocations, not time
    ds, _ = synth_dataset(GenSpec(n_models=30, noise_sigma=0.02, missing_rate=0.2), 0)
    grid = [GBTConfig(d, lr, nt) for d in (2, 3) for lr in (0.1, 0.3) for nt in (20, 40)]
    tracemalloc.start()
    try:
        run_cv_seeds(ds, SCALING_FEATURES, "gbt", [0, 1, 2], grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024 * 1024


def test_an_ensemble_keeps_only_its_own_nodes():
    # a 1000-tree fit of a step on 92 rows keeps its 1,294 nodes (63 kB)
    # and nothing of the node pool its trees were grown in; tracemalloc
    # counts allocations, not time
    rng = np.random.default_rng(0)
    X = rng.normal(size=(92, 6))
    y = (X[:, 0] > 0) + 0.0
    tracemalloc.start()
    try:
        ens = fit_gbt(X, y, GBTConfig(6, 0.1, 1000))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 2 * ens.nodes.nbytes


def test_multi_seed_mae_ordering_and_determinism():
    ds = small_dataset(9)
    seeds = [4, 0, 2]
    maes = multi_seed_mae(ds, [], "median", seeds)
    assert len(maes) == 3
    assert maes[0] == run_cv(ds, [], "median", CVPlan(seed=4)).mae
    assert maes == multi_seed_mae(ds, [], "median", seeds)
    for per_seed in (multi_seed_mae, run_cv_seeds):
        with pytest.raises(ValueError, match="distinct"):
            per_seed(ds, [], "median", [1, 1])


def test_greedy_select_rejects_scale_candidates():
    ds = small_dataset(9)
    with pytest.raises(ValueError, match="exclude"):
        greedy_select(ds, ["total_params"], CVPlan(), [GBTConfig(2, 0.3, 10)], [0])


def test_greedy_select_needs_a_seed():
    ds = small_dataset(9)
    with pytest.raises(ValueError, match="at least one seed"):
        greedy_select(ds, ["pct_code"], CVPlan(), [GBTConfig(2, 0.3, 10)], [])


def test_greedy_select_refuses_a_nan_tolerance():
    # every improvement compares false against NaN, so it would add every
    # candidate, the ones that raise the MAE too
    ds = small_dataset(9)
    with pytest.raises(ValueError, match="NaN"):
        greedy_select(ds, ["pct_code"], CVPlan(), [GBTConfig(2, 0.3, 10)], [0], tol=np.nan)


def test_greedy_select_refuses_repeated_candidates():
    # a repeated candidate would be scored, and with a negative tolerance
    # selected, once per repeat
    ds = small_dataset(14)
    with pytest.raises(ValueError, match="repeat"):
        greedy_select(ds, ["pct_code", "pct_code"], CVPlan(), [GBTConfig(2, 0.3, 4)], [0],
                      tol=-1.0)


def test_greedy_select_finds_planted_feature():
    spec = GenSpec(n_models=45, feature_effects={"pct_code": 0.004},
                   noise_sigma=0.0, missing_rate=0.0)
    ds, _ = synth_dataset(spec, seed=9)
    grid = [GBTConfig(3, 0.3, 50)]
    trace = greedy_select(ds, ["pct_code", "num_heads"], CVPlan(), grid, [0], tol=1e-4)
    assert trace.base_features == SCALING_FEATURES
    assert trace.steps, "no feature selected"
    assert trace.steps[0].added_feature == "pct_code"
    assert trace.steps[0].mean_mae_after < trace.base_mae
    for step in trace.steps:
        assert step.improvement >= 1e-4
    assert trace.final_features[0:2] == SCALING_FEATURES
    payload = trace.to_dict()
    assert payload["prng"] == PRNG_ID
    assert payload["final_features"][2] == "pct_code"


def per_candidate_select(dataset, candidates, plan, grid, seeds, tol):
    """The reference ``greedy_select``: one ``multi_seed_mae`` per
    candidate."""
    def score(features):
        return float(np.mean(multi_seed_mae(dataset, features, "gbt", seeds, grid, plan)))

    remaining, selected = sorted(candidates), list(SCALING_FEATURES)
    current = score(selected)
    trace = pipeline.SelectionTrace(tuple(selected), current)
    while remaining:
        best_mae, best_feat = min((score(selected + [c]), c) for c in remaining)
        if current - best_mae < tol:
            break
        trace.steps.append(pipeline.SelectionStep(best_feat, best_mae, current - best_mae))
        selected.append(best_feat)
        remaining.remove(best_feat)
        current = best_mae
    return trace


def test_greedy_select_scores_a_step_in_one_call_byte_equal_to_one_call_per_candidate():
    ds, _ = synth_dataset(GenSpec(n_models=18, noise_sigma=0.01, missing_rate=0.2,
                                  feature_effects={"pct_code": 0.004}), seed=3)
    candidates = ["pct_code", "entropy_mean", "activation", "num_heads"]
    grid = [GBTConfig(2, 0.3, 6), GBTConfig(3, 0.3, 6)]
    want = json.dumps(per_candidate_select(ds, candidates, CVPlan(), grid, [0, 1],
                                           -1.0).to_dict())
    for cpus in (1, 2):
        with mock.patch.object(pipeline, "_cpus", return_value=cpus), \
                mock.patch.object(pipeline, "run_cv_requests",
                                  wraps=pipeline.run_cv_requests) as calls:
            trace = greedy_select(ds, candidates, CVPlan(), grid, [0, 1], tol=-1.0)
        assert json.dumps(trace.to_dict()) == want
        # the base, then one call per step, each with every candidate left
        assert [len(c.args[0]) for c in calls.call_args_list] == [1, 4, 3, 2, 1]


def test_greedy_select_raises_the_first_candidates_error():
    # candidates are scored in sorted order: num_heads, pct_code, pct_web
    ds = small_dataset(14)
    run = pipeline.run_cv_requests
    candidates = ["pct_web", "num_heads", "pct_code"]
    for bad, first in (({"pct_web", "pct_code"}, "pct_code"), ({"pct_web", "num_heads"},
                                                               "num_heads")):
        def failing(requests, *args):  # a feature list ending in a bad name fails
            return [ValueError(f"bad {fs[-1]}") if fs[-1] in bad else results
                    for (_, fs, _), results in zip(requests, run(requests, *args))]

        with mock.patch.object(pipeline, "run_cv_requests", failing), \
                pytest.raises(ValueError, match=f"^bad {first}$"):
            greedy_select(ds, candidates, CVPlan(), [GBTConfig(2, 0.3, 4)], [0])
