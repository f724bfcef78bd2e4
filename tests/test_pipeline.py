import json

import numpy as np
import pytest

from conftest import small_dataset
from perfpred.baselines import fit_log_linear, ScalePoint
from perfpred.gbtree import GBTConfig, fit_gbt, paper_grid
from perfpred.pipeline import (
    SCALING_FEATURES,
    CVPlan,
    fold_assignment,
    greedy_select,
    grid_search,
    multi_seed_mae,
    run_cv,
)
from perfpred.prng import PRNG_ID, CounterRng
from perfpred.registry import Column, FeatureMatrix, encode_features
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


def test_multi_seed_mae_ordering_and_determinism():
    ds = small_dataset(9)
    seeds = [4, 0, 2]
    maes = multi_seed_mae(ds, [], "median", seeds)
    assert len(maes) == 3
    assert maes[0] == run_cv(ds, [], "median", CVPlan(seed=4)).mae
    assert maes == multi_seed_mae(ds, [], "median", seeds)
    with pytest.raises(ValueError, match="distinct"):
        multi_seed_mae(ds, [], "median", [1, 1])


def test_greedy_select_rejects_scale_candidates():
    ds = small_dataset(9)
    with pytest.raises(ValueError, match="exclude"):
        greedy_select(ds, ["total_params"], CVPlan(), [GBTConfig(2, 0.3, 10)], [0])


def test_greedy_select_needs_a_seed():
    ds = small_dataset(9)
    with pytest.raises(ValueError, match="at least one seed"):
        greedy_select(ds, ["pct_code"], CVPlan(), [GBTConfig(2, 0.3, 10)], [])


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
