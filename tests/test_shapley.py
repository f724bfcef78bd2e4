import dataclasses
import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from conftest import brute_shapley, random_fitted_ensemble, recursive_shap, small_dataset
from perfpred import shapley
from perfpred.gbtree import GBTConfig, TreeEnsemble, fit_gbt
from perfpred.prng import CounterRng
from perfpred.registry import Column, FeatureMatrix, all_feature_names, encode_features
from perfpred.shapley import (
    _bottom_up,
    shap_dependence,
    shap_matrix,
    shap_summary,
    tree_shap,
)
from perfpred.synthdata import GenSpec, synth_dataset


def leaf(cover, value):
    return {"cover": cover, "leaf_value": value}


def split(feature, threshold, left, right, default_left=True):
    return {"cover": left["cover"] + right["cover"], "split_feature": feature,
            "threshold": threshold, "default_direction": "left" if default_left else "right",
            "left": left, "right": right}


def stump(feature, threshold, left_value, right_value, left_cover, right_cover,
          default_left=True):
    return split(feature, threshold, leaf(left_cover, left_value),
                 leaf(right_cover, right_value), default_left)


def ensemble(base_score, learning_rate, trees, column_names):
    """The ensemble of the hand-built ``trees`` in ``TreeEnsemble.to_dict`` form."""
    return TreeEnsemble.from_dict({"base_score": base_score, "learning_rate": learning_rate,
                                   "columns": list(column_names), "trees": trees})


def test_single_stump_hand_case():
    # one binary split with covers 3 / 1: E = (3*a + b) / 4; explaining a row
    # routed right gives phi = prediction - E on the split feature, 0 elsewhere
    tree = stump(0, 0.5, -1.0, 3.0, 3, 1)
    ens = ensemble(0.0, 1.0, [tree], ("f0", "f1"))
    phi, base = tree_shap(ens, np.array([1.0, 9.0]))
    expectation = (3 * -1.0 + 1 * 3.0) / 4.0
    assert base == pytest.approx(expectation)
    assert phi[0] == pytest.approx(3.0 - expectation)
    assert phi[1] == 0.0


def test_unused_feature_gets_zero_attribution():
    tree = stump(0, 0.0, 1.0, 2.0, 5, 5)
    ens = ensemble(0.5, 0.7, [tree, stump(0, 1.0, 0.0, 1.0, 4, 6)], ("f0", "f1", "f2"))
    for x in ([-1.0, 5.0, 5.0], [2.0, -5.0, 0.0]):
        phi, _ = tree_shap(ens, np.array(x))
        assert phi[1] == 0.0 and phi[2] == 0.0


def test_symmetry_for_duplicated_features():
    # two trees splitting identically on two different columns; for a row
    # where both columns carry the same value, attributions must be equal
    ens = ensemble(0.0, 1.0, [stump(0, 0.0, -1.0, 1.0, 5, 5), stump(1, 0.0, -1.0, 1.0, 5, 5)],
                   ("f0", "f1"))
    for v in (-2.0, 0.5, 3.0):
        phi, _ = tree_shap(ens, np.array([v, v]))
        assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def test_local_accuracy_and_brute_force_small():
    rng = CounterRng(101)
    for trial in range(30):
        ens, X = random_fitted_ensemble(rng, p=rng.randint(5) + 2, n_rows=20,
                                        n_trees=3, depth=3)
        mask = np.isnan(X)
        for i in (0, 7):
            phi, base = tree_shap(ens, X[i], mask[i])
            pred = ens.predict_row(X[i], mask[i])
            assert base + phi.sum() == pytest.approx(pred, abs=1e-8)
            ref, ref_base = brute_shapley(ens, X[i], mask[i])
            assert base == pytest.approx(ref_base, abs=1e-10)
            assert np.abs(phi - ref).max() < 1e-10


def test_tree_expectation_is_cover_weighted_leaf_mean():
    ens, X = random_fitted_ensemble(CounterRng(7), p=3, n_rows=30, n_trees=1)
    # path-dependent background: expectation over the training distribution
    # equals the mean over training rows only when routing is pure cover
    tree = ens.to_dict()["trees"][0]

    def weighted(node):
        if "leaf_value" in node:
            return node["cover"] * node["leaf_value"]
        return weighted(node["left"]) + weighted(node["right"])

    expectation = _bottom_up(ens)[1][ens.roots[0]]
    assert expectation == pytest.approx(weighted(tree) / tree["cover"])


def test_shap_matrix_local_accuracy_on_encoded_data():
    ds = small_dataset(9)
    X = encode_features(ds, ["total_params", "total_tokens_billions", "activation"])
    ens = fit_gbt(X.values, ds.values, GBTConfig(max_depth=3, learning_rate=0.3, n_trees=30),
                  mask=X.missing_mask, column_names=X.column_names)
    sm = shap_matrix(ens, X)
    preds = ens.predict(X.values, X.missing_mask)
    recon = sm.base_value + sm.values.sum(axis=1)
    assert recon == pytest.approx(preds, abs=1e-8)


def test_shap_matrix_column_mismatch():
    ds = small_dataset(9)
    X = encode_features(ds, ["total_params", "total_tokens_billions"])
    ens = fit_gbt(X.values, ds.values, GBTConfig(n_trees=5),
                  mask=X.missing_mask, column_names=X.column_names)
    other = encode_features(ds, ["total_params"])
    with pytest.raises(ValueError, match="column mismatch"):
        shap_matrix(ens, other)


def _planted_matrix(n=40, seed=3):
    rng = CounterRng(seed)
    values = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(n)])
    y = 3.0 * values[:, 0] + 0.1 * values[:, 1]
    X = FeatureMatrix(
        tuple(f"m{i}" for i in range(n)),
        (Column("big", "F", "identity"), Column("small", "F", "identity")),
        values,
    )
    return X, y


def test_summary_ranks_by_mean_abs_attribution():
    X, y = _planted_matrix()
    ens = fit_gbt(X.values, y, GBTConfig(max_depth=3, learning_rate=0.3, n_trees=50),
                  column_names=X.column_names)
    entries = shap_summary(ens, X)
    assert [e.feature for e in entries] == ["big", "small"]
    assert entries[0].mean_abs_phi > entries[1].mean_abs_phi
    assert len(entries[0].points) == len(X.model_ids)


def test_summary_aggregates_onehot_groups():
    ds = small_dataset(9)
    X = encode_features(ds, ["total_params", "layer_norm"])
    ens = fit_gbt(X.values, ds.values, GBTConfig(n_trees=10),
                  mask=X.missing_mask, column_names=X.column_names)
    entries = shap_summary(ens, X, aggregate_categoricals=True)
    names = [e.feature for e in entries]
    assert sorted(names) == ["layer_norm", "total_params"]
    grouped = next(e for e in entries if e.feature == "layer_norm")
    # per-row value is the active level name
    assert all(v == "rmsnorm" for v, _ in grouped.points)
    # grouped attribution equals the sum of the member columns
    sm = shap_matrix(ens, X)
    cols = [j for j, n in enumerate(sm.feature_names) if n.startswith("layer_norm=")]
    assert [p[1] for p in grouped.points] == pytest.approx(
        sm.values[:, cols].sum(axis=1))


def test_dependence_monotone_on_planted_signal():
    X, y = _planted_matrix(n=60, seed=13)
    ens = fit_gbt(X.values, y, GBTConfig(max_depth=3, learning_rate=0.3, n_trees=60),
                  column_names=X.column_names)
    points, n_missing = shap_dependence(ens, X, "big")
    assert n_missing == 0
    rho = sps.spearmanr([p[0] for p in points], [p[1] for p in points]).statistic
    assert rho > 0.9


def test_dependence_counts_missing_rows():
    X, y = _planted_matrix(n=30, seed=4)
    values = X.values.copy()
    mask = X.missing_mask.copy()
    values[:5, 0] = np.nan
    mask[:5, 0] = True
    X2 = FeatureMatrix(X.model_ids, X.columns, values)
    ens = fit_gbt(values, y, GBTConfig(n_trees=10), mask=mask,
                  column_names=X.column_names)
    points, n_missing = shap_dependence(ens, X2, "big")
    assert n_missing == 5
    assert len(points) == 25
    with pytest.raises(ValueError, match="unknown feature"):
        shap_dependence(ens, X2, "nope")


def _feature_matrix(values):
    n, p = values.shape
    return FeatureMatrix(tuple(f"m{i}" for i in range(n)),
                         tuple(Column(f"f{j}", "F", "identity") for j in range(p)),
                         values)


def test_shap_matrix_rows_are_byte_equal_to_tree_shap():
    ens, values = random_fitted_ensemble(CounterRng(55), p=4, n_rows=40, n_trees=20, depth=5,
                                         missing_rate=0.3)
    mask = np.isnan(values)
    sm = shap_matrix(ens, _feature_matrix(values))
    for i in range(values.shape[0]):
        phi, base = tree_shap(ens, values[i], mask[i])
        assert sm.values[i].tobytes() == phi.tobytes()
        assert sm.base_value == base


def test_shap_matrix_unwinds_repeated_feature_with_missing_values():
    # f0 splits twice along the root-left path, so the second split unwinds
    # the first one's path element; both f0 splits and the f1 split route
    # missing values by default direction
    inner = stump(0, -0.5, -2.0, 0.5, 2, 4, default_left=False)
    root = split(0, 0.5, inner, stump(1, 0.0, 1.0, 3.0, 3, 1, default_left=False))
    ens = ensemble(0.2, 0.5, [root, stump(1, 1.0, -1.0, 1.0, 7, 3), stump(2, 0.0, 0.3, -0.4, 5, 5)],
                   ("f0", "f1", "f2"))
    values = np.array([[-1.0, 2.0, 1.0], [0.0, np.nan, -1.0], [np.nan, np.nan, np.nan],
                       [1.0, -1.0, 0.5], [-2.0, 0.5, np.nan], [3.0, 1.5, -2.0]])
    mask = np.isnan(values)
    mask[3, 1] = True  # missing by mask although a value is present
    sm = shap_matrix(ens, _feature_matrix(np.where(mask, np.nan, values)))
    for i in range(values.shape[0]):
        ref, ref_base = brute_shapley(ens, values[i], mask[i])
        assert np.abs(sm.values[i] - ref).max() < 1e-12
        assert sm.base_value == pytest.approx(ref_base, abs=1e-12)
        phi, _ = tree_shap(ens, values[i], mask[i])
        assert sm.values[i].tobytes() == phi.tobytes()


# ---------------------------------------------------------------------------
# path arrays: every row equals the one-row recursion, bit for bit


def _fitted(seed, n, p, depth, n_trees, missing_rate):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[rng.random((n, p)) < missing_rate] = np.nan
    X[0] = rng.normal(size=p)  # keep a present value in every column
    y = rng.normal(size=n) + 2.0 * np.nan_to_num(X[:, 0])
    return fit_gbt(X, y, GBTConfig(depth, 0.5, n_trees, 1)), X


def _unwinds_per_path(node, seen=()):
    """The most splits along one root-to-leaf path on a feature split above."""
    if "leaf_value" in node:
        return 0
    j = node["split_feature"]
    here = int(j in seen)
    return here + max(_unwinds_per_path(node[side], seen + (j,)) for side in ("left", "right"))


def _assert_rows_are_the_recursion(ens, X):
    sm = shap_matrix(ens, _feature_matrix(X))
    for i in range(len(X)):
        expected = recursive_shap(ens, X[i])
        assert sm.values[i].tobytes() == expected.tobytes()
        phi, base = tree_shap(ens, X[i])
        assert phi.tobytes() == expected.tobytes() and base == sm.base_value
    return sm


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4), st.integers(1, 8),
       st.sampled_from([0.0, 0.3]))
def test_shap_matrix_rows_are_byte_equal_to_the_one_row_recursion(seed, depth, p, n_trees,
                                                                  missing_rate):
    ens, X = _fitted(seed, 24, p, depth, n_trees, missing_rate)
    _assert_rows_are_the_recursion(ens, X)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_row_subsets_and_permutations_are_byte_invariant(seed, random):
    ens, X = _fitted(seed, 30, 3, 4, 6, 0.3)
    whole = shap_matrix(ens, _feature_matrix(X))
    order = list(range(len(X)))
    random.shuffle(order)
    subset = sorted(random.sample(order, random.randint(0, len(X))))
    for rows in (order, subset):
        part = shap_matrix(ens, _feature_matrix(X[rows]))
        assert part.values.tobytes() == whole.values[rows].tobytes()
        assert part.base_value == whole.base_value


def test_a_deep_path_that_unwinds_twice_matches_brute_force():
    # depth 6 on 2 or 3 features: some path splits a feature a third time,
    # so its path element is unwound more than once
    for seed, p in ((3, 2), (4, 3), (5, 2)):
        ens, X = _fitted(seed, 40, p, 6, 4, 0.2)
        assert max(_unwinds_per_path(t) for t in ens.to_dict()["trees"]) >= 2
        sm = _assert_rows_are_the_recursion(ens, X)
        for i in range(len(X)):
            ref, ref_base = brute_shapley(ens, X[i])
            assert np.abs(sm.values[i] - ref).max() < 1e-12
            assert abs(sm.base_value - ref_base) < 1e-12


def test_one_leaf_trees_stumps_and_deep_trees_mix():
    deep, X = _fitted(7, 30, 3, 5, 2, 0.3)
    trees = deep.to_dict()["trees"]
    mixed = [leaf(30, 0.7), stump(1, 0.0, -0.5, 0.5, 12, 18), trees[0], leaf(30, -0.2),
             stump(2, 0.3, 1.0, -1.0, 20, 10, default_left=False), trees[1], leaf(30, 0.1)]
    ens = ensemble(0.25, 0.3, mixed, deep.column_names)
    sm = _assert_rows_are_the_recursion(ens, X)
    for i in range(len(X)):
        ref, ref_base = brute_shapley(ens, X[i])
        assert np.abs(sm.values[i] - ref).max() < 1e-12
        assert abs(sm.base_value - ref_base) < 1e-12
    only_leaves = ensemble(0.25, 0.3, [leaf(30, 0.7), leaf(30, 0.1)], deep.column_names)
    phi, base = tree_shap(only_leaves, X[0])
    assert not phi.any() and base == 0.25 + 0.3 * 0.7 + 0.3 * 0.1


def test_shap_matrix_memory_stays_within_two_megabytes(monkeypatch):
    # the explain benchmark's ensemble: 92 models, every encoded column, a
    # depth-4 100-tree fit; tracemalloc counts allocations, not time
    monkeypatch.setattr(shapley, "_last", None)  # a cold pass, memo included
    dataset, _ = synth_dataset(GenSpec(n_models=92, noise_sigma=0.02, missing_rate=0.2), 0)
    X = encode_features(dataset, all_feature_names())
    ens = fit_gbt(X.values, dataset.values, GBTConfig(4, 0.1, 100), X.missing_mask,
                  X.column_names)
    tracemalloc.start()
    try:
        shap_matrix(ens, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024 * 1024


def _explained():
    X, y = _planted_matrix(n=30, seed=5)
    ens = fit_gbt(X.values, y, GBTConfig(max_depth=3, learning_rate=0.3, n_trees=20),
                  column_names=X.column_names)
    return ens, X


def _counting_passes():
    return mock.patch.object(shapley, "_shap_rows", wraps=shapley._shap_rows)


def test_a_summary_and_two_dependence_plots_share_one_pass(monkeypatch):
    ens, X = _explained()
    monkeypatch.setattr(shapley, "_last", None)
    with _counting_passes() as passes:
        shap_summary(ens, X, aggregate_categoricals=True)
        shap_dependence(ens, X, "big")
        shap_dependence(ens, X, "small")
        # an equal copy of each input is the same (ensemble, rows)
        shap_matrix(dataclasses.replace(ens, nodes=ens.nodes.copy()),
                    FeatureMatrix(X.model_ids, X.columns, X.values.copy()))
    assert passes.call_count == 1


def _changed_inputs(ens, X):
    nodes = ens.nodes.copy()
    nodes["value"][np.flatnonzero(nodes["feature"] < 0)[0]] += 0.125
    cell = X.values.copy()
    cell[3, 1] += 0.5
    order = np.r_[1, 0, 2:len(X.model_ids)]
    yield "node value", dataclasses.replace(ens, nodes=nodes), X
    yield "X cell", ens, FeatureMatrix(X.model_ids, X.columns, cell)
    yield "row order", ens, FeatureMatrix(tuple(np.array(X.model_ids)[order]), X.columns,
                                          X.values[order])
    yield "learning rate", dataclasses.replace(ens, learning_rate=0.25), X


def test_the_memo_misses_on_any_change_of_what_the_pass_reads(monkeypatch):
    ens, X = _explained()
    for what, ens2, X2 in _changed_inputs(ens, X):
        monkeypatch.setattr(shapley, "_last", None)
        shap_matrix(ens, X)
        with _counting_passes() as passes:
            got = shap_matrix(ens2, X2)
        assert passes.call_count == 1, what
        cold, base = shapley._shap_rows(ens2, X2.values)
        assert got.values.tobytes() == cold.tobytes() and got.base_value == base, what


def test_a_hit_returns_a_copy_and_keeps_no_reference_to_the_inputs(monkeypatch):
    ens, X = _explained()
    monkeypatch.setattr(shapley, "_last", None)
    cold, base = shapley._shap_rows(ens, X.values)
    for _ in range(2):
        sm = shap_matrix(ens, X)
        assert sm.values.tobytes() == cold.tobytes() and sm.base_value == base
        sm.values[:] = 7.0
    with _counting_passes() as passes:
        assert shap_matrix(ens, X).values.tobytes() == cold.tobytes()
    assert passes.call_count == 0
    refs = weakref.ref(ens), weakref.ref(X)
    del ens, X
    gc.collect()
    assert [r() for r in refs] == [None, None]
