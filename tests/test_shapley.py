import numpy as np
import pytest
from scipy import stats as sps

from conftest import brute_shapley, random_fitted_ensemble, small_dataset
from perfpred.gbtree import GBTConfig, TreeEnsemble, TreeNode, fit_gbt
from perfpred.prng import CounterRng
from perfpred.registry import Column, FeatureMatrix, encode_features
from perfpred.shapley import (
    shap_dependence,
    shap_matrix,
    shap_summary,
    tree_expectation,
    tree_shap,
)


def stump(feature, threshold, left_value, right_value, left_cover, right_cover,
          default_left=True):
    return TreeNode(
        cover=left_cover + right_cover,
        split_feature=feature,
        threshold=threshold,
        default_left=default_left,
        left=TreeNode(cover=left_cover, leaf_value=left_value),
        right=TreeNode(cover=right_cover, leaf_value=right_value),
    )


def test_single_stump_hand_case():
    # one binary split with covers 3 / 1: E = (3*a + b) / 4; explaining a row
    # routed right gives phi = prediction - E on the split feature, 0 elsewhere
    tree = stump(0, 0.5, -1.0, 3.0, 3, 1)
    ens = TreeEnsemble(base_score=0.0, learning_rate=1.0, trees=[tree],
                       column_names=("f0", "f1"))
    phi, base = tree_shap(ens, np.array([1.0, 9.0]))
    expectation = (3 * -1.0 + 1 * 3.0) / 4.0
    assert base == pytest.approx(expectation)
    assert phi[0] == pytest.approx(3.0 - expectation)
    assert phi[1] == 0.0


def test_unused_feature_gets_zero_attribution():
    tree = stump(0, 0.0, 1.0, 2.0, 5, 5)
    ens = TreeEnsemble(base_score=0.5, learning_rate=0.7, trees=[tree, stump(0, 1.0, 0.0, 1.0, 4, 6)],
                       column_names=("f0", "f1", "f2"))
    for x in ([-1.0, 5.0, 5.0], [2.0, -5.0, 0.0]):
        phi, _ = tree_shap(ens, np.array(x))
        assert phi[1] == 0.0 and phi[2] == 0.0


def test_symmetry_for_duplicated_features():
    # two trees splitting identically on two different columns; for a row
    # where both columns carry the same value, attributions must be equal
    ens = TreeEnsemble(base_score=0.0, learning_rate=1.0,
                       trees=[stump(0, 0.0, -1.0, 1.0, 5, 5),
                              stump(1, 0.0, -1.0, 1.0, 5, 5)],
                       column_names=("f0", "f1"))
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
    tree = ens.trees[0]

    def weighted(node):
        if node.is_leaf:
            return node.cover * node.leaf_value
        return weighted(node.left) + weighted(node.right)

    assert tree_expectation(tree) == pytest.approx(weighted(tree) / tree.cover)


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
    inner = TreeNode(cover=6, split_feature=0, threshold=-0.5, default_left=False,
                     left=TreeNode(cover=2, leaf_value=-2.0),
                     right=TreeNode(cover=4, leaf_value=0.5))
    root = TreeNode(cover=10, split_feature=0, threshold=0.5, default_left=True, left=inner,
                    right=stump(1, 0.0, 1.0, 3.0, 3, 1, default_left=False))
    ens = TreeEnsemble(base_score=0.2, learning_rate=0.5,
                       trees=[root, stump(1, 1.0, -1.0, 1.0, 7, 3),
                              stump(2, 0.0, 0.3, -0.4, 5, 5)],
                       column_names=("f0", "f1", "f2"))
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
