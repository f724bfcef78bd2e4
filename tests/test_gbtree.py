import json
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import _cond_expectation, random_fitted_ensemble
from perfpred import gbtree
from perfpred.gbtree import (GBTConfig, TreeEnsemble, _best_splits, _grow, _presort,
                             _search_plan, fit_gbt, paper_grid, staged_batch)
from perfpred.prng import CounterRng
from perfpred.registry import Column, FeatureMatrix
from perfpred.shapley import shap_matrix, tree_shap


def hand_case():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 1.0, 2.0])
    config = GBTConfig(max_depth=1, learning_rate=1.0, n_trees=2, min_samples_leaf=1)
    return X, y, config


def test_hand_derived_two_stump_oracle():
    """Two depth-1 rounds on a 4-point dataset, derived on paper.

    Round 1 has a gain tie between thresholds 0.5 and 2.5; the lower
    threshold must win, giving leaves -1 and 1/3. Round 2 then splits at
    2.5 with leaves -2/9 and 2/3.
    """
    X, y, config = hand_case()
    ens = fit_gbt(X, y, config)
    assert ens.base_score == 1.0

    t1, t2 = ens.to_dict()["trees"]
    assert t1["threshold"] == 0.5
    assert t1["left"]["leaf_value"] == pytest.approx(-1.0)
    assert t1["right"]["leaf_value"] == pytest.approx(1.0 / 3.0)
    assert t2["threshold"] == 2.5
    assert t2["left"]["leaf_value"] == pytest.approx(-2.0 / 9.0)
    assert t2["right"]["leaf_value"] == pytest.approx(2.0 / 3.0)

    preds = ens.predict(X, np.zeros_like(X, dtype=bool))
    assert preds == pytest.approx([-2.0 / 9.0, 10.0 / 9.0, 10.0 / 9.0, 2.0])


def test_constant_targets_yield_constant_model():
    X = np.arange(12, dtype=float).reshape(6, 2)
    y = np.full(6, 0.42)
    ens = fit_gbt(X, y, GBTConfig(max_depth=3, learning_rate=0.1, n_trees=20))
    assert ens.base_score == pytest.approx(0.42)
    preds = ens.predict(X, np.zeros_like(X, dtype=bool))
    assert preds == pytest.approx(np.full(6, 0.42))
    # no split clears the gain floor, so every tree is a single leaf
    assert all("leaf_value" in t for t in ens.to_dict()["trees"])


def test_step_function_convergence():
    rng = CounterRng(11)
    X = np.array([[rng.uniform(-1, 1)] for _ in range(60)])
    y = (X[:, 0] > 0).astype(float)
    ens = fit_gbt(X, y, GBTConfig(max_depth=2, learning_rate=0.3, n_trees=100,
                                  min_samples_leaf=2))
    preds = ens.predict(X, np.zeros_like(X, dtype=bool))
    assert np.abs(preds - y).mean() < 0.01


def test_training_mse_monotone_nonincreasing():
    rng = CounterRng(5)
    for trial in range(5):
        n, p = 30, 4
        X = np.array([[rng.normal() for _ in range(p)] for _ in range(n)])
        y = np.array([rng.normal() for _ in range(n)])
        ens = fit_gbt(X, y, GBTConfig(max_depth=3, learning_rate=0.1, n_trees=60))
        staged = ens.staged_predict(X, np.zeros_like(X, dtype=bool))
        mse = ((staged - y[:, None]) ** 2).mean(axis=0)
        assert (np.diff(mse) <= 1e-12).all()


def test_fit_is_deterministic():
    ens1, X = random_fitted_ensemble(CounterRng(21), p=5)
    ens2, _ = random_fitted_ensemble(CounterRng(21), p=5)
    assert json.dumps(ens1.to_dict()) == json.dumps(ens2.to_dict())


def test_joint_row_permutation_invariance():
    rng = CounterRng(9)
    n, p = 24, 3
    X = np.array([[rng.normal() for _ in range(p)] for _ in range(n)])
    y = np.array([rng.normal() for _ in range(n)])
    config = GBTConfig(max_depth=3, learning_rate=0.3, n_trees=10)
    ens = fit_gbt(X, y, config)
    order = list(range(n))
    rng.shuffle(order)
    ens_perm = fit_gbt(X[order], y[order], config)
    grid = np.array([[rng.normal() for _ in range(p)] for _ in range(15)])
    m = np.zeros_like(grid, dtype=bool)
    assert ens.predict(grid, m) == pytest.approx(ens_perm.predict(grid, m), abs=1e-12)


def _leaf_cover_sum(node):
    if "leaf_value" in node:
        return node["cover"]
    return _leaf_cover_sum(node["left"]) + _leaf_cover_sum(node["right"])


def _check_covers(node):
    if "leaf_value" in node:
        return
    assert node["cover"] == node["left"]["cover"] + node["right"]["cover"]
    _check_covers(node["left"])
    _check_covers(node["right"])


def test_cover_bookkeeping():
    ens, X = random_fitted_ensemble(CounterRng(30), p=6, n_rows=40)
    for tree in ens.to_dict()["trees"]:
        assert _leaf_cover_sum(tree) == 40
        _check_covers(tree)


def test_min_samples_leaf_respected():
    ens, _ = random_fitted_ensemble(CounterRng(31), p=4, n_rows=30)

    def smallest_leaf(node):
        if "leaf_value" in node:
            return node["cover"]
        return min(smallest_leaf(node["left"]), smallest_leaf(node["right"]))

    assert min(smallest_leaf(t) for t in ens.to_dict()["trees"]) >= 2


def test_missing_values_route_consistently():
    # column 1 is informative only when present; a fully missing row must
    # still get a deterministic prediction via default directions
    rng = CounterRng(8)
    X = np.array([[rng.normal(), rng.normal()] for _ in range(30)])
    y = X[:, 0] + 2.0 * X[:, 1]
    X[::3, 1] = np.nan
    ens = fit_gbt(X, y, GBTConfig(max_depth=3, learning_rate=0.3, n_trees=20))
    row = np.array([np.nan, np.nan])
    a = ens.predict_row(row, np.array([True, True]))
    b = ens.predict_row(row, np.isnan(row))
    assert a == b
    assert np.isfinite(a)


def test_nan_treated_as_missing_equivalently():
    rng = CounterRng(14)
    X = np.array([[rng.normal() for _ in range(3)] for _ in range(25)])
    y = np.array([rng.normal() for _ in range(25)])
    mask = np.zeros_like(X, dtype=bool)
    mask[::4, 1] = True
    X_nan = X.copy()
    X_nan[mask] = np.nan
    e1 = fit_gbt(X, y, GBTConfig(n_trees=10), mask=mask)
    e2 = fit_gbt(X_nan, y, GBTConfig(n_trees=10))
    assert json.dumps(e1.to_dict()) == json.dumps(e2.to_dict())
    # the mask covers present values, which it must hide from routing and
    # attribution alike
    assert e1.predict(X).tobytes() != e1.predict(X, mask).tobytes()
    assert e1.predict(X, mask).tobytes() == e1.predict(X_nan).tobytes()
    assert e1.staged_predict(X, mask).tobytes() == e1.staged_predict(X_nan).tobytes()
    sm = shap_matrix(e1, FeatureMatrix(tuple(f"m{i}" for i in range(25)),
                                       tuple(Column(f"f{j}", "F", "identity") for j in range(3)),
                                       X_nan))
    for i in range(25):
        phi, base = tree_shap(e1, X[i], mask[i])
        assert phi.tobytes() == tree_shap(e1, X_nan[i])[0].tobytes() == sm.values[i].tobytes()
        assert base == sm.base_value


def test_serialization_roundtrip():
    ens, X = random_fitted_ensemble(CounterRng(40), p=4)
    clone = TreeEnsemble.from_dict(json.loads(json.dumps(ens.to_dict())))
    mask = np.isnan(X)
    assert clone.predict(X, mask) == pytest.approx(ens.predict(X, mask), abs=0)


def assert_same_table(a, b):
    for name in ("nodes", "roots"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def edge_ensembles():
    """Fits with no trees, with one-leaf trees only, and deep ones, with the
    rows they were fitted on."""
    rng = np.random.default_rng(12)
    X = rng.normal(size=(16, 3))
    X[rng.random(X.shape) < 0.3] = np.nan
    y = rng.normal(size=16)
    deep = [fit_gbt(X, y, GBTConfig(max_depth=5, learning_rate=0.3, n_trees=n))
            for n in (0, 7)]
    flat = fit_gbt(X, np.full(16, 0.25), GBTConfig(max_depth=3, n_trees=4))
    return [(e, X) for e in (*deep, flat)]


def test_node_table_roundtrips_through_to_dict():
    rng = CounterRng(41)
    fits = edge_ensembles() + [random_fitted_ensemble(rng, n_trees=5, depth=rng.randint(5) + 1)
                               for _ in range(6)]
    for ens, _ in fits:
        assert_same_table(TreeEnsemble.from_dict(json.loads(json.dumps(ens.to_dict()))), ens)
        # nodes are numbered so that every child comes after its parent
        nodes = ens.nodes
        split = np.flatnonzero(nodes["feature"] >= 0)
        assert (nodes["left"][split] > split).all()
        assert (nodes["right"][split] == nodes["left"][split] + 1).all()
        assert (nodes["left"][nodes["feature"] < 0] == -1).all()
        assert np.isnan(nodes["value"][split]).all()
    assert edge_ensembles()[0][0].roots.dtype == np.intp


def assert_staged_is_the_dict_walk(ens, X, mask):
    # routing every feature through the Shapley oracle reaches the leaf each
    # row takes; accumulating base + lr * leaf tree by tree must give every
    # staged column bit for bit, and predict the last one
    staged = ens.staged_predict(X, mask)
    everything = set(range(X.shape[1]))
    for i in range(X.shape[0]):
        acc = ens.base_score
        want = [acc]
        for tree in ens.to_dict()["trees"]:
            acc += ens.learning_rate * _cond_expectation(tree, X[i], mask[i], everything)
            want.append(acc)
        assert staged[i].tobytes() == np.array(want).tobytes()
        assert ens.predict_row(X[i], mask[i]) == staged[i, -1]
    assert ens.predict(X, mask).tobytes() == staged[:, -1].tobytes()


def test_staged_predict_is_the_sequential_sum_of_routed_leaves():
    rng = CounterRng(17)
    for trial in range(12):
        ens, X = random_fitted_ensemble(rng, n_rows=20, n_trees=6,
                                        depth=rng.randint(4) + 1, missing_rate=0.3)
        mask = np.array([[rng.uniform() < 0.2 for _ in range(X.shape[1])]
                         for _ in range(X.shape[0])])
        assert_staged_is_the_dict_walk(ens, X, mask)


def test_staged_predict_walks_empty_and_one_leaf_ensembles_and_all_missing_rows():
    for ens, X in edge_ensembles():
        X = np.vstack([X, np.full(X.shape[1], np.nan)])
        mask = np.zeros(X.shape, dtype=bool)
        mask[::3] = True  # every third row missing by mask
        assert_staged_is_the_dict_walk(ens, X, mask)
        assert ens.staged_predict(X[:0]).shape == (0, len(ens.roots) + 1)


def test_a_zero_tree_fit_predicts_its_base_score():
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(10, 2)), rng.normal(size=10)
    X[rng.random(X.shape) < 0.3] = np.nan
    config = GBTConfig(n_trees=0)
    ens = fit_gbt(X, y, config)
    assert len(ens.nodes) == len(ens.roots) == 0
    assert ens.to_dict()["trees"] == []
    assert ens.predict(X).tobytes() == np.full(10, ens.base_score).tobytes()
    (held,) = staged_batch(X, y, [config], [np.arange(10)], [np.arange(10)], [[0]])
    assert held.tobytes() == ens.staged_predict(X)[:, [0]].tobytes()


def test_input_validation():
    with pytest.raises(ValueError, match="empty"):
        fit_gbt(np.empty((0, 2)), np.empty(0), GBTConfig())
    with pytest.raises(ValueError, match="NaN"):
        fit_gbt(np.ones((4, 1)), np.array([1.0, np.nan, 0.0, 0.0]), GBTConfig())
    with pytest.raises(ValueError, match="too few rows"):
        fit_gbt(np.ones((3, 1)), np.ones(3), GBTConfig(min_samples_leaf=2))
    with pytest.raises(ValueError, match="all feature values missing"):
        fit_gbt(np.full((6, 2), np.nan), np.ones(6), GBTConfig())
    with pytest.raises(ValueError):
        GBTConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        GBTConfig(max_depth=0)
    ens, _ = random_fitted_ensemble(CounterRng(2), p=3)
    with pytest.raises(ValueError, match="column mismatch"):
        ens.predict_row(np.zeros(2), np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="column mismatch"):
        ens.staged_predict(np.zeros((2, 4)), np.zeros((2, 4), dtype=bool))


MASK_ENTRIES = {
    # a (3,) mask broadcasts over every row of a 10 x 3 X, a 0-d one over a row
    "fit_gbt": lambda ens, X: fit_gbt(X, X[:, 0], GBTConfig(n_trees=2),
                                      mask=np.array([True, False, False])),
    "predict": lambda ens, X: ens.predict(X, np.array([True, False, False])),
    "staged_predict": lambda ens, X: ens.staged_predict(X, np.array([True, False, False])),
    "predict_row": lambda ens, X: ens.predict_row(X[0], np.array(True)),
    "tree_shap": lambda ens, X: tree_shap(ens, X[0], np.array(True)),
}


@pytest.mark.parametrize("entry", MASK_ENTRIES)
def test_a_mask_not_of_x_shape_is_refused(entry):
    ens, X = random_fitted_ensemble(CounterRng(2), p=3, n_rows=10, missing_rate=0)
    with pytest.raises(ValueError, match="mask shape"):
        MASK_ENTRIES[entry](ens, X)


def test_paper_grid_shape():
    grid = paper_grid()
    assert len(grid) == 18
    assert len({(c.max_depth, c.learning_rate, c.n_trees) for c in grid}) == 18
    assert {c.max_depth for c in grid} == {2, 3, 5}
    assert {c.learning_rate for c in grid} == {0.01, 0.1, 0.3}
    assert {c.n_trees for c in grid} == {50, 100}
    assert all(c.min_samples_leaf == 2 for c in grid)


# ---------------------------------------------------------------------------
# root split semantics against a brute-force search


@st.composite
def split_problems(draw):
    """Small integer matrices: many value ties, missing entries, and integer
    targets whose mean is an integer, so every root residual, sum and
    square sum is exact in floating point."""
    n = draw(st.integers(4, 14))
    p = draw(st.integers(1, 4))
    cells = st.lists(st.integers(0, 3), min_size=n * p, max_size=n * p)
    X = np.array(draw(cells), dtype=float).reshape(n, p)
    flags = st.lists(st.booleans(), min_size=n * p, max_size=n * p)
    missing = np.array(draw(flags)).reshape(n, p) & draw(st.booleans())
    y = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    y[-1] -= y.sum() % n
    min_leaf = draw(st.integers(1, min(3, n // 2)))
    as_nan = draw(st.booleans())
    return X, missing, y, min_leaf, as_nan


def brute_force_root(X, missing, y, min_leaf):
    """Every (feature, midpoint, missing side) by exact SSE. Returns the
    first optimum in (feature, threshold, left before right) order, or None
    when no split gains, plus the side statistics of every optimum."""
    r = [Fraction(int(v)) for v in y - y.mean()]
    node_sse = sum(v * v for v in r) - sum(r) ** 2 / len(r)
    candidates = []
    for j in range(X.shape[1]):
        present = ~missing[:, j]
        levels = np.unique(X[present, j])
        for a, b in zip(levels[:-1], levels[1:]):
            thr = 0.5 * (a + b)
            for default_left in (True, False):
                left = np.where(missing[:, j], default_left, X[:, j] < thr)
                sides = [[v for v, g in zip(r, left) if g == side] for side in (True, False)]
                if min(len(sides[0]), len(sides[1])) < min_leaf:
                    continue
                stats = tuple((len(s), sum(s), sum(v * v for v in s)) for s in sides)
                sse = sum(q - t * t / c for c, t, q in stats)
                candidates.append((sse, stats, (j, thr, default_left)))
    if not candidates:
        return None, set()
    best = min(c[0] for c in candidates)
    optima = [c for c in candidates if c[0] == best]
    if node_sse - best == 0:
        return None, set()
    return optima[0][2], {c[1] for c in optima}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(split_problems())
def test_root_split_matches_brute_force_search(problem):
    X, missing, y, min_leaf, as_nan = problem
    assume(not missing.all())
    expected, optimum_stats = brute_force_root(X, missing, y, min_leaf)
    # equal exact SSEs from different side sums may round apart in floating
    # point; equal side sums give bit-equal SSEs, so their tie is decidable
    assume(len(optimum_stats) <= 1)
    config = GBTConfig(max_depth=1, learning_rate=1.0, n_trees=1, min_samples_leaf=min_leaf)
    if as_nan:
        ens = fit_gbt(np.where(missing, np.nan, X), y, config)
    else:
        ens = fit_gbt(X, y, config, mask=missing)
    root = ens.to_dict()["trees"][0]
    if expected is None:
        assert "leaf_value" in root
    else:
        assert (root["split_feature"], root["threshold"],
                root["default_direction"] == "left") == expected


def block_search(XT, Rn, sizes, min_leaf):
    """The level search on a block of nodes: node ``i`` holds the first
    ``sizes[i]`` values of ``XT[:, i]`` (column, node, position), in row
    order, with residuals ``Rn[i]``. Each (node, position) is one row of a
    canonical matrix, presorted and searched as ``_grow`` searches a level:
    (sse_after, feature, threshold, default_left) per node."""
    c, g, k = XT.shape
    pad = g * k
    canonical = np.hstack([XT.reshape(c, -1), np.full((c, 1), np.nan)])
    R = np.append(Rn.reshape(-1), 0.0)[None]
    roots = np.where(np.arange(k) < sizes[:, None], np.arange(pad).reshape(g, k), pad)
    cols, _, order, n_present = _presort(canonical, roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        plan = _search_plan(canonical, cols, order, n_present, sizes, min_leaf,
                            np.zeros(g, np.intp))
        return _best_splits(plan, R, g)[:4]


def score_one_node(X, r, min_leaf):
    """The level search on one node whose rows are all of ``X``, in order:
    (sse_after, feature, threshold, default_left)."""
    found = block_search(X.T[:, None, :], r[None], np.array([len(r)]), np.array([min_leaf]))
    return tuple(v[0].item() for v in found)


def test_split_sse_is_bit_equal_to_one_column_scoring():
    # the missing-side sums follow 1-D np.sum, whose summation order changes
    # at 8 terms; residuals spanning many magnitudes expose any other order
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = 40
        X = rng.normal(size=(n, 3))
        mask = rng.random((n, 3)) < 0.5
        r = rng.normal(size=n) * 10.0 ** rng.integers(-4, 5, size=n)
        sse, j, thr, default_left = score_one_node(np.where(mask, np.nan, X), r, 1)
        m = mask[:, j]
        sr = r[~m][np.argsort(X[~m, j], kind="stable")]
        cs, css = np.cumsum(sr), np.cumsum(sr * sr)
        b = int((X[~m, j] < thr).sum())  # present rows on the left
        sums = [cs[b - 1], cs[-1] - cs[b - 1]]
        squares = [css[b - 1], css[-1] - css[b - 1]]
        counts = [b, len(sr) - b]
        side = 0 if default_left else 1
        rm = r[m]
        sums[side] += rm.sum()
        squares[side] += (rm * rm).sum()
        counts[side] += len(rm)
        left, right = (q - s * s / c for s, q, c in zip(sums, squares, counts))
        assert sse == left + right


# ---------------------------------------------------------------------------
# the level pass: scoring a level's nodes in one block equals scoring each
# node alone


def fit_json(X, y, config, mask=None, cells=gbtree.LEVEL_CELLS):
    with mock.patch.object(gbtree, "LEVEL_CELLS", cells):
        return json.dumps(fit_gbt(X, y, config, mask=mask).to_dict())


@st.composite
def boosting_problems(draw):
    """Narrow fits with value ties, NaN or masked entries (up to 60%
    missing), targets over many magnitudes, and every depth and leaf size
    the paper grid could meet."""
    n = draw(st.integers(6, 15))
    p = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        X = rng.integers(0, 3, size=(n, p)).astype(float)
    else:
        X = rng.normal(size=(n, p))
    missing = rng.random((n, p)) < draw(st.sampled_from([0.0, 0.2, 0.4, 0.6]))
    y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    config = GBTConfig(max_depth=draw(st.integers(1, 5)), learning_rate=0.3,
                       n_trees=draw(st.integers(1, 12)),
                       min_samples_leaf=draw(st.integers(1, 3)))
    as_nan = draw(st.booleans())
    return X, missing, y, config, as_nan


@settings(max_examples=150, deadline=None, derandomize=True)
@given(boosting_problems())
def test_a_level_scores_like_its_nodes_one_by_one(problem):
    # LEVEL_CELLS = 1 searches each node in a block of its own, unpadded
    X, missing, y, config, as_nan = problem
    assume(len(y) >= 2 * config.min_samples_leaf and not missing.all())
    if as_nan:
        X, mask = np.where(missing, np.nan, X), None
    else:
        mask = missing
    assert fit_json(X, y, config, mask) == fit_json(X, y, config, mask, cells=1)


def test_a_wide_level_scores_like_its_nodes_one_by_one():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 30))
    X[rng.random(X.shape) < 0.4] = np.nan
    y = rng.normal(size=40)
    config = GBTConfig(max_depth=4, learning_rate=0.3, n_trees=8, min_samples_leaf=2)
    assert fit_json(X, y, config) == fit_json(X, y, config, cells=1)
    assert fit_json(X, y, config) == fit_json(X, y, config, cells=10**9)
    # a level of many fits, some blocks holding several of them
    rows = [np.flatnonzero(rng.random(40) < 0.7) for _ in range(6)]
    configs = [GBTConfig(d, 0.3, 5) for d in (2, 3, 4, 5, 3, 4)]
    alone = fitted_alone(X, y, configs, rows)  # at the default LEVEL_CELLS
    for cells in (1, 3000, gbtree.LEVEL_CELLS):
        with mock.patch.object(gbtree, "LEVEL_CELLS", cells):
            assert_each_fit_predicts_as_alone(X, y, configs, rows, alone)


def one_column_split(x, r, min_leaf):
    """One node's best split on one column by 1-D sums: the present rows in
    stable sorted order, their residual sums taken with np.cumsum, the
    missing rows' with np.sum. Returns (sse, threshold, default_left) or
    None, preferring the lowest SSE, then threshold, then missing left."""
    miss = np.isnan(x)
    order = np.argsort(x[~miss], kind="stable")
    xs, rs, rm = x[~miss][order], r[~miss][order], r[miss]
    cs, css = np.cumsum(rs), np.cumsum(rs * rs)
    ms, mss = np.sum(rm), np.sum(rm * rm)
    best = None
    for b in range(1, len(rs)):  # b present rows on the left
        if not xs[b - 1] < xs[b]:
            continue
        for default_left in (True, False) if len(rm) else (True,):
            sums = [cs[b - 1], cs[-1] - cs[b - 1]]
            squares = [css[b - 1], css[-1] - css[b - 1]]
            counts = [b, len(rs) - b]
            side = 0 if default_left else 1
            sums[side] += ms
            squares[side] += mss
            counts[side] += len(rm)
            if min(counts) < min_leaf:
                continue
            sse = (squares[0] - sums[0] * sums[0] / counts[0]) + \
                (squares[1] - sums[1] * sums[1] / counts[1])
            key = (sse, b, not default_left)
            if best is None or key < best[0]:
                best = (key, (sse, 0.5 * (xs[b - 1] + xs[b]), default_left))
    return None if best is None else best[1]


def test_level_pass_sums_are_bit_equal_to_one_node_one_column_scoring():
    # np.sum switches from sequential to blocked pairwise summation at 8
    # terms: one level holds nodes of 7, 8 and 9 rows beside larger ones,
    # columns with 8 or more missing rows, and columns with exactly two
    # present values, every one padded to the level's widest node
    rng = np.random.default_rng(7)
    sizes = np.array([7, 8, 9, 9, 8, 12, 17, 24, 31])
    min_leaf = np.array([1, 2, 1, 2, 1, 1, 2, 1, 3])
    p, k = 5, sizes.max()
    for _ in range(10):
        XT = np.full((p, len(sizes), k), np.nan)
        Rn = np.full((len(sizes), k), 12345.678)  # the padding, never summed
        for i, size in enumerate(sizes.tolist()):
            x = rng.integers(0, 4, size=(p, size)).astype(float)
            x[rng.random(x.shape) < 0.3] = np.nan
            if size >= 10:
                x[0, :] = np.nan
                x[0, rng.choice(size, 2, replace=False)] = (1.0, 2.0)  # two present values
                x[1, rng.choice(size, 8, replace=False)] = np.nan  # 8 or more missing rows
            XT[:, i, :size] = x
            Rn[i, :size] = rng.normal(size=size) * 10.0 ** rng.integers(-6, 7, size=size)
        assert [int(np.isnan(XT[1, i, :size]).sum()) >= 8 for i, size in enumerate(sizes)] == \
            [size >= 10 for size in sizes]
        found = [block_search(XT[j:j + 1], Rn, sizes, min_leaf) for j in range(p)]
        found.append(block_search(XT, Rn, sizes, min_leaf))
        for i, size in enumerate(sizes.tolist()):
            by_column = [one_column_split(XT[j, i, :size], Rn[i, :size], min_leaf[i])
                         for j in range(p)]
            for j, split in enumerate(by_column):
                sse, _, threshold, default_left = (v[i] for v in found[j])
                if split is None:
                    assert sse == np.inf
                else:
                    assert sse.tobytes() == np.float64(split[0]).tobytes()
                    assert (threshold, default_left) == split[1:]
            # the whole block picks the lowest SSE, then the lowest feature
            best = min((s[0], j) for j, s in enumerate(by_column) if s is not None)[1]
            assert found[-1][0][i].tobytes() == np.float64(by_column[best][0]).tobytes()
            assert (found[-1][1][i], found[-1][2][i], found[-1][3][i]) == \
                (best, *by_column[best][1:])

    # the level's node means are one exact-length sum per node size
    R = np.hstack([rng.normal(size=(len(sizes), 40)) * 10.0 ** rng.integers(-6, 7, 40),
                   np.zeros((len(sizes), 1))])
    rows = np.full((len(sizes), k), 40)
    for i, size in enumerate(sizes.tolist()):
        rows[i, :size] = np.sort(rng.choice(40, size, replace=False))
    pool = np.empty(len(sizes), gbtree.NODE)
    roots = (rows, sizes, np.zeros(0, np.intp), np.zeros((0, 41), bool),
             np.zeros((0, len(sizes), k), np.intp), np.zeros((0, len(sizes)), np.intp))
    train_pred, _, end = _grow(np.full((1, 41), np.nan), roots, R, np.zeros(len(sizes), int),
                               min_leaf, pool, np.arange(len(sizes)))
    assert end.tolist() == list(range(1, len(sizes) + 1))  # one leaf each
    for i, size in enumerate(sizes.tolist()):
        mean = np.mean(R[i, rows[i, :size]])
        assert pool["value"][i].tobytes() == mean.tobytes()
        assert (train_pred[i, rows[i, :size]] == mean).all()


def fit_canonical_matrix(X, y, config, mask=None):
    """Fit and return the canonical (row-sorted) matrix the fit grew its trees on."""
    seen = []

    def grow(XT, *args):
        seen.append(XT[:, :-1].T.copy())  # less the padding row
        return _grow(XT, *args)

    with mock.patch.object(gbtree, "_grow", grow):
        fit_gbt(X, y, config, mask)
    return seen[0]


@st.composite
def row_order_problems(draw):
    """Rows with value ties, -0.0 beside 0.0, +-inf, NaN or masked cells and
    all-missing rows."""
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, 4))
    cell = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan])
    X = np.array(draw(st.lists(cell, min_size=n * p, max_size=n * p))).reshape(n, p)
    flags = st.lists(st.booleans(), min_size=n * p, max_size=n * p)
    mask = np.array(draw(flags)).reshape(n, p) & draw(st.booleans())
    X[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = np.nan
    y = np.array(draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0]), min_size=n, max_size=n)))
    return X, mask, y


@settings(max_examples=100, deadline=None, derandomize=True)
@given(row_order_problems())
def test_canonical_row_order_equals_the_missing_flag_and_value_key_pairs(problem):
    # rows were once ordered on two keys per column, a missing flag and the
    # value with missing as inf; one NaN-last key per column gives that order
    X, mask, y = problem
    gone = mask | np.isnan(X)
    assume(not gone.all())
    keys = [y]
    for j in range(X.shape[1] - 1, -1, -1):
        keys += [gone[:, j], np.where(gone[:, j], np.inf, X[:, j])]
    order = np.lexsort(keys)
    canonical = fit_canonical_matrix(X, y, GBTConfig(n_trees=1, min_samples_leaf=1), mask)
    assert canonical.tobytes() == np.where(gone, np.nan, X)[order].tobytes()


def test_node_without_admissible_split_is_a_leaf():
    # a constant column, a tied column whose one odd value would leave fewer
    # than min_samples_leaf rows on its side, and a column missing all but once
    X = np.array([[1.0, 0.0, np.nan], [1.0, 0.0, np.nan], [1.0, 0.0, 5.0],
                  [1.0, 0.0, np.nan], [1.0, 1.0, np.nan]])
    y = np.array([0.0, 1.0, 3.0, 0.5, 2.0])
    assert score_one_node(X, y - y.mean(), 2)[0] == np.inf
    assert score_one_node(X, y[::-1].copy(), 2)[0] == np.inf
    config = GBTConfig(max_depth=3, learning_rate=0.5, n_trees=4, min_samples_leaf=2)
    ens = fit_gbt(X, y, config)
    assert all("leaf_value" in t and t["cover"] == 5 for t in ens.to_dict()["trees"])
    assert fit_json(X, y, config) == fit_json(X, y, config, cells=1)


def test_a_node_that_splits_differently_in_a_later_round_gets_its_own_children():
    # the root splits at 0.5 in round 1 and at 1.5 in round 2: the same
    # membership, so its children must follow each round's split
    X = np.array([[0.0], [1.0], [2.0], [2.0], [2.0], [3.0]])
    y = np.array([2.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    config = GBTConfig(max_depth=2, learning_rate=0.5, n_trees=2, min_samples_leaf=1)
    ens = fit_gbt(X, y, config)
    trees = ens.to_dict()["trees"]
    assert [(t["split_feature"], t["threshold"]) for t in trees] == [(0, 0.5), (0, 1.5)]
    for tree in trees:
        assert tree["left"]["cover"] == int((X[:, 0] < tree["threshold"]).sum())
        assert tree["right"]["cover"] == 6 - tree["left"]["cover"]
    assert fit_json(X, y, config) == fit_json(X, y, config, cells=1)


def test_a_threshold_never_rounds_onto_the_value_below():
    # the midpoint of -inf and 1 is -inf, and the midpoint of 1 and the next
    # float rounds onto 1: either would send every row right. The threshold
    # is then the value above, so each child holds the rows counted for it
    b = np.nextafter(1.0, 2.0)
    cases = [(np.array([[-np.inf], [1.0], [2.0], [3.0]]), np.array([5.0, 0.0, 0.0, 0.0]), 1.0),
             (np.array([[1.0], [1.0], [b], [b]]), np.array([0.0, 0.0, 1.0, 1.0]), b)]
    config = GBTConfig(max_depth=2, learning_rate=1.0, n_trees=1, min_samples_leaf=1)
    for X, y, threshold in cases:
        tree = fit_gbt(X, y, config).to_dict()["trees"][0]
        assert tree["threshold"] == threshold
        left = int((X[:, 0] < threshold).sum())
        assert (tree["left"]["cover"], tree["right"]["cover"]) == (left, len(y) - left)
        assert left > 0 and not np.isnan(tree["left"]["leaf_value"])
        assert fit_json(X, y, config) == fit_json(X, y, config, cells=1)


# values whose midpoints round onto the value below, are -inf, NaN or
# overflow to inf
EDGE_VALUES = [-np.inf, -1.7e308, -1.0, np.nextafter(-1.0, 0.0), 0.0, 5e-324, 1.0,
               np.nextafter(1.0, 2.0), 1.7e308, np.inf, np.nan]


@st.composite
def edge_problems(draw):
    n = draw(st.integers(4, 16))
    p = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.lists(st.sampled_from(EDGE_VALUES), min_size=p, max_size=p),
                               min_size=n, max_size=n)))
    assume((~np.isnan(X)).any(axis=1).any())
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    config = GBTConfig(max_depth=draw(st.integers(1, 4)), learning_rate=1.0,
                       n_trees=draw(st.integers(1, 3)),
                       min_samples_leaf=draw(st.integers(1, max(1, n // 2))))
    return X, y, config


def _check_routed_rows(node, X, min_leaf):
    """Every child holds the rows routed to it, min_leaf or more, and every
    leaf value is a number."""
    assert node["cover"] == len(X)
    if "leaf_value" in node:
        assert not np.isnan(node["leaf_value"])
        return
    left = gbtree.goes_left(X[:, node["split_feature"]], node["threshold"],
                            node["default_direction"] == "left")
    assert left.sum() >= min_leaf and (~left).sum() >= min_leaf
    _check_routed_rows(node["left"], X[left], min_leaf)
    _check_routed_rows(node["right"], X[~left], min_leaf)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edge_problems())
def test_every_child_holds_the_rows_its_split_counted(problem):
    X, y, config = problem
    assume(len(y) >= 2 * config.min_samples_leaf)
    for tree in fit_gbt(X, y, config).to_dict()["trees"]:
        _check_routed_rows(tree, X, config.min_samples_leaf)


# ---------------------------------------------------------------------------
# lockstep batches: every fit of a batch predicts as fit_gbt on its rows alone


def fitted_alone(X, y, configs, rows):
    """Each fit's staged predictions of every row of X by ``fit_gbt`` on
    that fit's rows alone."""
    return [fit_gbt(X[r], y[r], c).staged_predict(X) for c, r in zip(configs, rows)]


def assert_each_fit_predicts_as_alone(X, y, configs, rows, alone=None):
    """``staged_batch`` asked for every row of X after every round, byte for
    byte against ``alone``, by default ``fitted_alone``."""
    every = np.arange(len(X))
    got = staged_batch(X, y, configs, rows, [every] * len(configs),
                       [range(c.n_trees + 1) for c in configs])
    if alone is None:
        alone = fitted_alone(X, y, configs, rows)
    for predicted, expected in zip(got, alone, strict=True):
        assert predicted.shape == expected.shape
        assert predicted.tobytes() == expected.tobytes()


@st.composite
def batch_problems(draw):
    """Shared rows (9 to 40, so node sums reach 8 terms and more) with value
    ties, NaN cells (a mask folded in), and configs of every depth, leaf size
    and several rates; their tree counts differ, so fits retire in different
    rounds, and repeated configs share every node."""
    n = draw(st.integers(9, 40))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, 3, size=(n, p)).astype(float)
    else:
        X = rng.normal(size=(n, p))
    X[rng.random((n, p)) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = np.nan
    y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    config = st.builds(GBTConfig, max_depth=st.integers(1, 5),
                       learning_rate=st.sampled_from([0.01, 0.1, 0.3, 1.0]),
                       n_trees=st.integers(0, 6), min_samples_leaf=st.integers(1, 3))
    configs = draw(st.lists(config, min_size=2, max_size=6))
    return X, y, configs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch_problems())
def test_each_fit_of_a_batch_equals_its_config_fitted_alone(problem):
    X, y, configs = problem
    assume(not np.isnan(X).all())
    assert_each_fit_predicts_as_alone(X, y, configs, [np.arange(len(X))] * len(configs))


# ---------------------------------------------------------------------------
# root memberships: a fit over some rows of a shared matrix is the fit of
# those rows alone


@st.composite
def membership_problems(draw):
    """One shared matrix (8 to 30 rows) with NaN cells (a mask folded in),
    duplicated rows and a column that is constant or missing inside the
    first fit's rows only, and fits over row subsets of it."""
    n = draw(st.integers(8, 30))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, 3, size=(n, p)).astype(float)
    else:
        X = rng.normal(size=(n, p))
    X[rng.random((n, p)) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = np.nan
    y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    copies = rng.choice(n, size=n // 3, replace=False)
    X[copies[1:]] = X[copies[0]]  # duplicate rows; the first half keep their own targets
    y[copies[len(copies) // 2:]] = y[copies[0]]
    config = st.builds(GBTConfig, max_depth=st.integers(1, 5),
                       learning_rate=st.sampled_from([0.01, 0.1, 0.3, 1.0]),
                       n_trees=st.integers(0, 6), min_samples_leaf=st.integers(1, 3))
    configs = draw(st.lists(config, min_size=1, max_size=5))
    share = st.sampled_from([0.4, 0.7, 1.0])
    rows = [np.flatnonzero(rng.random(n) < draw(share)) for _ in configs]
    X[rows[0], rng.integers(p)] = draw(st.sampled_from([1.0, np.nan]))  # inert in fit 0 only
    if draw(st.booleans()):
        X[rng.random((n, p)) < 0.2] = np.nan  # a mask, folded in
    return X, y, configs, rows


def trainable(X, configs, rows):
    return all(len(r) >= 2 * c.min_samples_leaf and not np.isnan(X[r]).all()
               for c, r in zip(configs, rows))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(membership_problems())
def test_each_fit_over_a_membership_equals_fit_gbt_on_its_rows(problem):
    X, y, configs, rows = problem
    assume(trainable(X, configs, rows))
    assert_each_fit_predicts_as_alone(X, y, configs, rows)


@st.composite
def held_out_problems(draw):
    """Memberships of one shared matrix, as above, with all-missing rows
    appended outside every membership; each fit's held-out rows are drawn
    from every row, repeats included, and its stages from 0..n_trees in any
    order. Some batches mix 50- and 100-tree fits, so half retire early."""
    X, y, configs, rows = draw(membership_problems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.vstack([X, np.full((2, X.shape[1]), np.nan)])  # every split feature missing
    y = np.append(y, [np.nan, np.nan])  # no fit trains on them
    if draw(st.booleans()):
        configs = [replace(c, n_trees=draw(st.sampled_from([50, 100])))
                   for c in configs[:2]]
        rows = rows[:2]
    tests = [rng.integers(0, len(X), size=draw(st.integers(0, 12))) for _ in configs]
    stages = [np.arange(c.n_trees + 1) if draw(st.booleans())
              else rng.integers(0, c.n_trees + 1, size=3) for c in configs]
    return X, y, configs, rows, tests, stages


@settings(max_examples=40, deadline=None, derandomize=True)
@given(held_out_problems())
def test_a_tree_less_batch_predicts_its_held_out_rows_as_the_fitted_ensembles_do(problem):
    X, y, configs, rows, tests, stages = problem
    assume(trainable(X, configs, rows))
    got = staged_batch(X, y, configs, rows, tests, stages)
    for predicted, config, r, test, ks in zip(got, configs, rows, tests, stages):
        staged = fit_gbt(X[r], y[r], config).staged_predict(X[test])
        assert predicted.shape == (len(test), len(ks))
        assert predicted.tobytes() == staged[:, ks].tobytes()


def test_a_tree_less_batch_refuses_a_stage_past_its_trees():
    X, y = np.arange(8.0)[:, None], np.arange(8.0)
    with pytest.raises(ValueError, match="stage"):
        staged_batch(X, y, [GBTConfig(n_trees=3)], [np.arange(8)], [np.arange(2)], [[4]])
    with pytest.raises(ValueError, match="one held-out row set"):
        staged_batch(X, y, [GBTConfig(n_trees=3)], [np.arange(8)], [], [[1]])


def test_a_membership_fit_gbt_would_refuse_raises_its_error():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(12, 2))
    X[9:] = np.nan
    y = rng.normal(size=12)
    y[8] = np.nan  # outside every membership but one
    good = np.arange(8)
    for rows, config in [(np.arange(0), GBTConfig()), (np.arange(3), GBTConfig()),
                         (np.arange(9, 12), GBTConfig(min_samples_leaf=1)),
                         (np.arange(6, 10), GBTConfig(min_samples_leaf=1))]:
        with pytest.raises(ValueError) as alone:
            fit_gbt(X[rows], y[rows], config)
        with pytest.raises(ValueError) as batch:
            staged_batch(X, y, [GBTConfig(), config], [good, rows], [good, good], [[0], [0]])
        assert str(batch.value) == str(alone.value)
    # the NaN target is not a member
    assert_each_fit_predicts_as_alone(X, y, [GBTConfig(n_trees=2)], [good])


_SPECIAL_TERMS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
                           1e300, -1e300, 1e-300])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 300), min_size=1, max_size=6),
       st.sampled_from([0.0, 0.02, 0.3]), st.sampled_from([6, 300]))
def test_exact_sums_equal_numpy_sum_of_each_row(seed, lengths, special, decades):
    # lengths 0 to 300 in one call, across numpy's sequential (< 8), lane
    # (8 to 128) and halving (> 128) regimes; terms spanning many magnitudes
    # (any other summation order rounds differently), with zeros of either
    # sign, infinities, NaN, subnormals and values that overflow in some
    # orders only
    rng = np.random.default_rng(seed)
    n = np.array(lengths)
    T = np.zeros((max(n.max(), 1), len(n)))
    for i, m in enumerate(lengths):
        terms = rng.normal(size=m) * 10.0 ** rng.integers(-decades, decades + 1, size=m)
        odd = rng.random(m) < special
        terms[odd] = rng.choice(_SPECIAL_TERMS, size=odd.sum())
        T[:m, i] = terms
    with np.errstate(invalid="ignore", over="ignore"):
        got = gbtree._exact_sums(T, n)
        want = np.array([np.add.reduce(T[:m, i].copy()) for i, m in enumerate(lengths)])
    # bit for bit, but for which NaN (x86 gives inf - inf a negative one, so
    # a NaN's sign follows the order its operands meet in)
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(1, 4))
def test_partitioned_orders_equal_a_fresh_stable_sort_of_each_child(seed, n, c):
    # split every node at random for a few levels, as _grow does: each
    # child's order in each column must be a stable sort of its own rows,
    # present values ascending with ties in row order, then missing rows in
    # row order, then padding
    rng = np.random.default_rng(seed)
    XT = rng.integers(0, 4, (c, n)).astype(float)
    XT[rng.random(XT.shape) < 0.3] = np.nan
    XT = np.hstack([XT, np.full((c, 1), np.nan)])
    pad = n
    rows = np.arange(n)[None]
    order = XT[:, :n].argsort(axis=1, kind="stable")[:, None]  # the root's orders
    for _ in range(3):
        sizes = (rows != pad).sum(axis=1)
        goes = rng.random((len(rows), n + 1)) < 0.5
        side = np.where(goes, 0, 1).astype(np.uint8)
        side[:, pad] = 2
        n_child = np.stack([(side[np.arange(len(rows))[:, None], rows] == s).sum(axis=1)
                            for s in (0, 1)], axis=1)
        layers = np.concatenate([order, rows[None]])
        codes = side[np.arange(len(rows))[None, :, None], layers]
        out = gbtree._partition(layers, codes, n_child, pad)
        order, rows = out[:-1], out[-1]
        for j, child in enumerate(rows):
            members = child[child != pad]
            assert (np.diff(members) > 0).all()
            assert len(members) == n_child.reshape(-1)[j]
            for col in range(len(order)):
                key = XT[col, members]
                fresh = members[np.argsort(key, kind="stable")]  # NaN last
                assert order[col, j, :len(members)].tolist() == fresh.tolist()
                assert (order[col, j, len(members):] == pad).all()
        keep = sizes.repeat(2) > 0
        rows, order = rows[keep], order[:, keep]
