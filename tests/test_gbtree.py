import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import _cond_expectation, random_fitted_ensemble
from perfpred import gbtree
from perfpred.gbtree import GBTConfig, TreeEnsemble, _Presorted, fit_gbt, fit_gbt_batch, paper_grid
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

    t1, t2 = ens.trees
    assert t1.threshold == 0.5
    assert t1.left.leaf_value == pytest.approx(-1.0)
    assert t1.right.leaf_value == pytest.approx(1.0 / 3.0)
    assert t2.threshold == 2.5
    assert t2.left.leaf_value == pytest.approx(-2.0 / 9.0)
    assert t2.right.leaf_value == pytest.approx(2.0 / 3.0)

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
    assert all(t.is_leaf for t in ens.trees)


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
    if node.is_leaf:
        return node.cover
    return _leaf_cover_sum(node.left) + _leaf_cover_sum(node.right)


def _check_covers(node):
    if node.is_leaf:
        return
    assert node.cover == node.left.cover + node.right.cover
    _check_covers(node.left)
    _check_covers(node.right)


def test_cover_bookkeeping():
    ens, X = random_fitted_ensemble(CounterRng(30), p=6, n_rows=40)
    for tree in ens.trees:
        assert _leaf_cover_sum(tree) == 40
        _check_covers(tree)


def test_min_samples_leaf_respected():
    ens, _ = random_fitted_ensemble(CounterRng(31), p=4, n_rows=30)

    def smallest_leaf(node):
        if node.is_leaf:
            return node.cover
        return min(smallest_leaf(node.left), smallest_leaf(node.right))

    assert min(smallest_leaf(t) for t in ens.trees) >= 2


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


def test_staged_predict_is_the_sequential_sum_of_routed_leaves():
    # routing every feature through the Shapley oracle reaches the leaf each
    # row takes; accumulating base + lr * leaf tree by tree must give every
    # staged column bit for bit, and predict the last one
    rng = CounterRng(17)
    for trial in range(12):
        ens, X = random_fitted_ensemble(rng, n_rows=20, n_trees=6,
                                        depth=rng.randint(4) + 1, missing_rate=0.3)
        mask = np.array([[rng.uniform() < 0.2 for _ in range(X.shape[1])]
                         for _ in range(X.shape[0])])
        staged = ens.staged_predict(X, mask)
        everything = set(range(X.shape[1]))
        for i in range(X.shape[0]):
            acc = ens.base_score
            want = [acc]
            for tree in ens.trees:
                acc += ens.learning_rate * _cond_expectation(tree, X[i], mask[i], everything)
                want.append(acc)
            assert staged[i].tobytes() == np.array(want).tobytes()
        assert ens.predict(X, mask).tobytes() == staged[:, -1].tobytes()


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
    root = ens.trees[0]
    if expected is None:
        assert root.is_leaf
    else:
        assert (root.split_feature, root.threshold, root.default_left) == expected


def test_split_sse_is_bit_equal_to_one_column_scoring():
    # the missing-side sums follow 1-D np.sum, whose summation order changes
    # at 8 terms; residuals spanning many magnitudes expose any other order
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = 40
        X = rng.normal(size=(n, 3))
        mask = rng.random((n, 3)) < 0.5
        r = rng.normal(size=n) * 10.0 ** rng.integers(-4, 5, size=n)
        with np.errstate(divide="ignore", invalid="ignore"):
            (sse, j, thr, default_left), = _Presorted(np.where(mask, np.nan, X)).best_split(
                r[None], np.arange(n), 1)
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
# node plans: a fit that keeps them equals a fit that keeps none


def fit_json(X, y, config, mask=None, budget=gbtree.PLAN_BUDGET):
    with mock.patch.object(gbtree, "PLAN_BUDGET", budget):
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
def test_node_plans_do_not_change_any_fit(problem):
    X, missing, y, config, as_nan = problem
    assume(len(y) >= 2 * config.min_samples_leaf and not missing.all())
    if as_nan:
        X, mask = np.where(missing, np.nan, X), None
    else:
        mask = missing
    assert fit_json(X, y, config, mask) == fit_json(X, y, config, mask, budget=0)


def test_node_plans_do_not_change_a_wide_fit():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 30))
    X[rng.random(X.shape) < 0.4] = np.nan
    y = rng.normal(size=40)
    config = GBTConfig(max_depth=4, learning_rate=0.3, n_trees=8, min_samples_leaf=2)
    assert fit_json(X, y, config) == fit_json(X, y, config, budget=0)
    assert fit_json(X, y, config) == fit_json(X, y, config, budget=10**9)


def kept_presorted(X, y, config, mask=None):
    """Fit and return the fit's _Presorted, with the plans it kept."""
    kept = []

    class Kept(_Presorted):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(self)

    with mock.patch.object(gbtree, "_Presorted", Kept):
        fit_gbt(X, y, config, mask)
    return kept[0]


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
    presorted = kept_presorted(X, y, GBTConfig(n_trees=0, min_samples_leaf=1), mask)
    assert presorted.X.tobytes() == np.where(gone, np.nan, X)[order].tobytes()


def test_node_plans_stay_within_the_budget():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(92, 74))
    X[rng.random(X.shape) < 0.5] = np.nan
    y = rng.normal(size=92)
    presorted = kept_presorted(X, y, GBTConfig(max_depth=5, learning_rate=0.1, n_trees=10))
    held = sum(plan.nbytes() + len(key[0]) for key, plan in presorted.plans.items())
    assert held == presorted.cached_bytes <= gbtree.PLAN_BUDGET
    assert presorted.plans


def test_node_without_admissible_split_is_the_same_leaf_when_cached():
    # a constant column, a tied column whose one odd value would leave fewer
    # than min_samples_leaf rows on its side, and a column missing all but once
    X = np.array([[1.0, 0.0, np.nan], [1.0, 0.0, np.nan], [1.0, 0.0, 5.0],
                  [1.0, 0.0, np.nan], [1.0, 1.0, np.nan]])
    y = np.array([0.0, 1.0, 3.0, 0.5, 2.0])
    presorted = _Presorted(X)
    idx = np.arange(5)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert presorted.best_split((y - y.mean())[None], idx, 2) == [None]
        assert presorted.best_split(y[None, ::-1].copy(), idx, 2) == [None]  # from the cache
    assert list(presorted.plans.values())[0].gather is None
    config = GBTConfig(max_depth=3, learning_rate=0.5, n_trees=4, min_samples_leaf=2)
    ens = fit_gbt(X, y, config)
    assert all(t.is_leaf and t.cover == 5 for t in ens.trees)
    assert fit_json(X, y, config) == fit_json(X, y, config, budget=0)


def test_a_node_that_splits_differently_in_a_later_round_gets_its_own_children():
    # the root splits at 0.5 in round 1 and at 1.5 in round 2: the same
    # membership, so its children must follow each round's split
    X = np.array([[0.0], [1.0], [2.0], [2.0], [2.0], [3.0]])
    y = np.array([2.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    config = GBTConfig(max_depth=2, learning_rate=0.5, n_trees=2, min_samples_leaf=1)
    ens = fit_gbt(X, y, config)
    assert [(t.split_feature, t.threshold) for t in ens.trees] == [(0, 0.5), (0, 1.5)]
    for tree in ens.trees:
        assert tree.left.cover == int((X[:, 0] < tree.threshold).sum())
        assert tree.right.cover == 6 - tree.left.cover
    assert fit_json(X, y, config) == fit_json(X, y, config, budget=0)


# ---------------------------------------------------------------------------
# lockstep batches: every fit of a batch is the fit of its config alone


@st.composite
def batch_problems(draw):
    """Shared rows (9 to 40, so node sums reach 8 terms and more) with value
    ties, NaN or masked entries, and configs of every depth, leaf size and
    several rates; their tree counts differ, so fits retire in different
    rounds, and repeated configs share every node."""
    n = draw(st.integers(9, 40))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, 3, size=(n, p)).astype(float)
    else:
        X = rng.normal(size=(n, p))
    missing = rng.random((n, p)) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    config = st.builds(GBTConfig, max_depth=st.integers(1, 5),
                       learning_rate=st.sampled_from([0.01, 0.1, 0.3, 1.0]),
                       n_trees=st.integers(0, 6), min_samples_leaf=st.integers(1, 3))
    configs = draw(st.lists(config, min_size=2, max_size=6))
    if draw(st.booleans()):
        X, mask = np.where(missing, np.nan, X), None
    else:
        mask = missing
    return X, mask, y, configs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch_problems())
def test_each_fit_of_a_batch_equals_its_config_fitted_alone(problem):
    X, mask, y, configs = problem
    assume(mask is None or not mask.all())
    batch = fit_gbt_batch(X, y, configs, mask=mask)
    assert [len(e.trees) for e in batch] == [c.n_trees for c in configs]
    for ensemble, config in zip(batch, configs):
        alone = fit_gbt(X, y, config, mask=mask)
        assert json.dumps(ensemble.to_dict()) == json.dumps(alone.to_dict())


def plans_built(X, y, configs, budget=gbtree.PLAN_BUDGET):
    built = []

    class Counted(gbtree._NodePlan):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(1)

    with mock.patch.object(gbtree, "_NodePlan", Counted), \
            mock.patch.object(gbtree, "PLAN_BUDGET", budget):
        fit_gbt_batch(X, y, configs)
    return len(built)


def test_a_batch_builds_each_membership_plan_once():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 3))
    X[rng.random(X.shape) < 0.3] = np.nan
    y = rng.normal(size=30)
    config = GBTConfig(max_depth=3, learning_rate=0.3, n_trees=6)
    for budget in (gbtree.PLAN_BUDGET, 0):
        # copies of one config share every node: the plans of one fit serve all
        alone = plans_built(X, y, [config], budget)
        assert plans_built(X, y, [config] * 4, budget) == alone > 0
    # fits of other rates share the root of each round, and with it its plan
    rates = [GBTConfig(3, lr, 6) for lr in (0.01, 0.1, 0.3)]
    assert plans_built(X, y, rates, 0) < sum(plans_built(X, y, [c], 0) for c in rates)
