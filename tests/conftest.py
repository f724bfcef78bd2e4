"""Shared fixtures and slow-but-obviously-correct reference implementations."""

from __future__ import annotations

import copy
import math
from itertools import combinations

import numpy as np
import pytest

from perfpred.gbtree import GBTConfig, TreeEnsemble, fit_gbt
from perfpred.registry import Registry, TaskSpec, join_scores, validate_raw_records
from perfpred.registry import ScoreRecord


def raw_record(model_id="m1", **overrides):
    rec = {
        "model_id": model_id,
        "organization": "org",
        "arch": {
            "total_params": 1.0e9,
            "dimension": 1024,
            "num_heads": 16,
            "activation": "gelu",
            "layer_norm": "rmsnorm",
            "positional_embeddings": "rope",
        },
        "data": {
            "total_tokens_billions": 300.0,
            "pct_web": 60.0,
            "pct_code": 10.0,
            "pct_books": 5.0,
        },
        "gen": {"entropy_mean": 4.5, "question_words_ratio": 120.0},
        "provenance": "reported",
    }
    rec = copy.deepcopy(rec)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(rec.get(key), dict):
            rec[key].update(value)
            rec[key] = {k: v for k, v in rec[key].items() if v is not None}
        else:
            rec[key] = value
    return rec


def small_dataset(n=6, metric_kind="accuracy", score_fn=None):
    """A tiny hand-constructed dataset spanning >1 OOM in N and D."""
    # token exponents deliberately out of step with the parameter exponents
    # so log N and log D are not collinear across the records
    raws = [
        raw_record(f"m{i}",
                   arch={"total_params": 1.0e8 * (4 ** i)},
                   data={"total_tokens_billions": 50.0 * (3 ** (i ^ 1 if i else 0))})
        for i in range(n)
    ]
    records, violations = validate_raw_records(raws)
    assert not violations, violations
    registry = Registry(records)
    task = TaskSpec.for_metric("toy", 0, metric_kind)
    if score_fn is None:
        score_fn = lambda r: 0.1 + 0.08 * (math.log10(r.arch.total_params) - 8.0)
    scores = [ScoreRecord(r.model_id, "toy", score_fn(r)) for r in records]
    return join_scores(registry, scores, task)


# ---------------------------------------------------------------------------
# reference Shapley by coalition enumeration


def _cond_expectation(node: dict, x, miss, coalition: set) -> float:
    """The value of one tree in ``TreeEnsemble.to_dict`` form when only the
    features in ``coalition`` are known."""
    if "leaf_value" in node:
        return node["leaf_value"]
    j = node["split_feature"]
    if j in coalition:
        if miss[j] or np.isnan(x[j]):
            child = node[node["default_direction"]]
        elif x[j] < node["threshold"]:
            child = node["left"]
        else:
            child = node["right"]
        return _cond_expectation(child, x, miss, coalition)
    return (node["left"]["cover"] * _cond_expectation(node["left"], x, miss, coalition)
            + node["right"]["cover"] * _cond_expectation(node["right"], x, miss, coalition)
            ) / node["cover"]


def _split_features(node: dict):
    """The split features of one tree in ``TreeEnsemble.to_dict`` form."""
    if "leaf_value" not in node:
        yield node["split_feature"]
        yield from _split_features(node["left"])
        yield from _split_features(node["right"])


def brute_shapley(ensemble: TreeEnsemble, x, miss=None):
    """Exact Shapley values by enumerating all 2^p coalitions."""
    x = np.asarray(x, dtype=float)
    if miss is None:
        miss = np.isnan(x)
    p = len(ensemble.column_names)
    trees = ensemble.to_dict()["trees"]

    # a tree's value depends only on which of its own split features are
    # known, so each is computed once per such subset; coalitions are bit
    # masks, feature j the bit 1 << j
    used = [sum(1 << j for j in set(_split_features(tree))) for tree in trees]
    known: list[dict] = [{} for _ in trees]

    def tree_value(t: int, coalition: int) -> float:
        key = coalition & used[t]
        if key not in known[t]:
            features = {j for j in range(p) if key >> j & 1}
            known[t][key] = _cond_expectation(trees[t], x, miss, features)
        return known[t][key]

    v = []  # by coalition
    for coalition in range(1 << p):
        total = ensemble.base_score
        for t in range(len(trees)):
            total += ensemble.learning_rate * tree_value(t, coalition)
        v.append(total)

    phi = np.zeros(p)
    for i in range(p):
        rest = [1 << j for j in range(p) if j != i]
        phi_i = 0.0
        for size in range(p):
            weight = (math.factorial(size) * math.factorial(p - size - 1)
                      / math.factorial(p))
            for subset in combinations(rest, size):
                s = sum(subset)
                phi_i += weight * (v[s | 1 << i] - v[s])
        phi[i] = phi_i
    return phi, v[0]


# ---------------------------------------------------------------------------
# reference path algorithm: one row, one node at a time, in plain floats


def _extended(z, o, w, pz, po):
    l = len(w)
    new_w = [0.0] * (l + 1)
    if l == 0:
        new_w[0] = 1.0
    for i in range(l):
        new_w[i] = pz * w[i] * (l - i) / (l + 1)
    for i in range(l):
        new_w[i + 1] += po * w[i] * (i + 1) / (l + 1)
    return z + [pz], o + [po], new_w


def _unwound(z, o, w, e):
    """The path weights with element ``e`` removed."""
    l = len(z) - 1
    if o[e] == 0.0:
        return [w[i] * (l + 1) / (z[e] * (l - i)) for i in range(l)]
    out, n = [0.0] * l, w[l]
    for i in range(l - 1, -1, -1):
        out[i] = v = n * (l + 1) / ((i + 1) * o[e])
        n = w[i] - v * z[e] * (l - i) / (l + 1)
    return out


def recursive_shap(ensemble: TreeEnsemble, x) -> np.ndarray:
    """One row's attributions by the recursive path algorithm (Lundberg et
    al. 2020, Algorithm 2), visiting the child the row takes first and
    adding each leaf's contributions as it is reached. ``shapley`` must
    equal it bit for bit."""
    nodes = ensemble.nodes.tolist()
    phi = [0.0] * len(ensemble.column_names)

    def visit(i, z, o, w, d, pz, po, pi):
        j, threshold, default_left, left, right, value, cover = nodes[i]
        z, o, w = _extended(z, o, w, pz, po)
        d = d + [pi]
        if j < 0:
            for e in range(1, len(d)):
                phi[d[e]] += sum(_unwound(z, o, w, e)) * (o[e] - z[e]) * value
            return
        iz, io = 1.0, 1.0
        if j in d:
            k = d.index(j)
            iz, io, w = z[k], o[k], _unwound(z, o, w, k)
            z, o, d = z[:k] + z[k + 1:], o[:k] + o[k + 1:], d[:k] + d[k + 1:]
        hot_left = default_left if math.isnan(x[j]) else x[j] < threshold
        hot, cold = (left, right) if hot_left else (right, left)
        for child, po in ((hot, io), (cold, 0.0)):
            visit(child, z, o, w, d, iz * nodes[child][6] / cover, po, j)

    for root in ensemble.roots.tolist():
        if nodes[root][0] >= 0:
            visit(root, [], [], [], [], 1.0, 1.0, -1)
    return ensemble.learning_rate * np.array(phi)


def random_fitted_ensemble(rng, p=None, n_rows=25, n_trees=3, depth=3,
                           missing_rate=0.2):
    """Fit a real GBT on random data so covers and defaults are authentic."""
    p = p or rng.randint(11) + 2  # 2..12 features
    X = np.array([[rng.normal() for _ in range(p)] for _ in range(n_rows)])
    y = np.array([rng.normal() for _ in range(n_rows)])
    if missing_rate:
        for i in range(n_rows):
            for j in range(p):
                if rng.uniform() < missing_rate:
                    X[i, j] = np.nan
        # keep at least one present value per column so splits exist
        for j in range(p):
            if np.isnan(X[:, j]).all():
                X[0, j] = 0.0
    config = GBTConfig(max_depth=depth, learning_rate=0.5, n_trees=n_trees,
                       min_samples_leaf=2)
    return fit_gbt(X, y, config), X
