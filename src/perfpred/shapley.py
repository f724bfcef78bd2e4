"""Exact Shapley attributions for tree ensembles.

Uses the polynomial-time path algorithm with the training cover counts
stored in each node as the background distribution (path-dependent
expectations). Local accuracy holds exactly: base value plus the attribution
vector reproduces the ensemble prediction for every explained row.

All rows are explained in one traversal per tree. The path algorithm visits
both children of every node for every row, so the visits and the
zero-fractions ``z`` do not depend on the row; only the one-fractions ``o``
and the permutation weights ``w`` do, and they are carried as (rows,)
arrays (in the spirit of the path arrays of GPUTreeShap, Mitchell et al.
2022, arXiv:2010.13972). ``tree_shap`` is the one-row case of the same
routine. Summation order: the one-row recursion enters the child a row
takes (hot) before the other (cold), so each row adds the leaves'
contributions in its own order. Contributions are therefore kept per leaf
and added per row in that hot-first depth-first order (a leaf's rank in it
is the leaf count of every hot sibling subtree it follows), which keeps
every attribution bit-identical to explaining the rows one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gbtree import TreeEnsemble, TreeNode, fold_mask
from .registry import FeatureMatrix


@lru_cache(maxsize=None)
def _ranks(l: int) -> tuple[np.ndarray, np.ndarray]:
    """(l - i) and (i + 1) for i < l, as (l, 1) columns."""
    i = np.arange(l)[:, None]
    return l - i, i + 1


def _extend_path(z, o, w, pz, po):
    """The path (z, o, w) with one element (pz, po) appended.

    ``z`` is a list of l floats, ``o`` and ``w`` are (l, rows) and ``po`` is
    a scalar or (rows,).
    """
    l, rows = w.shape
    new_o = np.empty((l + 1, rows))
    new_o[:l] = o
    new_o[l] = po
    new_w = np.zeros((l + 1, rows))
    if l == 0:
        new_w[0] = 1.0
    else:
        down, up = _ranks(l)
        new_w[:l] = pz * w * down / (l + 1)
        new_w[1:] += po * w * up / (l + 1)
    return z + [pz], new_o, new_w


def _unwound_weights(z, o, w, index):
    """Path weights with element ``e`` removed, for each ``e`` in ``index``.

    Inverts ``_extend_path``; returns (l - 1, len(index), rows). The removed
    element's ``z`` is row-independent but its ``o`` is not, so the
    ``o != 0`` branch is taken per row.
    """
    l = len(z) - 1
    oi = o[index]
    zi = np.array([z[e] for e in index])[:, None]
    down, _ = _ranks(l)
    zero_o = w[:l, None] * (l + 1) / (zi * down[:, :, None])
    inverted = np.empty_like(zero_o)
    n = w[l]
    for i in range(l - 1, -1, -1):
        inverted[i] = v = n * (l + 1) / ((i + 1) * oi)
        n = w[i] - v * zi * (l - i) / (l + 1)
    return np.where(oi != 0.0, inverted, zero_o)


def _count_leaves(node: TreeNode, counts: dict) -> int:
    """Leaves under ``node``; also records the count of every subtree by id."""
    n = 1 if node.is_leaf else _count_leaves(node.left, counts) + _count_leaves(node.right, counts)
    counts[id(node)] = n
    return n


def _visit(node, walk, d, z, o, w, pz, po, pi, rank) -> None:
    """Extend the path by (pz, po, pi) into ``node``; at a leaf, record its
    contributions in ``walk = (X, leaf counts, leaves)``."""
    X, counts, leaves = walk
    z, o, w = _extend_path(z, o, w, pz, po)
    d = d + [pi]
    if node.is_leaf:
        total = sum(_unwound_weights(z, o, w, range(1, len(d))))
        zs = np.array(z[1:])[:, None]
        leaves.append((rank, d[1:], total * (o[1:] - zs) * node.leaf_value))
        return
    j = node.split_feature
    hot_left = node.goes_left(X, slice(None))
    iz, io = 1.0, 1.0
    if j in d:
        k = d.index(j)
        iz, io = z[k], o[k]
        w = _unwound_weights(z, o, w, [k])[:, 0]
        z, o, d = z[:k] + z[k + 1:], np.delete(o, k, axis=0), d[:k] + d[k + 1:]
    # a row visits its hot child first, so the cold child's leaves come
    # after all the leaves of the hot one
    for child, hot, other in ((node.left, hot_left, node.right),
                              (node.right, ~hot_left, node.left)):
        _visit(child, walk, d, z, o, w, iz * child.cover / node.cover, np.where(hot, io, 0.0),
               j, np.where(hot, rank, rank + counts[id(other)]))


def _add_tree_phi(root: TreeNode, X: np.ndarray, phi: np.ndarray) -> None:
    """Add one tree's attributions for every row of ``X`` into ``phi`` (rows, p).

    NaN entries are routed by default direction.
    """
    if root.is_leaf:
        return
    rows = X.shape[0]
    counts: dict[int, int] = {}
    _count_leaves(root, counts)
    leaves = []  # (visit rank per row, path features, contributions (len, rows))
    _visit(root, (X, counts, leaves), [], [], np.empty((0, rows)), np.empty((0, rows)),
           1.0, 1.0, -1, np.zeros(rows, dtype=np.int64))

    # every row visits the same leaves, but in its own order; add their
    # contributions in that order so phi sums bit-identically
    cols = sorted({f for _, feats, _ in leaves for f in feats})
    pos = {f: i for i, f in enumerate(cols)}
    contrib = np.zeros((len(leaves), rows, len(cols)))
    for leaf, (_, feats, values) in enumerate(leaves):
        contrib[leaf][:, [pos[f] for f in feats]] = values.T
    order = np.argsort(np.array([rank for rank, _, _ in leaves]), axis=0)
    every_row = np.arange(rows)
    for step in order:
        phi[:, cols] += contrib[step, every_row]


def tree_expectation(node: TreeNode) -> float:
    """Cover-weighted mean of the leaves (empty-coalition expectation)."""
    if node.is_leaf:
        return node.leaf_value
    return (node.left.cover * tree_expectation(node.left)
            + node.right.cover * tree_expectation(node.right)) / node.cover


def _shap_rows(ensemble: TreeEnsemble, X: np.ndarray) -> tuple[np.ndarray, float]:
    """Attributions (rows, p) of every row of ``X``, one traversal per tree,
    and the base value: base_score plus lr * each tree's expectation, added
    tree by tree as ``TreeEnsemble.staged_predict`` accumulates leaves."""
    phi = np.zeros(X.shape)
    base = ensemble.base_score
    with np.errstate(divide="ignore", invalid="ignore"):
        for tree in ensemble.trees:
            _add_tree_phi(tree, X, phi)
            base += ensemble.learning_rate * tree_expectation(tree)
    return ensemble.learning_rate * phi, float(base)


def tree_shap(ensemble: TreeEnsemble, x: np.ndarray,
              miss: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Attribution vector and base value for one feature row; NaN marks a
    missing value, and so does ``miss`` where given."""
    x = fold_mask(x, miss)
    if len(x) != len(ensemble.column_names):
        raise ValueError("column mismatch")
    phi, base = _shap_rows(ensemble, x[None, :])
    return phi[0], base


@dataclass(frozen=True)
class ShapMatrix:
    model_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray  # (n, p) attributions
    base_value: float


def shap_matrix(ensemble: TreeEnsemble, X: FeatureMatrix) -> ShapMatrix:
    if X.column_names != ensemble.column_names:
        raise ValueError("column mismatch")
    return ShapMatrix(X.model_ids, X.column_names, *_shap_rows(ensemble, X.values))


@dataclass(frozen=True)
class SummaryEntry:
    feature: str
    mean_abs_phi: float
    points: tuple  # (feature value or level, phi) per row


def _onehot_base(name: str) -> str | None:
    return name.split("=", 1)[0] if "=" in name else None


def shap_summary(ensemble: TreeEnsemble, X: FeatureMatrix,
                 aggregate_categoricals: bool = False) -> list[SummaryEntry]:
    """Features ranked by mean absolute attribution, descending; ties by name.

    With ``aggregate_categoricals`` the one-hot member columns of each
    categorical feature are summed into a single entry whose per-row value is
    the active level name.
    """
    if len(X.model_ids) == 0:
        raise ValueError("empty feature matrix")
    return _summary(shap_matrix(ensemble, X), X, aggregate_categoricals)


def _summary(sm: ShapMatrix, X: FeatureMatrix, aggregate_categoricals: bool) -> list[SummaryEntry]:
    """``shap_summary`` of the attributions ``sm`` already computed for ``X``."""
    if aggregate_categoricals:
        by_base: dict[str, list[int]] = {}
        for j, name in enumerate(sm.feature_names):
            by_base.setdefault(_onehot_base(name) or name, []).append(j)
        groups = list(by_base.items())
    else:  # one column per group: its sum is the column, save that -0.0 becomes 0.0
        groups = [(name, [j]) for j, name in enumerate(sm.feature_names)]
    entries: list[SummaryEntry] = []
    for gname, cols in groups:
        total = sm.values[:, cols].sum(axis=1)
        pts = []
        for i in range(len(sm.model_ids)):
            if len(cols) == 1:
                value = float(X.values[i, cols[0]])
            else:
                active = [sm.feature_names[j].split("=", 1)[1]
                          for j in cols if X.values[i, j] == 1.0]
                value = active[0] if active else None
            pts.append((value, float(total[i])))
        entries.append(SummaryEntry(gname, float(np.abs(total).mean()), tuple(pts)))
    entries.sort(key=lambda e: (-e.mean_abs_phi, e.feature))
    return entries


def shap_dependence(ensemble: TreeEnsemble, X: FeatureMatrix,
                    feature_name: str) -> tuple[list[tuple[float, float]], int]:
    """(feature value, phi) per row with a present value, plus missing count."""
    if feature_name not in X.column_names:
        raise ValueError(f"unknown feature: {feature_name}")
    j = X.column_names.index(feature_name)
    phi = shap_matrix(ensemble, X).values[:, j]
    present = ~np.isnan(X.values[:, j])
    points = [(float(v), float(p)) for v, p in zip(X.values[present, j], phi[present])]
    return points, len(present) - len(points)
