"""Exact Shapley attributions for tree ensembles.

Uses the polynomial-time path algorithm with the training cover counts of
the ensemble's node table as the background distribution (path-dependent
expectations); one pass over the table in reverse gives every subtree's
leaf count and expectation, and ``gbtree.goes_left`` picks each row's hot
child. Local accuracy holds exactly: base value plus the attribution
vector reproduces the ensemble prediction for every explained row.

Path arrays. The algorithm's state at a node depends only on the path to
it: each step appends an element (EXTEND) whose zero-fraction ``z`` is a
ratio of covers, the same for every row, and whose one-fraction ``o`` (0
or 1) says whether the row takes that step; a step on a feature that
already split an ancestor first removes that ancestor's element (UNWIND).
One row-independent pass over each tree lists which path element each
split's feature removes and the features of each leaf's path. The trees
of a block then grow together one depth at a time, after the path arrays
of GPUTreeShap (Mitchell et al. 2022, arXiv:2010.13972) on CPU numpy: a
depth's nodes are parted by path length and unwind position, and each part
extends its paths into both children by one set of array operations over
(path position, node, row), so siblings share their path's prefix. At the
leaves, the weights unwound at every path position are computed at once.
A block holds consecutive trees whose path states fit ``SHAP_CELLS``
cells, so memory does not grow with the ensemble. ``tree_shap`` is the
one-row case.

Why every attribution is bit-identical to the per-node recursion that
explains one row at a time (``recursive_shap`` in the tests' conftest):
each array element is computed by the recursion's expressions in the same
operand order (``o`` is held as bools, which multiply and subtract as 1.0
and 0.0), and the unwound weights are summed over positions in the same
order. The recursion enters the child a row takes (hot) before the other
(cold), so each row adds a tree's leaf contributions in its own order; a
leaf's rank in it is the leaf count of every sibling subtree the row takes
instead of the leaf's path. A tree's contributions are placed by rank and
added into the attributions one slot after another, as the recursion adds
them. Adding a zero changes nothing (an attribution starts at +0.0, so it
is never -0.0), so a leaf may add zeros for the features off its path.

``shap_matrix`` keeps its last result under a SHA-256 digest of all it
reads: the ensemble's node table, roots, base score, learning rate and
column names, and the explained rows' values (bytes, dtype and shape),
model ids and column names. ``shap_summary`` and ``shap_dependence`` call
it, so a summary and any number of dependence plots of one (ensemble, rows)
share one pass. A hit returns a copy of the kept values, which the caller
may write; no reference to the caller's ensemble or rows is kept.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gbtree import TreeEnsemble, fold_mask, goes_left
from .registry import FeatureMatrix

# cells of a block's path states, (leaf, row, path position), and of a chunk
# of unwound weights, (leaf, row, position pair)
SHAP_CELLS = 1 << 15


@lru_cache(maxsize=None)
def _ranks(l: int) -> tuple[np.ndarray, np.ndarray]:
    """(l - i) and (i + 1) for i < l, as (l, 1, 1, 1) columns."""
    i = np.arange(l)[:, None, None, None]
    return l - i, i + 1


def _extend(z, o, w, pz, po):
    """The paths (z, o, w) of a part's nodes, each extended by one element
    (pz, po) per child: the paths of the children, left then right.

    ``z`` is (l, nodes, 1), ``o`` and ``w`` are (l, nodes, rows), ``pz``
    is (2, nodes, 1) and ``po`` (2, nodes, rows); ``l`` is at least 1.
    Returns (l + 1, 2 * nodes, ...) arrays.
    """
    l, m = w.shape[:2]
    down, up = _ranks(l)
    w = w[:, None]
    new_w = np.empty((l + 1, 2) + w.shape[2:])
    head = new_w[:l]  # pz * w * down / (l + 1), in place
    np.multiply(pz, w, out=head)
    head *= down
    head /= l + 1
    new_w[l] = 0.0
    tail = po * w  # added: po * w * up / (l + 1)
    tail *= up
    tail /= l + 1
    new_w[1:] += tail
    new_z, new_o = np.empty((l + 1, 2, m, 1)), np.empty(new_w.shape, bool)
    new_z[:l], new_z[l] = z[:, None], pz
    new_o[:l], new_o[l] = o[:, None], po
    return new_z.reshape(l + 1, 2 * m, 1), new_o.reshape(l + 1, 2 * m, -1), \
        new_w.reshape(l + 1, 2 * m, -1)


def _unwound_weights(z, o, w, index: slice):
    """Path weights with element ``e`` removed, for each ``e`` in ``index``.

    Inverts ``_extend``; returns (l - 1, len(index), paths, rows) for paths
    of ``l`` elements. The removed element's ``z`` is row-independent but
    its ``o`` (0 or 1) is not, so the ``o != 0`` branch is taken per row;
    where it is taken, ``(i + 1) * o`` is ``i + 1``.
    """
    l = len(z) - 1
    oi, zi = o[index], z[index]
    down, _ = _ranks(l)
    weights = np.empty((l,) + oi.shape)
    np.multiply(w[:l, None], l + 1, out=weights)  # where o is 0
    np.divide(weights, zi * down, out=weights)
    one = oi != 0.0
    n = w[l]
    for i in range(l - 1, -1, -1):
        v = n * (l + 1)  # n * (l + 1) / ((i + 1) * o) where o is 1
        v /= i + 1
        n = v * zi  # w[i] - v * zi * (l - i) / (l + 1), in place
        n *= l - i
        n /= l + 1
        np.subtract(w[i], n, out=n)
        np.copyto(weights[i], v, where=one)
    return weights


def _bottom_up(ensemble: TreeEnsemble) -> tuple[list[int], list[float]]:
    """Each node's subtree leaf count and expectation (cover-weighted leaf
    mean, the empty coalition's value), children first: in reverse order."""
    left, right, E, cover = (ensemble.nodes[k].tolist() for k in ("left", "right", "value", "cover"))
    counts = [1] * len(E)
    for i in reversed(range(len(E))):
        l, r = left[i], right[i]
        if l >= 0:
            counts[i] = counts[l] + counts[r]
            E[i] = (cover[l] * E[l] + cover[r] * E[r]) / cover[i]
    return counts, E


def _paths(feature: list, left: list, right: list, root: int) -> tuple[list, list]:
    """The row-independent part of the tree at node ``root``, given each
    node's split feature and children: each split's unwind position (the
    element of its path that its feature removes, or 0), and each leaf with
    the features of its path's elements after the root's."""
    unwinds, leaves = [], []
    queue = [(root, ())]
    for i, features in queue:
        j = feature[i]
        if j < 0:
            leaves.append((i, features))
            continue
        k = features.index(j) + 1 if j in features else 0
        unwinds.append((i, k))
        features = (features[:k - 1] + features[k:] if k else features) + (j,)
        queue += [(left[i], features), (right[i], features)]
    return unwinds, leaves


# A part is a set of nodes at one depth whose paths have the same length l:
# (nodes, z (l, nodes, 1), o (l, nodes, rows) as bools, w (l, nodes, rows),
# each row's rank of the node's first leaf (nodes, rows)).
_PART_AXES = (0, 1, 1, 1, 0)


def _select(part, at):
    return tuple(a.take(at, axis) for a, axis in zip(part, _PART_AXES))


def _merge(parts):
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(a, axis) for a, axis in zip(zip(*parts), _PART_AXES))


def _children(XT, nodes, counts, part, k):
    """The part of the children of ``part``'s nodes, left children then
    right. Every node of ``part`` splits on a feature whose element on its
    path is ``k``, or 0 for a feature not on it; ``XT`` holds the explained
    rows as columns."""
    n, z, o, w, rank = part
    at = nodes[n]
    iz = io = 1.0
    if k:
        iz, io = z[k, :, 0], o[k]
        w = _unwound_weights(z, o, w, slice(k, k + 1))[:, 0]
        z, o = (np.concatenate([a[:k], a[k + 1:]]) for a in (z, o))
    left = goes_left(XT[at["feature"]], at["threshold"][:, None], at["default_left"][:, None])
    hot = np.array([left, ~left])
    child = np.array([at["left"], at["right"]])
    # a row visits its hot child first, so the cold child's leaves come
    # after all the leaves of the hot one
    rank = rank + np.where(hot, 0, counts[child[::-1], None])
    pz = iz * nodes["cover"][child] / at["cover"]
    z, o, w = _extend(z, o, w, pz[..., None], hot & io if k else hot)
    return child.reshape(-1), z, o, w, rank.reshape(2 * len(n), -1)


def _add_block_phi(XT, nodes, counts, trees, phi) -> None:
    """Add the attributions of ``trees`` (each the ``_paths`` of a tree)
    for every row into ``phi`` (p, rows), tree after tree.

    The trees grow together one depth at a time, one extension per node:
    a depth's nodes are parted by path length and unwind position, and each
    part is one sequence of array operations.
    """
    rows = phi.shape[1]
    unwind = np.full(len(nodes), -1)  # -1 at a leaf
    for splits, _ in trees:
        unwind[[i for i, _ in splits]] = [k for _, k in splits]
    leaves = [leaf for _, tree_leaves in trees for leaf in tree_leaves]
    slot = np.empty(len(nodes), np.intp)  # a leaf's place in ``leaves``
    slot[[i for i, _ in leaves]] = np.arange(len(leaves))
    longest = max(len(features) for _, features in leaves)

    roots = np.array([splits[0][0] for splits, _ in trees])  # a tree's first split
    level = {1: (roots, np.ones((1, len(roots), 1)), np.ones((1, len(roots), rows), bool),
                 np.ones((1, len(roots), rows)), np.zeros((len(roots), rows), np.intp))}
    done: dict[int, list] = {}
    while level:
        grown: dict[int, list] = {}
        for l, part in level.items():
            ks = unwind[part[0]]
            kinds = sorted(set(ks.tolist()))
            for k in kinds:
                sub = part if len(kinds) == 1 else _select(part, np.flatnonzero(ks == k))
                if k < 0:
                    done.setdefault(l, []).append(sub)
                else:
                    grown.setdefault(l + (k == 0), []).append(_children(XT, nodes, counts, sub, k))
        level = {l: _merge(parts) for l, parts in grown.items()}

    # each leaf's contributions, in chunks whose unwound weights fit the budget
    rank = np.empty((len(leaves), rows), np.intp)
    contributions = np.zeros((longest, len(leaves), rows))
    while done:
        l, parts = done.popitem()
        n, z, o, w, leaf_rank = _merge(parts)
        del parts
        rank[slot[n]] = leaf_rank
        step = max(1, SHAP_CELLS // max(1, rows * (l - 1) ** 2))
        for c in range(0, len(n), step):
            c = slice(c, c + step)
            total = sum(_unwound_weights(z[:, c], o[:, c], w[:, c], slice(1, None)))
            contributions[:l - 1, slot[n[c]]] = \
                total * (o[1:, c] - z[1:, c]) * nodes["value"][n[c], None]

    # every row adds a tree's leaves in its own order: one slot per leaf, by
    # rank, after the attributions so far. Positions past a path's end
    # (feature -1) land in a spare first column, so a slot holds two cells
    # or more and np.add.reduce adds the slots one after another, as one row
    # at a time would add them (it sums pairwise only along a lone axis)
    features = np.array([f + (-1,) * (longest - len(f)) for _, f in leaves]).T
    every_row = np.arange(rows)
    start = 0
    for _, tree_leaves in trees:
        at = slice(start, start + len(tree_leaves))
        start = at.stop
        cols = np.array(sorted({-1}.union(*(f for _, f in tree_leaves))))
        where = (1 + rank[at]) * len(cols) + np.searchsorted(cols, features[:, at])[..., None]
        slots = np.zeros((1 + len(tree_leaves), len(cols), rows))
        slots[0, 1:] = phi[cols[1:]]
        slots.reshape(slots.shape[0] * len(cols), rows)[where, every_row] = contributions[:, at]
        phi[cols[1:]] = np.add.reduce(slots, axis=0)[1:]


def _shap_rows(ensemble: TreeEnsemble, X: np.ndarray) -> tuple[np.ndarray, float]:
    """Attributions (rows, p) of every row of ``X`` and the base value:
    base_score plus lr * each tree's expectation, added tree by tree as
    ``TreeEnsemble.staged_predict`` accumulates leaves.

    Trees are explained in blocks of consecutive trees whose path states fit
    ``SHAP_CELLS``, counting every path as long as the block's longest.
    """
    feature, left, right = (ensemble.nodes[k].tolist() for k in ("feature", "left", "right"))
    counts, expectation = _bottom_up(ensemble)
    counts = np.array(counts)
    XT = np.ascontiguousarray(X.T)
    phi = np.zeros(XT.shape)
    base = ensemble.base_score
    block, leaves, length = [], 0, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for root in ensemble.roots.tolist():
            base += ensemble.learning_rate * expectation[root]
            if feature[root] < 0:  # a one-leaf tree attributes nothing
                continue
            tree = _paths(feature, left, right, root)
            tree_length = 1 + max(len(features) for _, features in tree[1])
            if block and (leaves + len(tree[1])) * len(X) * max(length, tree_length) > SHAP_CELLS:
                _add_block_phi(XT, ensemble.nodes, counts, block, phi)
                block, leaves, length = [], 0, 0
            block.append(tree)
            leaves, length = leaves + len(tree[1]), max(length, tree_length)
        if block:
            _add_block_phi(XT, ensemble.nodes, counts, block, phi)
    return np.ascontiguousarray(ensemble.learning_rate * phi.T), float(base)


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


def _digest(ensemble: TreeEnsemble, X: FeatureMatrix) -> bytes:
    """The memo key: SHA-256 of everything ``shap_matrix(ensemble, X)`` reads."""
    h = hashlib.sha256()
    for a in (ensemble.nodes, ensemble.roots, X.values):
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.descr, a.shape)).encode())
        h.update(a.data)
    h.update(np.array([ensemble.base_score, ensemble.learning_rate], float).tobytes())
    h.update(repr((ensemble.column_names, X.model_ids, X.column_names)).encode())
    return h.digest()


# the last explained (ensemble, rows): (digest, attributions, base value)
_last: tuple[bytes, np.ndarray, float] | None = None


def shap_matrix(ensemble: TreeEnsemble, X: FeatureMatrix) -> ShapMatrix:
    """The attributions of every row of ``X``; the same (ensemble, rows) as
    the last call's makes no new pass. Each call gets its own values."""
    global _last
    if X.column_names != ensemble.column_names:
        raise ValueError("column mismatch")
    key, last = _digest(ensemble, X), _last
    if last is None or last[0] != key:
        last = _last = (key, *_shap_rows(ensemble, X.values))
    return ShapMatrix(X.model_ids, X.column_names, last[1].copy(), last[2])


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
    sm = shap_matrix(ensemble, X)
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
