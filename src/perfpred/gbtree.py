"""Gradient-boosted regression trees with native missing-value routing.

Squared-error boosting with exact greedy split search (no histogram
binning: training sets here are <= 92 rows, so exactness is cheap and keeps
oracle tests bit-stable). Each node records its cover (training samples
reaching it), which the Shapley module uses as the background distribution.
Fitting is fully deterministic: equal-gain ties break by lowest feature
index, then lowest threshold, then routing missing left. An ensemble is one
node table, laid out as scikit-learn's ``Tree.nodes``, each tree numbered
breadth first so a child comes after its parent; ``goes_left`` is the one
split rule, with which fitting, prediction and TreeSHAP route rows.

Split search is XGBoost's exact greedy algorithm (Chen & Guestrin 2016,
arXiv:1603.02754, section 3.1), scored one tree level at a time, the
depth-wise growth of Mitchell & Frank 2017 (PeerJ CS 3:e127).
``staged_batch`` fits many configs in lockstep, each on its own row set
(its root membership) of one canonical matrix: the rows of X sorted
lexicographically, NaN last. The sort is stable, so restricted to a fit's
rows it is the canonical order of those rows alone. Each column that can
split some root (two distinct present values) is sorted once per batch,
at the roots: present values ascending, ties in row order, then missing
rows, then padding (Chen & Guestrin's presorted blocks, section 4.1). A
split's children take their rows, and their order in every column, from
it by a stable partition (``_partition``): each child's order is its
parent's filtered by side, which is what a fresh stable sort would give,
so no level below the root sorts. Each round grows every fit's tree
together: a level's frontier nodes, of every fit, are scored in one
position-major (position, column and node) block, every threshold and
both missing-value routings in one cumulative-sum pass, and splits and
leaves are written straight into each fit's ``NODE`` table, one record
assignment each. The root level's residual-free part (the counts, which
thresholds are inadmissible) is the same every round, so it is built
once per set of live fits, and the searches of a batch reuse one scratch
buffer for their large temporaries. One round loop serves every fit: a
fit's region of the node pool holds one tree, which the next round
overwrites. In ``staged_batch`` each fit's held-out rows walk its tree
after every round (the walk ``staged_predict`` uses) and add its leaf to
their running predictions in cumsum's order, so a batch keeps no trees.
A nested CV's grid search is one such batch per request (a dataset, a
feature list and seeds), and the refits of every request share one batch
over a stacked matrix (``pipeline.run_cv_requests``). ``fit_gbt`` is a
batch of one config on all rows that copies each round's tree into its
ensemble.

Every number is bit-identical to fitting one config alone, one node and
one column at a time. Cumulative sums add sequentially, so trailing
padding leaves every prefix alone; np.sum sums 8 or more terms in blocks,
so the node means and SSEs and the sums over the missing rows follow its
order for every node at once (``_exact_sums``), in a fixed number of
array passes. Each fit keeps its own depth limit, leaf size, gain floor
and tie-breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_GAIN = 1e-12

PAPER_GRID_DEPTHS = (2, 3, 5)
PAPER_GRID_RATES = (0.01, 0.1, 0.3)
PAPER_GRID_TREES = (50, 100)


@dataclass(frozen=True)
class GBTConfig:
    max_depth: int = 3
    learning_rate: float = 0.1
    n_trees: int = 100
    min_samples_leaf: int = 2

    def __post_init__(self):
        if self.max_depth < 1 or self.n_trees < 0 or self.min_samples_leaf < 1:
            raise ValueError("invalid GBT configuration")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")


def paper_grid() -> list[GBTConfig]:
    """The 3 x 3 x 2 hyperparameter grid searched per fold."""
    return [
        GBTConfig(d, lr, nt)
        for d in PAPER_GRID_DEPTHS
        for lr in PAPER_GRID_RATES
        for nt in PAPER_GRID_TREES
    ]


def goes_left(x, threshold, default_left):
    """Which values ``x`` of a split's feature go left: NaN by ``default_left``,
    any other when below ``threshold``. The arguments broadcast."""
    return np.where(np.isnan(x), default_left, x < threshold)


# split feature (-1 at a leaf), threshold, default_left, child indices (-1 at
# a leaf), leaf value (NaN at a split) and cover
NODE = np.dtype([("feature", np.intp), ("threshold", float), ("default_left", bool),
                 ("left", np.intp), ("right", np.intp), ("value", float), ("cover", np.intp)])


@dataclass(eq=False)
class TreeEnsemble:
    base_score: float
    learning_rate: float
    column_names: tuple[str, ...]
    nodes: np.ndarray  # NODE records, tree after tree
    roots: np.ndarray  # each tree's root index (intp, so it indexes even when empty)

    def predict_row(self, x: np.ndarray, mask: np.ndarray | None = None) -> float:
        return float(self._staged(np.reshape(fold_mask(x, mask), (1, -1)))[0, -1])

    def predict(self, X: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        return self._staged(fold_mask(X, mask))[:, -1]

    def staged_predict(self, X: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Predictions after 0..n_trees rounds: shape (rows, n_trees + 1)."""
        return self._staged(fold_mask(X, mask))

    def _staged(self, X) -> np.ndarray:
        # cumsum adds along each row in order, so every column is bit-identical
        # to accumulating base + lr * leaf one tree at a time
        if X.shape[1] != len(self.column_names):
            raise ValueError("column mismatch")
        node = np.repeat(self.roots[None], X.shape[0], axis=0)  # (rows, trees)
        leaf = _leaf_values(self.nodes, X, np.arange(X.shape[0])[:, None], node)
        base = np.full((X.shape[0], 1), self.base_score)
        return np.cumsum(np.hstack([base, leaf * self.learning_rate]), axis=1)

    def to_dict(self) -> dict:
        rows = self.nodes.tolist()
        nested: list = [None] * len(rows)
        for i in reversed(range(len(rows))):  # children before their parent
            feature, threshold, default_left, left, right, value, cover = rows[i]
            nested[i] = {"cover": cover, "leaf_value": value} if feature < 0 else {
                "cover": cover, "split_feature": feature, "threshold": threshold,
                "default_direction": "left" if default_left else "right",
                "left": nested[left], "right": nested[right]}
        return {
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "columns": list(self.column_names),
            "trees": [nested[r] for r in self.roots.tolist()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeEnsemble":
        nodes: list[tuple] = []
        roots = []
        for tree in d["trees"]:
            roots.append(len(nodes))
            queue = [tree]
            for node in queue:  # breadth first, as _grow numbers them
                if "leaf_value" in node:
                    nodes.append((-1, np.nan, False, -1, -1, node["leaf_value"], node["cover"]))
                    continue
                child = roots[-1] + len(queue)
                nodes.append((node["split_feature"], node["threshold"],
                              node["default_direction"] == "left", child, child + 1, np.nan,
                              node["cover"]))
                queue += (node["left"], node["right"])
        return cls(d["base_score"], d["learning_rate"], tuple(d["columns"]),
                   np.array(nodes, dtype=NODE), np.array(roots, dtype=np.intp))


def _leaf_values(nodes, X, rows, node) -> np.ndarray:
    """The value of the leaf each walker reaches in the node table
    ``nodes``: walker (i, j) routes row ``rows[i]`` of ``X`` from node
    ``node[i, j]``. Every walker steps at once, one level per step."""
    feature = nodes["feature"]  # each field gathered alone: a record gather costs far more
    at = feature[node]
    while (split := at >= 0).any():
        left = goes_left(X[rows, at], nodes["threshold"][node], nodes["default_left"][node])
        node = np.where(split, np.where(left, nodes["left"][node], nodes["right"][node]), node)
        at = feature[node]
    return nodes["value"][node]


def fold_mask(X, mask: np.ndarray | None) -> np.ndarray:
    """``X`` as floats, NaN wherever ``mask`` is set: NaN is the one
    missing-value marker below the public entries, and ``mask`` an optional
    override of ``X``'s shape folded in once."""
    X = np.asarray(X, dtype=float)
    if mask is not None and np.shape(mask) != X.shape:
        raise ValueError(f"mask shape {np.shape(mask)} differs from X's {X.shape}")
    return X if mask is None else np.where(mask, np.nan, X)


LEVEL_CELLS = 1 << 16  # (column, node, row) cells of one split search block

_LEAF = np.array([(-1, np.nan, False, -1, -1, np.nan, 0)], NODE)  # value and cover to fill
_SIDE = np.array([[0], [1]], np.uint8)  # the side codes of a left and a right child


def _exact_sums(T, n):
    """``np.add.reduce(T[:n[i], i])`` for every column ``i`` of the
    position-major (term, column) ``T``, bit for bit (a NaN's sign aside),
    where every term past a column's ``n`` is zero: all columns at once, in
    a fixed number of array passes.

    numpy's sum is +0.0 plus its pairwise sum of the terms, which sums fewer
    than 8 terms one after another; up to 128 in 8 lane accumulators over
    the full blocks of 8, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), then the rest one after another; and more as two halves,
    split at n // 2 rounded down to a multiple of 8. (``np.add.reduceat``
    sums in another order.) Adding a zero changes no sum but the sign of a
    zero one, so a column is padded with zeros and every sum ends with +0.0,
    as numpy's does.
    """
    k, c = T.shape
    if k < 8:  # one term after another, whichever axis numpy loops over
        return np.add.reduce(T, axis=0) + 0.0
    full = n & -8  # the terms in full blocks of 8
    m = min(k & -8, 128)
    # the 8 lanes, each block of 8 added to them after the one before
    lane = np.where(np.arange(m)[:, None] < full, T[:m], 0.0).reshape(-1, 8, c)
    lane = np.add.reduce(lane, axis=0)
    lane = lane[0::2] + lane[1::2]
    lane = lane[0::2] + lane[1::2]
    out = lane[0] + lane[1]
    for term in _shifted(T, full, n):  # then the rest, at most 7 terms
        out += term
    out += 0.0
    if k > 128:
        long = np.flatnonzero(n > 128)
        T, n = T[:, long], n[long]
        half = n // 16 * 8
        out[long] = (_exact_sums(_shifted(T, 0, half), half)
                     + _exact_sums(_shifted(T, half, n), n - half))
    return out


def _shifted(T, start, end):
    """The terms ``start`` to ``end`` of each column of ``T``, moved to its
    top, zeros below."""
    at = start + np.arange((end - start).max(initial=0))[:, None]
    terms = T.reshape(-1).take(np.minimum(at, len(T) - 1) * T.shape[1] + np.arange(T.shape[1]))
    return np.where(at < end, terms, 0.0)


def _presort(XT, roots):
    """A batch's roots, sorted once: each fit's root rows ``roots``
    (ascending, padded with the padding row, ``XT``'s last column) in each
    column's order, present values ascending, ties in row order, then the
    missing rows in row order, then padding.

    Keeps only the columns that can split some root (two distinct present
    values), since no other can split any node below one. Returns those
    columns; which of their values are present (column, row); their
    (column, fit, position) row orders, in the smallest integer type that
    holds the padding row; and each (column, fit) pair's present rows,
    which come first.
    """
    V = XT[:, roots]
    pos = V.argsort(axis=2, kind="stable")
    V = np.take_along_axis(V, pos, axis=2)
    n_present = np.add.reduce(~np.isnan(V), axis=2)
    top = np.take_along_axis(V, n_present[..., None] - 1, axis=2)[..., 0]
    cols = np.flatnonzero((V[..., 0] < top).any(axis=1))
    order = np.take_along_axis(roots[None], pos[cols], axis=2)
    present = ~np.isnan(XT[cols])
    return cols, present, order.astype(np.min_scalar_type(XT.shape[1] - 1)), n_present[cols]


def _partition(order, side, n_child, pad):
    """Each node's rows split in two, every layer's order kept. ``order``
    (layer, node, position) holds row ids, each node's padded at its end
    with the padding row ``pad``; ``side`` is 0 where a row goes left, 1
    where it goes right and 2 at padding; ``n_child`` (node, side) holds
    the children's row counts.

    Returns the children's (layer, child, position) orders, the left child
    of node ``i`` at ``2 i`` and the right one at ``2 i + 1``, padded to the
    largest child: each layer of a child is its parent's, filtered by side,
    so a column's order is what a fresh stable sort of the child's rows
    would give. One compress of the parents' rows, next to the padding that
    fills each child up, and no sort.
    """
    L, s, k = order.shape
    w = n_child.max(initial=0)
    src = np.empty((L, s, 2, k + w), order.dtype)
    src[..., :k] = order[:, :, None]
    src[..., k:] = pad
    keep = np.empty(src.shape, bool)
    np.equal(side[:, :, None], _SIDE, out=keep[..., :k])
    keep[..., k:] = np.arange(w) < w - n_child[..., None]
    return np.compress(keep.reshape(-1), src.reshape(-1)).reshape(L, 2 * s, w)


def _search_plan(XT, cols, order, n_present, sizes, min_leaf, base):
    """The part of a block's split search that does not depend on the
    residuals, or None when no column can split any of its nodes.
    ``order`` (column, node, position) holds, for the columns ``cols`` of
    ``XT``, each node's rows as ``_presort`` orders them, ``n_present`` each
    (column, node) pair's present rows, ``sizes`` the nodes' row counts,
    ``min_leaf`` their leaf sizes and ``base`` where each node's residuals
    start in the flat residual matrix.

    Everything is position-major, (position, pair) for the pairs in
    (column, node) order. Returns the columns kept; their values in sorted
    order; each sorted row's residual index; each pair's last present
    position, flat; where in ``_best_splits``' stack each pair's missing
    rows are, the t-th of them in row t (the stack's last cell, a zero,
    past them), and their count; each (side, routing, threshold, pair)'s
    row count; and which (routing, threshold, pair) are inadmissible.

    Threshold t sends t + 1 present rows left; routing 0 sends the missing
    rows left too, routing 1 right (tried only if some pair has any). A
    threshold is inadmissible where a side holds fewer rows than the node's
    leaf size, or where it is not between two distinct present values.
    """
    c, g, k = order.shape
    rows = order.transpose(2, 0, 1)
    V = XT.take(rows + (cols * XT.shape[1])[:, None])
    # a pair can split when its first and last present values differ (a
    # pair without any has NaN first); only a column that can split some
    # node of the block is scored
    keep = (V[0] < V.reshape(-1)[(n_present - 1) * c * g + np.arange(c * g).reshape(c, g)]
            ).any(axis=1)
    if not keep.any():
        return None
    if not keep.all():
        cols, rows, n_present, V = cols[keep], rows[:, keep], n_present[keep], V[:, keep]
        c = len(cols)
    P = c * g
    n_miss = (sizes - n_present).reshape(-1)
    n_present = n_present.reshape(-1)
    end = n_present * P + np.arange(P)  # past each pair's present rows
    routings = 2 if n_miss.any() else 1
    kk = np.arange(1, k)[:, None]  # present rows left of each threshold
    counts = np.empty((2, routings, k - 1, P))
    counts[0] = kk
    np.subtract(n_present, kk, out=counts[1])
    counts[0, 0] += n_miss
    if routings == 2:
        counts[1, 1] += n_miss
    V = V.reshape(k, P)
    short = np.minimum(counts[0], counts[1]).reshape(routings, k - 1, c, g) < min_leaf
    bad = short.reshape(routings, k - 1, P) | ~(V[:-1] < V[1:])
    t = np.arange(n_miss.max())[:, None, None]
    tail = np.where(t < n_miss, end + t * P + np.array([[0], [k * P]]), 2 * k * P)
    return (cols, V.reshape(-1), (rows + base).reshape(k, P), end - P,
            tail.reshape(len(t), 2 * P), np.concatenate([n_miss, n_miss]), counts, bad)


class _Scratch:
    """A reusable float buffer for a batch's split-search temporaries; it
    grows to the largest block seen."""

    def __init__(self):
        self.buf = np.empty(0)

    def arrays(self, *shapes):
        """One view of the buffer per shape, back to back, valid until the
        next call."""
        sizes = [math.prod(shape) for shape in shapes]
        if self.buf.size < sum(sizes):
            self.buf = None  # freed before its successor is allocated
            self.buf = np.empty(sum(sizes))
        views, end = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(self.buf[end:end + size].reshape(shape))
            end += size
        return views


def _best_splits(plan, R, g, scratch=None):
    """Exact greedy split search over all midpoints of present values, for
    the ``g`` nodes of ``plan`` (``_search_plan``), whose residuals are in
    ``R``, as the plan indexes it, the padding row's zero.

    Missing rows are tried on both sides and kept on the lower-SSE side.
    Ties break deterministically: lowest feature index, lowest threshold,
    missing routed left. A threshold is the midpoint of the values on either
    side, or the value above where the midpoint is not strictly above the
    value below (adjacent floats, -inf, overflow), so every row goes to the
    side the search counted it on. Returns each node's (sse_after, feature,
    threshold, default_left, n_left), n_left the rows sent left; sse_after
    is inf where no split is admissible. Call under
    ``np.errstate(divide="ignore", invalid="ignore", over="ignore")``:
    positions past a column's present rows divide by zero before they are
    masked out, and two values near the float limit sum to +-inf. The
    temporaries live in ``scratch`` (a ``_Scratch``), if given.
    """
    if plan is None:
        return (np.full(g, np.inf), np.zeros(g, np.intp), np.zeros(g), np.ones(g, bool),
                np.zeros(g))
    cols, V, at, last, tail, n_miss, counts, bad = plan
    (routings, k, P), c = bad.shape, len(cols)
    k += 1
    # the residuals and their squares, then a zero; their cumulative sums;
    # and the (statistic, side, routing, threshold, pair) sums, filled in
    # place
    flat, cum, sides = (scratch or _Scratch()).arrays(
        (2 * at.size + 1,), (2, k, P), (2, 2, routings, k - 1, P))
    stack = flat[:-1].reshape(2, k, P)
    R.take(at, out=stack[0])
    np.multiply(stack[0], stack[0], out=stack[1])
    flat[-1] = 0.0
    # the sums over each pair's missing rows, which follow its present ones
    missing = _exact_sums(flat.take(tail), n_miss).reshape(2, 1, P)
    # cumsum adds one position after another, so the rows after a pair's
    # present ones leave every prefix of them alone
    np.cumsum(stack, axis=1, out=cum)
    left = cum[:, :-1]
    total = cum.reshape(2, -1)[:, last].reshape(2, 1, P)
    np.add(left, missing, out=sides[:, 0, 0])
    np.subtract(total, left, out=sides[:, 1, 0])
    if routings == 2:
        sides[:, 0, 1] = left
        np.add(sides[:, 1, 0], missing, out=sides[:, 1, 1])
    S, Q = sides
    S *= S
    S /= counts
    np.subtract(Q, S, out=S)
    sse = np.add(S[0], S[1], out=S[0])  # (routing, threshold, pair)
    np.copyto(sse, np.inf, where=bad)
    t = sse.argmin(axis=1)  # first occurrence: lowest threshold
    v = np.minimum.reduce(sse, axis=1)  # its SSE, or NaN where argmin took one
    # ties between routings: lower threshold wins, then left; a column
    # without missing rows scores the same on both, so it stays left
    right = (v[-1] < v[0]) | ((v[-1] == v[0]) & (t[-1] < t[0]))
    value = np.where(right, v[-1], v[0]).reshape(c, g)
    value[~np.isfinite(value)] = np.inf
    best = value.argmin(axis=0)  # lowest feature index
    pair = best * g + np.arange(g)
    right = right[pair].view(np.int8)
    t = t[right, pair]
    at = t * P + pair
    below, above = V[at], V[at + P]
    mid = 0.5 * (below + above)
    threshold = np.where((below < mid) & (mid <= above), mid, above)
    return (value.reshape(-1)[pair], cols[best], threshold, right == 0,
            counts[0, right, t, pair])


def _node_sums(R, rows, base, sizes, train_pred, sse):
    """Each node's mean residual and, if ``sse``, its sum of squared
    deviations (else None), each bit for bit np.mean and np.sum of that
    node alone. Node ``i`` holds the rows ``rows[i]`` (padded with the
    padding row, whose residual is zero) of the residuals that start at
    ``base[i]`` in the flat ``R``. Every row's training prediction in
    ``train_pred`` becomes its node's mean (the padding row's any)."""
    where = rows.T + base  # (position, node)
    T = R.take(where)
    mean = _exact_sums(T, sizes) / sizes  # np.mean, bit for bit
    train_pred.reshape(-1)[where] = mean
    if not sse:
        return mean, None
    np.subtract(T, mean, out=T, where=rows.T != R.shape[1] - 1)  # the padding row's stays zero
    T *= T
    return mean, _exact_sums(T, sizes)


def _grow(XT, roots, R, max_depth, min_leaf, pool, start, root_plans=None, scratch=None):
    """One tree per residual vector (row) of ``R``, whose padding row is
    zero, grown together one level at a time from the roots ``roots``: each
    tree's root rows (ascending, padded with the padding row, ``XT``'s last
    column) and their count, then ``_presort``'s columns, present values,
    orders and present counts of these roots. Growth is limited by
    ``max_depth`` and ``min_leaf`` of that row. Tree ``i`` writes its
    ``NODE`` records into ``pool`` from position ``start[i]`` on, breadth
    first, with child indices that are positions in ``pool``. Returns each
    row's training-set predictions, the root level's search plans, which a
    later round on the same roots passes back as ``root_plans``, and where
    each tree ends.

    Every frontier node that can split is scored in one search per level,
    or per run of nodes that fits ``LEVEL_CELLS``. A split's children take
    their rows from it (``_partition``), and, if one of them can split in
    turn, its order in every column too. Node means and SSEs are
    exact-length sums, each equal to the 1-D np.sum of that node alone.
    """
    rows, sizes, cols, present, order, n_present = roots
    W = R.shape[1]
    pad = W - 1
    train_pred = np.zeros(R.shape)
    fit = np.arange(len(R))  # the frontier's trees, ascending
    grow = np.flatnonzero((max_depth > 0) & (sizes >= 2 * min_leaf))  # the nodes that can split
    at = start  # each frontier node's position in the pool
    free = start.copy()  # each tree's next node
    depth = 0
    while True:
        free += np.bincount(fit, minlength=len(free))
        # every row takes its node's mean; a split node's children overwrite it
        mean, node_sse = _node_sums(R, rows, fit * W, sizes, train_pred, len(grow) > 0)
        leaves = _LEAF.repeat(len(fit))
        leaves["value"], leaves["cover"] = mean, sizes
        pool[at] = leaves
        if not len(grow):
            return train_pred, root_plans, free
        if depth or root_plans is None:
            # below the root, each block's plan is dropped once searched
            step = max(1, LEVEL_CELLS // (max(1, len(cols)) * sizes[grow].max()))
            plans = ((a, _search_plan(XT, cols, order[:, grow[b:b + step], :k],
                                      n_present[:, grow[b:b + step]], sizes[a],
                                      min_leaf[fit[a]], fit[a] * W))
                     for b in range(0, len(grow), step)
                     for a in [grow[b:b + step]] for k in [sizes[a].max()])
            if not depth:
                plans = root_plans = list(plans)
        else:
            plans = root_plans
        found = [_best_splits(plan, R, len(a), scratch) for a, plan in plans]
        sse_after, feature, threshold, default_left, n_left = (
            np.concatenate(f) for f in zip(*found)) if len(found) > 1 else found[0]
        ok = ~(node_sse[grow] - sse_after <= MIN_GAIN) & (sse_after < np.inf)
        split = grow[ok]
        if not len(split):
            return train_pred, root_plans, free
        feature, threshold, default_left = feature[ok], threshold[ok], default_left[ok]
        # a tree's children are its next level's nodes, left then right
        fit = fit[split]
        children = free[fit] + 2 * (np.arange(len(fit)) - np.searchsorted(fit, fit))
        splits = leaves[split]
        splits["feature"], splits["threshold"], splits["default_left"] = \
            feature, threshold, default_left
        splits["left"], splits["right"], splits["value"] = children, children + 1, np.nan
        pool[at[split]] = splits

        # each split's (node, row) side: 0 left, 1 right, 2 the padding row
        rows = rows[split]
        node = np.arange(0, len(split) * W, W)[:, None]
        side = np.full(len(split) * W, 2, np.uint8)
        side.put(rows + node, ~goes_left(XT.take(rows + (feature * W)[:, None]),
                                         threshold[:, None], default_left[:, None]))
        side[node[:, 0] + pad] = 2
        n_child = np.empty((len(split), 2), np.intp)
        n_child[:, 0] = n_left[ok]
        np.subtract(sizes[split], n_child[:, 0], out=n_child[:, 1])
        sizes = n_child.reshape(-1)
        at = (children[:, None] + (0, 1)).reshape(-1)
        fit = fit.repeat(2)
        depth += 1
        grow = np.flatnonzero((max_depth[fit] > depth) & (sizes >= 2 * min_leaf[fit]))
        # the children's rows and, if one of them can split, their orders in
        # every column
        layers = np.concatenate([order[:, split], rows[None]]) if len(grow) else rows[None]
        layers = _partition(layers, side.take(layers + node), n_child, pad)
        order, rows = layers[:-1], layers[-1]
        if len(grow):
            n_present = np.add.reduce(present[:, rows], axis=2)  # the padding row is absent


def staged_batch(X: np.ndarray, y: np.ndarray, configs: list[GBTConfig], rows: list,
                 tests: list, stages: list) -> list[np.ndarray]:
    """Each fit's predictions of its held-out rows after some of its rounds:
    fit ``f`` trains on the rows ``rows[f]`` of ``X``, ``tests[f]`` holds
    row indices of ``X`` and ``stages[f]`` tree counts (0 to that fit's
    ``n_trees``). Column ``j`` of result ``f`` is bit-identical to column
    ``stages[f][j]`` of ``fit_gbt(X[r], y[r], configs[f]).staged_predict(
    X[tests[f]])`` for ``r = rows[f]`` ascending, and row sets that
    ``fit_gbt`` would refuse raise its error.

    The fits boost in lockstep, round by round, and a fit retires after its
    own ``n_trees``. No tree is kept: after each round the held-out rows
    walk the trees just grown, which the next round overwrites, and add
    their leaves to their predictions in the order ``staged_predict`` adds
    them.
    """
    X = np.asarray(X, dtype=float)
    XT, y, member = _canonical(X, y, configs, rows)
    if not len(tests) == len(stages) == len(configs):
        raise ValueError("one held-out row set and one stage list per config")
    if any(not 0 <= k <= c.n_trees for c, ks in zip(configs, stages) for k in ks):
        raise ValueError("a stage outside 0..n_trees")
    held = np.concatenate([np.zeros(0, np.intp), *tests])
    owner = np.repeat(np.arange(len(configs)), [len(t) for t in tests])
    ends = np.cumsum(np.bincount(owner, minlength=len(configs))).tolist()
    at_stage: dict[int, list] = {}  # tree count -> (fit, column)s it fills
    for f, ks in enumerate(stages):
        for j, k in enumerate(ks):
            at_stage.setdefault(k, []).append((f, j))
    n_trees = np.array([c.n_trees for c in configs])
    rates = np.array([c.learning_rate for c in configs])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rounds = _rounds(XT, y, member, configs)
        acc = next(rounds)[owner]  # each held-out row's prediction so far
        # every column starts at the base score, stage 0; the others are set below
        out = [np.repeat(acc[b:e, None], len(ks), axis=1)
               for b, e, ks in zip([0] + ends, ends, stages)]
        for t, (pool, start, _) in enumerate(rounds):
            if not t or (n_trees == t).any():  # a fit retired
                walk = np.flatnonzero(n_trees[owner] > t)  # the live fits' held-out rows
                walk_rows, walk_root = held[walk, None], start[owner[walk], None]
                walk_rates = rates[owner[walk]]
            # the held-out rows walk this round's trees (each rooted at its
            # region's first node) and add leaf * rate as cumsum would
            leaf = _leaf_values(pool, X, walk_rows, walk_root)[:, 0]
            acc[walk] += leaf * walk_rates
            for f, j in at_stage.get(t + 1, ()):
                out[f][:, j] = acc[ends[f] - len(out[f]):ends[f]]
    return out


def _canonical(X, y, configs, rows):
    """The checked inputs of a batch: the canonical matrix, transposed, with
    the padding row; the targets in its row order; and each fit's root
    membership of its rows ``rows[f]``."""
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty feature matrix")
    if X.shape[0] != len(y):
        raise ValueError("X and y row counts differ")
    if len(rows) != len(configs):
        raise ValueError("one row set per config")
    member = np.zeros((len(configs), len(y)), dtype=bool)
    for m, r in zip(member, rows):
        m[r] = True
    counts = member.sum(axis=1)
    if not counts.all():
        raise ValueError("empty feature matrix")
    if np.isnan(y[member.any(axis=0)]).any():
        raise ValueError("targets contain NaN")
    if (counts < [2 * c.min_samples_leaf for c in configs]).any():
        raise ValueError("too few rows for min_samples_leaf")
    if not (member & ~np.isnan(X).all(axis=1)).any(axis=1).all():
        raise ValueError("all feature values missing")

    # canonicalize row order so fitting is exactly invariant to joint row
    # permutations (floating-point sums depend on summation order; sorting
    # rows lexicographically makes that order a function of the data alone;
    # lexsort puts NaN last, as each node's sort does). The lexsort is
    # stable, so restricted to a fit's rows it is the lexsort of those rows
    order = np.lexsort([y, *X.T[::-1]])
    XT = np.hstack([X[order].T, np.full((X.shape[1], 1), np.nan)])  # and the padding row
    return XT, y[order], member[:, order]


def _rounds(XT, y, member, configs):
    """The boosting rounds of a batch over the canonical matrix ``XT``
    (transposed, with the padding row) and targets ``y``; fit ``f`` trains
    on the rows ``member[f]`` and retires after its own ``n_trees``. Yields
    each fit's base score, then after each round the node pool and each
    fit's region ``start``, ``end``: ``pool[start[f]:end[f]]`` is the last
    tree fit ``f`` grew, its child indices positions in ``pool``; the next
    round overwrites it unless the fit has retired."""
    n, counts = len(y), member.sum(axis=1)
    base = np.array([y[m].mean() for m in member])
    yield base
    max_depth = np.array([c.max_depth for c in configs])
    min_leaf = np.array([c.min_samples_leaf for c in configs])
    rates = np.array([[c.learning_rate] for c in configs])
    n_trees = np.array([c.n_trees for c in configs], dtype=np.intp)
    # each fit's root rows, ascending, padded with the padding row n, and
    # sorted once per batch in each column that can split one of them
    width = np.arange(counts.max(initial=0))
    roots = np.full((len(configs), len(width)), n)
    roots[width < counts[:, None]] = np.flatnonzero(member) % n
    cols, present, order, n_present = _presort(XT, roots)
    roots = roots.astype(order.dtype)
    # each fit's region of one pool is sized for its largest tree: 2 **
    # (depth + 1) - 1 nodes, and 2 l - 1 for l leaves of min_samples_leaf
    # rows or more (every child holds as many rows as the search counted)
    start = np.cumsum([0] + [min(2 ** (c.max_depth + 1) - 1, 2 * (k // c.min_samples_leaf) - 1)
                             for c, k in zip(configs, counts.tolist())])
    pool, start, end = np.empty(start[-1], NODE), start[:-1], start[:-1].copy()
    yp = np.append(y, 0.0)
    live = np.arange(len(configs))
    pred = np.repeat(base[:, None], n + 1, axis=1)  # the live fits' training predictions
    scratch = _Scratch()
    for t in range(n_trees.max(initial=0)):
        if not t or (n_trees[live] == t).any():  # the first round, or a fit retired
            keep = n_trees[live] > t
            live, pred = live[keep], pred[keep]
            root = (roots[live], counts[live], cols, present, order[:, live], n_present[:, live])
            limits, rate, root_plans = (max_depth[live], min_leaf[live]), rates[live], None
        R = yp - pred
        R[:, n] = 0.0  # the padding row
        train_pred, root_plans, end[live] = _grow(XT, root, R, *limits, pool, start[live],
                                                  root_plans, scratch)
        pred += rate * train_pred
        yield pool, start, end


def fit_gbt(X: np.ndarray, y: np.ndarray, config: GBTConfig,
            mask: np.ndarray | None = None,
            column_names: tuple[str, ...] | None = None) -> TreeEnsemble:
    """Boost depth-limited regression trees against squared error.

    NaN marks a missing entry; ``mask``, if given, marks more (a present
    value under it is ignored). Targets must be fully observed.
    """
    X = fold_mask(X, mask)
    XT, y, member = _canonical(X, y, [config], [slice(None)])
    if column_names is None:
        column_names = tuple(f"f{j}" for j in range(X.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rounds = _rounds(XT, y, member, [config])
        (base,) = next(rounds)
        # each round's tree, copied from its region (at 0) before the next overwrites it
        trees = [pool[:e].copy() for pool, _, (e,) in rounds]
    sizes = [len(tree) for tree in trees]
    roots = np.cumsum([0, *sizes], dtype=np.intp)[:-1]
    nodes = np.concatenate([np.empty(0, NODE), *trees])
    shift = np.where(nodes["feature"] < 0, 0, np.repeat(roots, sizes))  # leaves keep -1
    nodes["left"] += shift
    nodes["right"] += shift
    return TreeEnsemble(float(base), config.learning_rate, tuple(column_names), nodes, roots)
