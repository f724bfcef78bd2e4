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
rows it is the canonical order of those rows alone. Each round grows
every fit's tree together: a level's frontier nodes, of every fit, are
scored in one (column, node, position) block, each node's rows ascending
and padded at the end. The block sorts, per node, only the columns that
can split some node of it (two distinct present values): present values
ascending, ties in row order, then missing rows, then padding. It scores
every threshold and both missing-value routings in one cumulative-sum
pass, and splits and leaves are written straight into each fit's ``NODE``
table. The root level's residual-free part (the sort, the counts, which
thresholds are inadmissible) is the same every round, so it is built once
per set of live fits, and the searches of a batch reuse one scratch buffer
for their large temporaries. One round loop serves every fit: a fit's
region of the node pool holds one tree, which the next round overwrites.
In ``staged_batch`` each fit's held-out rows walk its tree after every
round (the walk ``staged_predict`` uses) and add its leaf to their running
predictions in cumsum's order, so a batch keeps no trees. A nested CV's
grid search is one such batch per request (a dataset, a feature list and
seeds), and the refits of every request share one batch over a stacked
matrix (``pipeline.run_cv_requests``). ``fit_gbt`` is a batch of one
config on all rows that copies each round's tree into its ensemble.

Every number is bit-identical to fitting one config alone, one node and
one column at a time. cumsum adds sequentially, so trailing padding leaves
every prefix alone; np.sum sums 8 or more terms in blocks, so the node
means and SSEs are one exact-length sum per node size, and the sums over
the missing rows one per missing count across the block, over C-ordered
rows, never padded. Each fit keeps its own depth limit, leaf size, gain
floor and tie-breaks.
"""

from __future__ import annotations

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
    at = nodes[node]
    while (split := at["feature"] >= 0).any():
        left = goes_left(X[rows, at["feature"]], at["threshold"], at["default_left"])
        node = np.where(split, np.where(left, at["left"], at["right"]), node)
        at = nodes[node]
    return at["value"]


def fold_mask(X, mask: np.ndarray | None) -> np.ndarray:
    """``X`` as floats, NaN wherever ``mask`` is set: NaN is the one
    missing-value marker below the public entries, and ``mask`` an optional
    override of ``X``'s shape folded in once."""
    X = np.asarray(X, dtype=float)
    if mask is not None and np.shape(mask) != X.shape:
        raise ValueError(f"mask shape {np.shape(mask)} differs from X's {X.shape}")
    return X if mask is None else np.where(mask, np.nan, X)


LEVEL_CELLS = 1 << 16  # (column, node, row) cells of one split search block


def _search_plan(XT, sizes, min_leaf):
    """The part of a block's split search that does not depend on the
    residuals, or None when no column can split any of its nodes. ``XT``
    holds the nodes' feature values (column, node, position), rows in
    canonical order padded with NaN, ``sizes`` their row counts and
    ``min_leaf`` their leaf sizes.

    Returns the columns kept, their values sorted within each (column,
    node) pair (present ascending, ties in row order, then missing, then
    padding), each sorted value's position in the node block, the missing
    rows' positions grouped by missing count, each pair's last present
    position, its missing and present counts, and which (routing, pair,
    threshold) are inadmissible.

    Threshold t sends t + 1 present rows left; routing 0 sends the missing
    rows left too, routing 1 right (tried only if some pair has any). With
    leaf size m, a side is short of m rows where t + 1 is below m - n_miss
    or above n_present - m (routing 0), or below m or above n_present +
    n_miss - m (routing 1); a threshold not between two distinct present
    values is inadmissible too.
    """
    _, g, k = XT.shape
    # only a column with two distinct present values in a node can split it:
    # sort no other (a column kept for one node is inadmissible in the rest)
    cols = np.flatnonzero(np.logical_or.reduce(
        np.fmin.reduce(XT, axis=2) < np.fmax.reduce(XT, axis=2), axis=1))
    c = len(cols)
    if not c:
        return None
    V = XT[cols] if c < len(XT) else XT
    pos = V.argsort(axis=2, kind="stable")
    pos += (np.arange(c * g) * k).reshape(c, g, 1)
    V = V.take(pos)
    pos %= g * k
    n_miss = (np.add.reduce(np.isnan(V), axis=2) - (k - sizes)).ravel()  # per (column, node)
    n_present = np.tile(sizes, c) - n_miss
    end = np.arange(c * g) * k + n_present + n_miss  # past each pair's last row
    # n_miss <= k: a key of that width sorts by radix, to the same permutation
    group = n_miss.astype(np.min_scalar_type(k)).argsort(kind="stable")
    cut = np.cumsum(np.bincount(n_miss)).tolist()
    tails = [(at, end[at, None] - np.arange(u, 0, -1)) for u in range(1, len(cut))
             for at in [group[cut[u - 1]:cut[u]]] if len(at)]
    last = end - n_miss - (n_present > 0)
    m, kk = np.tile(min_leaf, c), np.arange(1, k)  # kk: present rows left of each threshold
    lo = np.array([m - n_miss, m][:2 if tails else 1])[..., None]  # (routing, pair, 1)
    hi = np.array([n_present - m, n_present + n_miss - m][:len(lo)])[..., None]
    bad = (kk < lo) | (kk > hi) | ~(V[..., :-1] < V[..., 1:]).reshape(c * g, k - 1)
    return cols, V.reshape(-1), pos, tails, last, n_miss, n_present, bad


class _Scratch:
    """One float buffer that the split searches of a batch reuse for their
    large temporaries, grown as needed. Allocated per search, they would be
    fresh pages each time, one page fault per page, because the allocator
    hands freed blocks of this size back to the system."""

    def __init__(self):
        self.buf = np.empty(0)

    def arrays(self, *shapes):
        """One view of the buffer per shape, back to back, valid until the
        next call."""
        sizes = [int(np.prod(shape)) for shape in shapes]
        if self.buf.size < sum(sizes):
            self.buf = None  # freed before its successor is allocated
            self.buf = np.empty(sum(sizes))
        ends = np.cumsum(sizes).tolist()
        return [self.buf[e - n:e].reshape(shape) for shape, n, e in zip(shapes, sizes, ends)]


def _best_splits(plan, Rn, scratch=None):
    """Exact greedy split search over all midpoints of present values, for
    the nodes of ``plan`` (``_search_plan``) whose residuals, in row order
    and padded, are the rows of ``Rn``.

    Missing rows are tried on both sides and kept on the lower-SSE side.
    Ties break deterministically: lowest feature index, lowest threshold,
    missing routed left. A threshold is the midpoint of the values on either
    side, or the value above where the midpoint is not strictly above the
    value below (adjacent floats, -inf, overflow), so every row goes to the
    side the search counted it on. Returns each node's (sse_after, feature,
    threshold, default_left); sse_after is inf where no split is admissible. Call
    under ``np.errstate(divide="ignore", invalid="ignore", over="ignore")``:
    positions past a column's present rows divide by zero before they are
    masked out, and two values near the float limit sum to +-inf. The
    temporaries live in ``scratch`` (a ``_Scratch``), if given.
    """
    g, k = Rn.shape
    if plan is None:
        return np.full(g, np.inf), np.zeros(g, np.intp), np.zeros(g), np.ones(g, bool)
    cols, V, pos, tails, last, n_miss, n_present, bad = plan
    routings, c = len(bad), len(cols)
    # residuals and their squares, their cumulative sums, and (below) the
    # (statistic, side * routings + routing, pair, threshold) sums and one
    # (pair, threshold) row count at a time, filled in place
    stack, cum, sides, count = (scratch or _Scratch()).arrays(
        (2,) + pos.shape, (2,) + pos.shape, (2, 2 * routings, c * g, k - 1), (c * g, k - 1))
    Rn.take(pos, out=stack[0])
    np.multiply(stack[0], stack[0], out=stack[1])
    # sums over the missing rows must equal 1-D np.sum bit for bit, whose
    # summation order depends on the term count: the (column, node) pairs
    # with u missing rows are summed together, u terms each, never padded,
    # over C-ordered rows (take gives them; stack[:, tail] would not)
    missing = np.zeros((2, c * g, 1))
    for at, tail in tails:
        missing[:, at, 0] = np.add.reduce(stack.reshape(2, -1).take(tail, axis=1), axis=2)
    # cumsum adds sequentially, so trailing padding leaves every prefix alone
    np.cumsum(stack, axis=3, out=cum)
    cum = cum.reshape(2, c * g, k)
    left = cum[..., :-1]
    total = cum.reshape(2, -1)[:, last, None]

    np.add(left, missing, out=sides[:, 0])
    np.subtract(total, left, out=sides[:, routings])
    if routings == 2:
        sides[:, 1] = left
        np.add(sides[:, 2], missing, out=sides[:, 3])
    S, Q = sides.reshape(2, 2, routings, c * g, k - 1)
    S *= S
    # divide by each (side, routing)'s row count, as ``_search_plan`` counts it
    kk, n_miss, n_present = np.arange(1, k), n_miss[:, None], n_present[:, None]
    S[0, 0] /= np.add(kk, n_miss, out=count)
    S[1, 0] /= np.subtract(n_present, kk, out=count)
    if routings == 2:
        S[0, 1] /= kk
        S[1, 1] /= np.add(count, n_miss, out=count)
    np.subtract(Q, S, out=S)
    sse = np.add(S[0], S[1], out=S[0])  # (routing, pair, threshold)
    np.copyto(sse, np.inf, where=bad)
    t = sse.argmin(axis=2)  # first occurrence: lowest threshold
    v = sse.reshape(-1).take(t + np.arange(0, sse.size, k - 1).reshape(routings, -1))
    # ties between routings: lower threshold wins, then left; a column
    # without missing rows scores the same on both, so it stays left
    right = (v[-1] < v[0]) | ((v[-1] == v[0]) & (t[-1] < t[0]))
    value = np.where(right, v[-1], v[0]).reshape(c, g)
    value[~np.isfinite(value)] = np.inf
    best = value.argmin(axis=0)  # lowest feature index
    pair = best * g + np.arange(g)
    right = right[pair]
    at = t[right.view(np.int8), pair] + pair * k
    below, above = V[at], V[at + 1]
    mid = 0.5 * (below + above)
    threshold = np.where((below < mid) & (mid <= above), mid, above)
    return value.reshape(-1)[pair], cols[best], threshold, ~right


def _grow(XT, R, max_depth, min_leaf, rows, pool, start, root_plans=None, scratch=None):
    """One tree per residual vector (row) of ``R``, grown together one level
    at a time from the root rows ``rows`` (each ascending and padded with
    the padding row, ``XT``'s last column), limited by ``max_depth`` and
    ``min_leaf`` of that row. Tree ``i`` writes its ``NODE`` records into
    ``pool`` from position ``start[i]`` on, breadth first, with child
    indices that are positions in ``pool``. Returns each row's training-set
    predictions, the root level's search plans, which a later round on the
    same roots passes back as ``root_plans``, and where each tree ends.

    Every frontier node of every tree is scored in one search per level;
    node means and SSEs are exact-length sums, one call per node size, so
    each equals the 1-D np.sum of that node alone.
    """
    pad = R.shape[1] - 1
    train_pred = np.zeros(R.shape)
    fit = np.arange(len(R))  # the frontier's trees, ascending
    sizes = (rows < pad).sum(axis=1)
    free = start.copy()  # each tree's next node
    depth = 0
    while len(fit):
        at = free[fit] + np.arange(len(fit)) - np.searchsorted(fit, fit)
        free += np.bincount(fit, minlength=len(free))
        Rn = R.take(fit[:, None] * R.shape[1] + rows)  # (node, position)
        mean, node_sse = np.empty(len(fit)), np.empty(len(fit))
        for k in np.flatnonzero(np.bincount(sizes)).tolist():
            i = np.flatnonzero(sizes == k)
            r = Rn[i, :k]  # C order
            mean[i] = np.add.reduce(r, 1) / k  # np.mean, bit for bit
            node_sse[i] = np.add.reduce((r - mean[i, None]) ** 2, 1)
        pool["feature"][at], pool["threshold"][at], pool["default_left"][at] = -1, np.nan, False
        pool["left"][at], pool["right"][at], pool["value"][at], pool["cover"][at] = \
            -1, -1, mean, sizes
        grow = np.flatnonzero((depth < max_depth[fit]) & (sizes >= 2 * min_leaf[fit]))
        split = feature = threshold = default_left = grow  # all empty if none grows
        if len(grow):
            if depth or root_plans is None:
                # one block per level, or per run of nodes that fits LEVEL_CELLS
                step = max(1, LEVEL_CELLS // (len(XT) * sizes[grow].max()))
                blocks = (np.split(grow, range(step, len(grow), step)) if step < len(grow)
                          else [grow])
                plans = [(a, k, _search_plan(XT[:, rows[a, :k]], sizes[a], min_leaf[fit[a]]))
                         for a, k in ((a, sizes[a].max()) for a in blocks)]
                root_plans = root_plans if depth else plans
            else:
                plans = root_plans
            found = [_best_splits(plan, Rn[a, :k], scratch) for a, k, plan in plans]
            sse_after, feature, threshold, default_left = (
                np.concatenate(f) for f in zip(*found)) if len(found) > 1 else found[0]
            gains = ~(node_sse[grow] - sse_after <= MIN_GAIN) & (sse_after < np.inf)
            split, feature = grow[gains], feature[gains]
            threshold, default_left = threshold[gains], default_left[gains]
        leaf = np.ones(len(fit), bool)
        leaf[split] = False
        train_pred[fit[leaf, None], rows[leaf]] = mean[leaf, None]  # the padding row takes any
        # a tree's children are its next level's nodes, left then right
        at, fit = at[split], fit[split]
        children = free[fit] + 2 * (np.arange(len(fit)) - np.searchsorted(fit, fit))
        pool["feature"][at], pool["threshold"][at] = feature, threshold
        pool["default_left"][at], pool["value"][at] = default_left, np.nan
        pool["left"][at], pool["right"][at] = children, children + 1

        # each split's rows, left then right, stay ascending with padding last
        parent = rows[split]
        present = parent < pad
        left = goes_left(XT[feature[:, None], parent], threshold[:, None],
                         default_left[:, None]) & present
        sides = np.stack([left, present & ~left], axis=1)
        sizes = sides.sum(axis=2).ravel()
        rows = np.sort(np.where(sides, parent[:, None], pad), axis=2)
        rows = rows.reshape(len(sizes), parent.shape[1])[:, :sizes.max(initial=0)]
        fit = fit.repeat(2)
        depth += 1
    return train_pred, root_plans, free


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
    # each fit's root rows, ascending, padded with the padding row n
    width = np.arange(counts.max(initial=0))
    roots = np.full((len(configs), len(width)), n)
    roots[width < counts[:, None]] = np.flatnonzero(member) % n
    # each fit's region of one pool is sized for its largest tree: 2 **
    # (depth + 1) - 1 nodes, and 2 l - 1 for l leaves of min_samples_leaf
    # rows or more (every child holds as many rows as the search counted)
    start = np.cumsum([0] + [min(2 ** (c.max_depth + 1) - 1, 2 * (k // c.min_samples_leaf) - 1)
                             for c, k in zip(configs, counts.tolist())])
    pool, start, end = np.empty(start[-1], NODE), start[:-1], start[:-1].copy()
    yp = np.append(y, 0.0)
    pred = np.repeat(base[:, None], n + 1, axis=1)
    root_plans = None  # the live fits' roots are the same every round
    scratch = _Scratch()
    for t in range(n_trees.max(initial=0)):
        live = np.flatnonzero(n_trees > t)
        if len(live) < (n_trees > t - 1).sum():
            root_plans = None  # a fit retired
        train_pred, root_plans, end[live] = _grow(XT, yp - pred[live], max_depth[live],
                                                  min_leaf[live], roots[live], pool, start[live],
                                                  root_plans, scratch)
        pred[live] += rates[live] * train_pred
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
