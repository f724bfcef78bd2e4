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
arXiv:1603.02754, section 3.1). After the rows are put in canonical order,
a node sorts its own rows in each column with two distinct present values
(no other can split it): present values ascending, ties in row order,
missing rows last. It then scores every column that can split it, and both
missing-value routings where it has missing rows, in one cumulative-sum pass.
Every SSE is bit-identical to scoring one column at a time: cumsum adds
sequentially in any shape, but np.sum sums 8 or more terms in blocks, so
the sums over a node's missing rows are taken per missing count on
unpadded blocks, exactly as a 1-D np.sum would take them.

Most of a node's search does not depend on the residuals: the sort, how
many rows of each column are missing, the row counts on each side of every
threshold and which thresholds are inadmissible. That part is a node plan.
Independent fits on the same rows (a grid search's configs on one training
split) share one plan store in ``fit_gbt_batch`` and boost in lockstep.
Each round grows every fit's tree one level at a time, the depth-wise
growth of Mitchell & Frank 2017 (PeerJ CS 3:e127). The frontier nodes of
all fits are grouped by membership and leaf size; a group takes its node
means and SSEs in one pass and searches all of its residual vectors with
one plan, so a plan is built once per batch. Plans are kept across rounds,
keyed by the node's rows (always ascending, so the key is canonical), up
to ``PLAN_BUDGET`` array bytes per batch; a node that misses the store
builds its plan again, and the result is bit-identical either way. A
split's child rows are routed once per group and not stored: routing costs
microseconds. Node sums run over C-ordered rows, never zero-padded, so
each equals the 1-D np.sum of one fit alone, and each fit keeps its own
depth limit, gain floor and tie-breaks: every ensemble of a batch is the
one its config gives alone, bit for bit. ``fit_gbt`` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _node(cover: int) -> list:
    """A node row in ``NODE`` field order, a leaf until its value or split is set."""
    return [-1, np.nan, False, -1, -1, np.nan, cover]


@dataclass(eq=False)
class TreeEnsemble:
    base_score: float
    learning_rate: float
    column_names: tuple[str, ...]
    nodes: np.ndarray  # NODE records, tree after tree
    roots: np.ndarray  # each tree's root index (intp, so it indexes even when empty)

    @classmethod
    def from_nodes(cls, base_score, learning_rate, column_names, nodes, roots) -> "TreeEnsemble":
        """The ensemble of the node rows ``nodes`` (``_node`` form) and ``roots``."""
        return cls(base_score, learning_rate, tuple(column_names),
                   np.array([tuple(n) for n in nodes], dtype=NODE), np.array(roots, dtype=np.intp))

    def predict_row(self, x: np.ndarray, mask: np.ndarray | None = None) -> float:
        return float(self.predict(np.reshape(x, (1, -1)), mask)[0])

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
        # every tree at once, one level per step: (rows, trees) node indices
        node = np.repeat(self.roots[None], X.shape[0], axis=0)
        rows = np.arange(X.shape[0])[:, None]
        at = self.nodes[node]
        while (split := at["feature"] >= 0).any():
            left = goes_left(X[rows, at["feature"]], at["threshold"], at["default_left"])
            node = np.where(split, np.where(left, at["left"], at["right"]), node)
            at = self.nodes[node]
        base = np.full((X.shape[0], 1), self.base_score)
        return np.cumsum(np.hstack([base, at["value"] * self.learning_rate]), axis=1)

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
        nodes: list[list] = []
        roots = []
        for tree in d["trees"]:
            roots.append(len(nodes))
            queue = [tree]
            for node in queue:  # breadth first, as _grow numbers them
                row = _node(node["cover"])
                if "leaf_value" in node:
                    row[5] = node["leaf_value"]
                else:
                    child = roots[-1] + len(queue)
                    row[:5] = (node["split_feature"], node["threshold"],
                               node["default_direction"] == "left", child, child + 1)
                    queue += (node["left"], node["right"])
                nodes.append(row)
        return cls.from_nodes(d["base_score"], d["learning_rate"], d["columns"], nodes, roots)


def fold_mask(X, mask: np.ndarray | None) -> np.ndarray:
    """``X`` as floats, NaN wherever ``mask`` is set: NaN is the one
    missing-value marker below the public entries, and ``mask`` an optional
    override folded in once."""
    X = np.asarray(X, dtype=float)
    return X if mask is None else np.where(mask, np.nan, X)


PLAN_BUDGET = 256 * 1024  # array bytes of node plans (and their keys) kept per batch


class _NodePlan:
    """One node's split search, with what does not depend on the residuals
    built once. Its rows are the node's columns that have an admissible
    threshold (a column without one can never split the node), ordered by
    missing count, so the missing rows of each count form one slice.

    ``gather`` holds the node's rows in each kept column's sorted order
    (present values ascending, ties in row order, missing rows last), or is
    None when no split is admissible. ``features`` lists the kept
    columns, ascending, and ``columns`` the row of each. ``counts`` and ``bad`` are
    indexed by (side, routing): routing 0 sends the missing rows left,
    routing 1 right. Without missing rows both routings score alike, so the
    plan holds routing 0 only.
    """

    __slots__ = ("gather", "features", "columns", "tails", "totals", "counts", "bad")

    def __init__(self, X: np.ndarray, idx: np.ndarray, min_leaf: int):
        k = len(idx)
        block = X.T[:, idx]
        # only a column with two distinct present values can split: sort no other
        sortable = np.flatnonzero(np.fmin.reduce(block, axis=1) < np.fmax.reduce(block, axis=1))
        block = block[sortable]
        order = np.argsort(block, axis=1, kind="stable")  # idx ascends: ties in row order, NaN last
        gather = idx[order]
        V = np.take_along_axis(block, order, axis=1)  # each row: present ascending, then NaN
        n_miss = np.isnan(V).sum(axis=1)
        n_present = k - n_miss

        # the side that does not take the missing rows adds nothing to its
        # count and sums: the same bits as adding -0.0
        kk = np.arange(1, k)  # threshold t: t + 1 present rows on the left
        counts = np.empty((2, 2, len(V), k - 1))
        counts[0, 0] = kk + n_miss[:, None]
        counts[0, 1] = kk
        counts[1, 0] = n_present[:, None] - kk
        counts[1, 1] = counts[1, 0] + n_miss[:, None]
        short = counts < min_leaf
        bad = short[0] | short[1] | ~(V[:, :-1] < V[:, 1:])
        kept = np.flatnonzero(~bad.all(axis=(0, 2))).tolist()  # rows of V that can split
        self.features = sortable[kept].tolist()
        if not kept:
            self.gather = None
            return
        n_miss = n_miss.tolist()
        rows = sorted(kept, key=n_miss.__getitem__)  # stable
        if rows != list(range(len(V))):
            gather, n_present, counts, bad = gather[rows], n_present[rows], \
                counts[:, :, rows], bad[:, rows]
        # (first row, end row, first missing position) of each missing count
        self.tails, a = [], 0
        for b in range(1, len(rows) + 1):
            if b == len(rows) or n_miss[rows[b]] != n_miss[rows[a]]:
                if n_miss[rows[a]]:
                    self.tails.append((a, b, k - n_miss[rows[a]]))
                a = b
        routings = 2 if self.tails else 1
        # counts and bad broadcast over a leading fit axis
        self.gather = gather
        self.counts, self.bad = counts[:, :routings, None], bad[:routings, None]
        row_of = {v: r for r, v in enumerate(rows)}
        self.columns = np.array([row_of[v] for v in kept])
        # flat (row, position) of each row's last present value
        self.totals = np.arange(len(rows)) * k + np.maximum(n_present - 1, 0)

    def nbytes(self) -> int:
        if self.gather is None:
            return 0
        return sum(a.nbytes for a in (self.gather, self.columns, self.totals, self.counts, self.bad))

    def best_split(self, R, X):
        """Exact greedy search over all midpoints of present values, for
        each residual vector (row) of ``R``; thresholds are read from ``X``,
        the batch's canonical rows.

        Missing rows are tried on both sides and kept on the lower-SSE side.
        Ties break deterministically: lowest feature index, lowest threshold,
        missing routed left. Returns one (sse_after, feature, threshold,
        default_left) or None per row of ``R``. Call under
        ``np.errstate(divide="ignore", invalid="ignore")``: positions past a
        column's present rows divide by zero before they are masked out.
        """
        batch = len(R)
        if self.gather is None:
            return [None] * batch
        p, k = self.gather.shape
        stack = np.empty((2, batch, p, k))  # residuals, their squares
        R.take(self.gather, axis=1, out=stack[0])
        np.multiply(stack[0], stack[0], out=stack[1])
        # sums over the missing rows must equal 1-D np.sum bit for bit, whose
        # summation order depends on the term count: each missing count's
        # block is summed on its own, never zero-padded (0.0 where none)
        missing = np.zeros((2, batch, p))
        for a, b, start in self.tails:
            np.add.reduce(stack[..., a:b, start:], axis=3, out=missing[..., a:b])
        cum = stack.cumsum(axis=3)
        left = cum[..., :-1]
        total = cum.reshape(2, batch, p * k).take(self.totals, axis=2)[..., None]
        # (statistic, side * routings + routing, fit, row, threshold), filled
        # in place because large temporaries cost page faults
        routings = self.bad.shape[0]
        sides = np.empty((2, 2 * routings, batch, p, k - 1))
        np.add(left, missing[..., None], out=sides[:, 0])
        np.subtract(total, left, out=sides[:, routings])
        if routings == 2:
            sides[:, 1] = left
            np.add(sides[:, 2], missing[..., None], out=sides[:, 3])
        S, Q = sides.reshape(2, 2, routings, batch, p, k - 1)
        S *= S
        S /= self.counts
        np.subtract(Q, S, out=S)
        sse = np.add(S[0], S[1], out=S[0])  # (routing, fit, row, threshold)
        np.copyto(sse, np.inf, where=self.bad)
        t = sse.argmin(axis=3)  # first occurrence: lowest threshold
        v = sse.min(axis=3)
        # ties between routings: lower threshold wins, then left; a column
        # without missing rows scores the same on both, so it stays left
        right = (v[-1] < v[0]) | ((v[-1] == v[0]) & (t[-1] < t[0]))
        value = np.where(right, v[-1], v[0])[:, self.columns]  # (fit, kept feature)
        value[~np.isfinite(value)] = np.inf
        found = []
        for f, c in enumerate(value.argmin(axis=1).tolist()):  # lowest feature index
            if value[f, c] == np.inf:
                found.append(None)
                continue
            j, row = self.features[c], self.columns[c]
            i = int(t[int(right[f, row]), f, row])
            below, above = X[self.gather[row, i:i + 2], j]  # both present
            found.append((float(value[f, c]), j, float(0.5 * (below + above)),
                          not bool(right[f, row])))
        return found


@dataclass(eq=False)
class _PlanStore:
    """The node plans of one batch over its canonical rows ``X``, keyed by
    (node rows, leaf size): first come, first kept, up to ``PLAN_BUDGET`` bytes."""

    X: np.ndarray
    plans: dict = field(default_factory=dict)
    cached_bytes: int = 0

    def plan(self, idx: np.ndarray, min_leaf: int) -> _NodePlan:
        key = (idx.tobytes(), min_leaf)
        plan = self.plans.get(key)
        if plan is None:
            plan = _NodePlan(self.X, idx, min_leaf)
            nbytes = plan.nbytes() + len(key[0])
            if self.cached_bytes + nbytes <= PLAN_BUDGET:
                self.plans[key] = plan
                self.cached_bytes += nbytes
        return plan


def _grow(store, R, configs, root, nodes) -> np.ndarray:
    """One tree per residual vector (row) of ``R``, each limited by its own
    config, grown together one level at a time from the rows ``root``. Fit
    ``f``'s tree grows, breadth first, from the last of its node rows
    ``nodes[f]``. Returns each row's training-set predictions.

    The nodes of a level are grouped by (membership, leaf size). A group
    gathers its fits' node residuals in C order, so each node sum equals the
    1-D np.sum of that fit alone, and searches all its fits in one call.
    """
    train_pred = np.empty(R.shape)
    # (fit, node index, rows), each fit's nodes in breadth-first order
    frontier = [(f, len(table) - 1, root) for f, table in enumerate(nodes)]
    depth = 0
    while frontier:
        groups: dict = {}
        for e, (f, _, idx) in enumerate(frontier):
            groups.setdefault((idx.tobytes(), configs[f].min_samples_leaf), (idx, []))[1].append(e)
        children: list = [None] * len(frontier)  # (left rows, right rows) of each split
        for (_, min_leaf), (idx, entries) in groups.items():
            fits = [frontier[e][0] for e in entries]
            rows = R.take(fits, axis=0)
            node_r = rows.take(idx, axis=1)  # C order, unlike rows[:, idx]
            node_mean = np.add.reduce(node_r, 1) / len(idx)  # np.mean, bit for bit
            splits = [None] * len(entries)
            grow = [m for m, f in enumerate(fits) if depth < configs[f].max_depth] \
                if len(idx) >= 2 * min_leaf else []
            if grow:
                mean = node_mean[:, None]
                if len(grow) < len(entries):
                    rows, node_r, mean = rows[grow], node_r[grow], mean[grow]
                node_sse = np.add.reduce((node_r - mean) ** 2, 1).tolist()
                found = store.plan(idx, min_leaf).best_split(rows, store.X)
                for m, sse, split in zip(grow, node_sse, found):
                    if split is not None and not (sse - split[0] <= MIN_GAIN):
                        splits[m] = split[1:]
            routed: dict = {}
            for e, f, mean, split in zip(entries, fits, node_mean.tolist(), splits):
                _, i, _ = frontier[e]
                if split is None:
                    nodes[f][i][5] = mean
                    train_pred[f][idx] = mean
                    continue
                if split not in routed:
                    left = goes_left(store.X[idx, split[0]], split[1], split[2])
                    routed[split] = idx[left], idx[~left]
                nodes[f][i][:3] = split
                children[e] = routed[split]
        level, frontier = frontier, []
        for (f, i, _), sides in zip(level, children):
            if sides is not None:
                table = nodes[f]
                table[i][3:5] = len(table), len(table) + 1
                frontier += [(f, len(table) + s, side) for s, side in enumerate(sides)]
                table += [_node(len(side)) for side in sides]
        depth += 1
    return train_pred


def fit_gbt_batch(X: np.ndarray, y: np.ndarray, configs: list[GBTConfig],
                  mask: np.ndarray | None = None,
                  column_names: tuple[str, ...] | None = None) -> list[TreeEnsemble]:
    """One boosted ensemble per config, all fitted on the same rows.

    The fits share one node-plan store and boost in lockstep, round by
    round; a fit retires after its own ``n_trees``.
    Each ensemble is bit-identical to fitting its config alone.
    """
    X = fold_mask(X, mask)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty feature matrix")
    if X.shape[0] != len(y):
        raise ValueError("X and y row counts differ")
    if np.isnan(y).any():
        raise ValueError("targets contain NaN")
    if any(X.shape[0] < 2 * c.min_samples_leaf for c in configs):
        raise ValueError("too few rows for min_samples_leaf")
    if np.isnan(X).all():
        raise ValueError("all feature values missing")
    if column_names is None:
        column_names = tuple(f"f{j}" for j in range(X.shape[1]))

    # canonicalize row order so fitting is exactly invariant to joint row
    # permutations (floating-point sums depend on summation order; sorting
    # rows lexicographically makes that order a function of the data alone;
    # lexsort puts NaN last, as each node plan's sort does)
    order = np.lexsort([y, *X.T[::-1]])
    X, y = X[order], y[order]

    base_score = float(y.mean())
    nodes: list[list] = [[] for _ in configs]  # each fit's node rows, tree after tree
    roots: list[list] = [[] for _ in configs]
    rates = np.array([[c.learning_rate] for c in configs])
    pred = np.full((len(configs), len(y)), base_score)
    root = np.arange(len(y))
    store = _PlanStore(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(max((c.n_trees for c in configs), default=0)):
            live = [f for f, c in enumerate(configs) if c.n_trees > t]
            for f in live:
                roots[f].append(len(nodes[f]))
                nodes[f].append(_node(len(y)))
            train_pred = _grow(store, y - pred[live], [configs[f] for f in live], root,
                               [nodes[f] for f in live])
            pred[live] += rates[live] * train_pred
    return [TreeEnsemble.from_nodes(base_score, c.learning_rate, column_names, n, r)
            for c, n, r in zip(configs, nodes, roots)]


def fit_gbt(X: np.ndarray, y: np.ndarray, config: GBTConfig,
            mask: np.ndarray | None = None,
            column_names: tuple[str, ...] | None = None) -> TreeEnsemble:
    """Boost depth-limited regression trees against squared error.

    NaN marks a missing entry; ``mask``, if given, marks more (a present
    value under it is ignored). Targets must be fully observed.
    """
    return fit_gbt_batch(X, y, [config], mask, column_names)[0]
