"""Gradient-boosted regression trees with native missing-value routing.

Squared-error boosting with exact greedy split search (no histogram
binning: training sets here are <= 92 rows, so exactness is cheap and keeps
oracle tests bit-stable). Each node records its cover (training samples
reaching it), which the Shapley module uses as the background distribution.
Fitting is fully deterministic: equal-gain ties break by lowest feature
index, then lowest threshold, then routing missing left.

Split search follows the presorted column blocks of XGBoost's exact greedy
algorithm (Chen & Guestrin 2016, arXiv:1603.02754, sections 3.1 and 4.1).
After the rows are put in canonical order, each column is sorted once per
fit: present values ascending, ties in row order, missing rows last. A
node filters that (features, rows) order matrix by membership, which keeps
every column's order equal to a stable per-node sort, and then scores all
columns and both missing-value routings in one 2-D cumulative-sum pass.
Every SSE is bit-identical to scoring one column at a time: cumsum adds
sequentially in any shape, but np.sum sums 8 or more terms in blocks, so
the sums over a node's missing rows are taken per missing count on
unpadded blocks, exactly as a 1-D np.sum would take them.

Most of a node's search does not depend on the residuals: which rows it
gathers from each column's order, how many of them are missing, the row
counts on each side of every threshold and which thresholds are
inadmissible. That part is a node plan. XGBoost builds its sorted column
blocks once before training and reuses them in every round (section 4.1);
the same node membership also recurs across boosting rounds, so each fit
keeps its node plans, and the child partitions of each split chosen at a
node, keyed by the node's rows (always ascending, so the key is canonical).
A round then only gathers the residuals, sums the missing rows, takes the
two cumulative sums and scores. The cache holds at most ``PLAN_BUDGET``
array bytes per fit; a node that misses it computes its plan as before, and
the result is bit-identical either way. Fits of a few rows and columns
keep every plan they reuse; nested-CV fits on 92 models with the two scale
columns keep 93% of them; a 92 x 74 fit reuses about half its memberships,
but its plans take tens to hundreds of KB, so it keeps only the first few.
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


@dataclass
class TreeNode:
    cover: int
    leaf_value: float | None = None
    split_feature: int | None = None
    threshold: float | None = None
    default_left: bool = True
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_value is not None

    def goes_left(self, X: np.ndarray, gone: np.ndarray, rows) -> np.ndarray:
        """Which of ``rows`` take the left child: a row whose split value is
        ``gone`` (missing or NaN) follows the default direction, any other
        goes left when its value is below the threshold."""
        j = self.split_feature
        left = X[:, j][rows] < self.threshold
        left[gone[:, j][rows]] = self.default_left
        return left

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"cover": self.cover, "leaf_value": self.leaf_value}
        return {
            "cover": self.cover,
            "split_feature": self.split_feature,
            "threshold": self.threshold,
            "default_direction": "left" if self.default_left else "right",
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeNode":
        if "leaf_value" in d:
            return cls(cover=d["cover"], leaf_value=d["leaf_value"])
        return cls(
            cover=d["cover"],
            split_feature=d["split_feature"],
            threshold=d["threshold"],
            default_left=d["default_direction"] == "left",
            left=cls.from_dict(d["left"]),
            right=cls.from_dict(d["right"]),
        )


@dataclass
class TreeEnsemble:
    base_score: float
    learning_rate: float
    trees: list[TreeNode] = field(default_factory=list)
    column_names: tuple[str, ...] = ()

    def predict_row(self, x: np.ndarray, miss: np.ndarray) -> float:
        return float(self.predict(np.reshape(x, (1, -1)), np.reshape(miss, (1, -1)))[0])

    def predict(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self._staged(X, mask)[:, -1]

    def staged_predict(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Predictions after 0..n_trees rounds: shape (rows, n_trees + 1)."""
        return self._staged(X, mask)

    def _staged(self, X, mask) -> np.ndarray:
        # cumsum adds along each row in order, so every column is bit-identical
        # to accumulating base + lr * leaf one tree at a time
        X = np.asarray(X, dtype=float)
        if X.shape[1] != len(self.column_names):
            raise ValueError("column mismatch")
        gone = np.asarray(mask, dtype=bool) | np.isnan(X)
        steps = np.empty((X.shape[0], len(self.trees) + 1))
        steps[:, 0] = self.base_score
        rows = np.arange(X.shape[0])
        for t, tree in enumerate(self.trees, 1):
            _fill_leaves(tree, X, gone, rows, steps[:, t])
        steps[:, 1:] *= self.learning_rate
        return np.cumsum(steps, axis=1)

    def to_dict(self) -> dict:
        return {
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "columns": list(self.column_names),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeEnsemble":
        return cls(
            base_score=d["base_score"],
            learning_rate=d["learning_rate"],
            trees=[TreeNode.from_dict(t) for t in d["trees"]],
            column_names=tuple(d["columns"]),
        )


def _fill_leaves(node: TreeNode, X, gone, rows, out) -> None:
    """Write into ``out[rows]`` the leaf value each of ``rows`` reaches."""
    if node.is_leaf:
        out[rows] = node.leaf_value
        return
    left = node.goes_left(X, gone, rows)
    _fill_leaves(node.left, X, gone, rows[left], out)
    _fill_leaves(node.right, X, gone, rows[~left], out)


PLAN_BUDGET = 256 * 1024  # array bytes of node plans and child partitions kept per fit


class _NodePlan:
    """The part of one node's split search that does not depend on the
    residuals. Its rows are the node's columns ordered by missing count, so
    the missing rows of each count form one slice.

    ``gather`` holds the node's rows in each column's presorted order, or is
    None when no split is admissible. ``counts`` and ``bad`` are indexed by
    (side, routing): routing 0 sends the missing rows left, routing 1 right.
    """

    __slots__ = ("gather", "columns", "tails", "totals", "counts", "bad")

    def __init__(self, presorted: "_Presorted", idx: np.ndarray, min_leaf: int):
        k = len(idx)
        inside = np.zeros(presorted.order.shape[1], dtype=bool)
        inside[idx] = True
        sel = inside[presorted.order]
        gather = presorted.order[sel].reshape(-1, k)
        V = presorted.values[sel].reshape(-1, k)  # each row: present ascending, then NaN
        n_miss = np.isnan(V).sum(axis=1)
        rows = np.argsort(n_miss, kind="stable")
        gather, V, n_miss = gather[rows], V[rows], n_miss[rows]
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
        if bad.all():
            self.gather = None
            return
        self.gather, self.counts, self.bad = gather, counts, bad
        self.columns = np.argsort(rows)  # feature -> row of this plan
        # flat positions in the (statistic, row, position) cumulative sums
        # of each row's last present value
        self.totals = (np.arange(2)[:, None] * len(V) + np.arange(len(V))) * k \
            + np.maximum(n_present - 1, 0)
        # (first row, end row, first missing position) of each missing count
        edges = [0, *(np.flatnonzero(np.diff(n_miss)) + 1).tolist(), len(V)]
        self.tails = [(a, b, k - int(n_miss[a])) for a, b in zip(edges, edges[1:]) if n_miss[a]]

    def nbytes(self) -> int:
        if self.gather is None:
            return 0
        return sum(a.nbytes for a in (self.gather, self.columns, self.totals, self.counts, self.bad))


class _Presorted:
    """Each column's row order, sorted once per fit: present values ascending
    (ties in row order), then the missing rows in row order. Node plans and
    child partitions are kept per fit, keyed by node membership, up to
    ``PLAN_BUDGET`` bytes."""

    def __init__(self, X: np.ndarray, mask: np.ndarray):
        self.X, self.mask = X, mask
        key = np.where(mask, np.nan, X).T  # NaN sorts last
        self.order = np.argsort(key, axis=1, kind="stable")  # (p, n)
        self.values = np.take_along_axis(key, self.order, axis=1)
        self.plans: dict = {}
        self.parts: dict = {}
        self.cached_bytes = 0

    def _keep(self, store: dict, key, value, nbytes: int) -> None:
        nbytes += len(key[0])
        if self.cached_bytes + nbytes <= PLAN_BUDGET:
            store[key] = value
            self.cached_bytes += nbytes

    def best_split(self, r, idx, min_leaf):
        """Exact greedy search over all midpoints of present values.

        Missing rows are tried on both sides and kept on the lower-SSE side.
        Ties break deterministically: lowest feature index, lowest threshold,
        missing routed left. Returns (sse_after, feature, threshold,
        default_left) or None. Call under ``np.errstate(divide="ignore",
        invalid="ignore")``: positions past a column's present rows divide
        by zero before they are masked out. Everything that does not depend
        on ``r`` comes from the node's plan, kept per fit when it fits.
        """
        key = (idx.tobytes(), min_leaf)
        plan = self.plans.get(key)
        if plan is None:
            plan = _NodePlan(self, idx, min_leaf)
            self._keep(self.plans, key, plan, plan.nbytes())
        if plan.gather is None:
            return None
        p, k = plan.gather.shape
        stack = np.empty((2, p, k))  # residuals, their squares
        r.take(plan.gather, out=stack[0])
        np.multiply(stack[0], stack[0], out=stack[1])
        # sums over the missing rows must equal 1-D np.sum bit for bit, whose
        # summation order depends on the term count: each missing count's
        # block is summed on its own, never zero-padded (0.0 where none)
        missing = np.zeros((2, p))
        for a, b, start in plan.tails:
            np.add.reduce(stack[:, a:b, start:], axis=2, out=missing[:, a:b])
        cum = stack.cumsum(axis=2)
        left = cum[..., :-1]
        # (statistic, side * 2 + routing, row, threshold), filled in place
        # because large temporaries cost page faults
        sides = np.empty((2, 4, p, k - 1))
        np.add(left, missing[..., None], out=sides[:, 0])
        sides[:, 1] = left
        np.subtract(cum.take(plan.totals)[..., None], left, out=sides[:, 2])
        np.add(sides[:, 2], missing[..., None], out=sides[:, 3])
        S, Q = sides.reshape(2, 2, 2, p, k - 1)
        S *= S
        S /= plan.counts
        np.subtract(Q, S, out=S)
        sse = np.add(S[0], S[1], out=S[0])
        sse[plan.bad] = np.inf
        t = sse.argmin(axis=2)  # first occurrence: lowest threshold
        v = sse.min(axis=2)
        # ties between routings: lower threshold wins, then left; a column
        # without missing rows scores the same on both, so it stays left
        right = (v[1] < v[0]) | ((v[1] == v[0]) & (t[1] < t[0]))
        value = np.where(right, v[1], v[0])[plan.columns]
        value[~np.isfinite(value)] = np.inf
        j = int(value.argmin())  # first occurrence: lowest feature index
        if value[j] == np.inf:
            return None
        row = plan.columns[j]
        i = int(t[int(right[row]), row])
        below, above = self.X[plan.gather[row, i:i + 2], j]  # both present
        return float(value[j]), j, float(0.5 * (below + above)), not bool(right[row])

    def partition(self, node: TreeNode, idx: np.ndarray):
        """``idx`` split into the rows that take ``node``'s left child and
        those that take its right child."""
        key = (idx.tobytes(), node.split_feature, node.threshold, node.default_left)
        parts = self.parts.get(key)
        if parts is None:
            left = node.goes_left(self.X, self.mask, idx)
            parts = idx[left], idx[~left]
            self._keep(self.parts, key, parts, idx.nbytes)
        return parts


def _build(presorted, r, idx, depth, config, train_pred) -> TreeNode:
    node_r = r[idx]
    node_mean = float(node_r.sum() / len(idx))  # np.mean, bit for bit
    node = TreeNode(cover=len(idx))
    if depth >= config.max_depth or len(idx) < 2 * config.min_samples_leaf:
        node.leaf_value = node_mean
        train_pred[idx] = node_mean
        return node
    node_sse = float(((node_r - node_mean) ** 2).sum())
    found = presorted.best_split(r, idx, config.min_samples_leaf)
    if found is None or node_sse - found[0] <= MIN_GAIN:
        node.leaf_value = node_mean
        train_pred[idx] = node_mean
        return node
    _, j, thr, default_left = found
    node.split_feature = int(j)
    node.threshold = float(thr)
    node.default_left = bool(default_left)
    left, right = presorted.partition(node, idx)
    node.left = _build(presorted, r, left, depth + 1, config, train_pred)
    node.right = _build(presorted, r, right, depth + 1, config, train_pred)
    return node


def fit_gbt(X: np.ndarray, y: np.ndarray, config: GBTConfig,
            mask: np.ndarray | None = None,
            column_names: tuple[str, ...] | None = None) -> TreeEnsemble:
    """Boost depth-limited regression trees against squared error.

    ``mask`` marks missing entries (NaN values are treated as missing too);
    targets must be fully observed.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty feature matrix")
    if X.shape[0] != len(y):
        raise ValueError("X and y row counts differ")
    if np.isnan(y).any():
        raise ValueError("targets contain NaN")
    if X.shape[0] < 2 * config.min_samples_leaf:
        raise ValueError("too few rows for min_samples_leaf")
    if mask is None:
        mask = np.isnan(X)
    mask = np.asarray(mask, dtype=bool) | np.isnan(X)
    if mask.all():
        raise ValueError("all feature values missing")
    if column_names is None:
        column_names = tuple(f"f{j}" for j in range(X.shape[1]))

    # canonicalize row order so fitting is exactly invariant to joint row
    # permutations (floating-point sums depend on summation order; sorting
    # rows lexicographically makes that order a function of the data alone)
    keys = [np.asarray(y)]
    for j in range(X.shape[1] - 1, -1, -1):
        keys.append(mask[:, j])
        keys.append(np.where(mask[:, j], np.inf, X[:, j]))
    order = np.lexsort(keys)
    X, y, mask = X[order], y[order], mask[order]

    ensemble = TreeEnsemble(base_score=float(y.mean()), learning_rate=config.learning_rate,
                            column_names=column_names)
    pred = np.full(len(y), ensemble.base_score)
    idx = np.arange(len(y))
    train_pred = np.empty(len(y))
    presorted = _Presorted(X, mask)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(config.n_trees):
            residual = y - pred
            tree = _build(presorted, residual, idx, 0, config, train_pred)
            ensemble.trees.append(tree)
            pred += config.learning_rate * train_pred
    return ensemble
