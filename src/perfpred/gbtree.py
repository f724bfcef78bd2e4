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
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 1 or self.n_trees < 0 or self.min_samples_leaf < 1:
            raise ValueError("invalid GBT configuration")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")


def paper_grid(min_samples_leaf: int = 2, seed: int = 0) -> list[GBTConfig]:
    """The 3 x 3 x 2 hyperparameter grid searched per fold."""
    return [
        GBTConfig(d, lr, nt, min_samples_leaf, seed)
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
    config: GBTConfig | None = None

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


class _Presorted:
    """Each column's row order, sorted once per fit: present values ascending
    (ties in row order), then the missing rows in row order."""

    def __init__(self, X: np.ndarray, mask: np.ndarray):
        key = np.where(mask, np.nan, X).T  # NaN sorts last
        self.order = np.argsort(key, axis=1, kind="stable")  # (p, n)
        self.values = np.take_along_axis(key, self.order, axis=1)
        self.columns = np.arange(X.shape[1])

    def best_split(self, r, idx, min_leaf):
        """Exact greedy search over all midpoints of present values.

        Missing rows are tried on both sides and kept on the lower-SSE side.
        Ties break deterministically: lowest feature index, lowest threshold,
        missing routed left. Returns (sse_after, feature, threshold,
        default_left) or None. Call under ``np.errstate(divide="ignore",
        invalid="ignore")``: positions past a column's present rows divide
        by zero before they are masked out.
        """
        cols, k = self.columns, len(idx)
        inside = np.zeros(self.order.shape[1], dtype=bool)
        inside[idx] = True
        sel = inside[self.order]
        V = self.values[sel].reshape(-1, k)  # each row: present ascending, then NaN
        R = r[self.order[sel]].reshape(-1, k)
        n_miss = np.isnan(V).sum(axis=1)
        n_present = k - n_miss

        # per routing (missing rows left, right) and column: the count, sum
        # and square sum of the missing rows to add to each side. The side
        # that takes none adds -0.0, which leaves every bit unchanged.
        # Sums must equal 1-D np.sum bit for bit, whose summation order
        # depends on the term count: sum each missing count's columns as
        # one C-contiguous block, never zero-padded.
        miss = np.full((3, 2, len(cols)), -0.0)
        miss[:, 0] = 0.0  # np.sum of no terms
        miss[0, 0] = n_miss
        for m in set(n_miss.tolist()) - {0}:
            same = n_miss == m
            tail = np.ascontiguousarray(R[same, k - m:])
            miss[1, 0, same] = tail.sum(axis=1)
            miss[2, 0, same] = (tail * tail).sum(axis=1)
        mc, ms, mq = miss[..., None]

        cs = np.cumsum(R, axis=1)
        css = np.cumsum(R * R, axis=1)
        last = np.maximum(n_present - 1, 0)
        ls, lq = cs[:, :-1], css[:, :-1]  # column t: t + 1 present rows on the left
        kk = np.arange(1, k)
        # both routings at once; a column without missing rows scores the
        # same on both, so the tie rule below keeps it left
        lc, rc = kk + mc, (n_present[:, None] - kk) + mc[::-1]
        lS, rS = ls + ms, (cs[cols, last][:, None] - ls) + ms[::-1]
        lQ, rQ = lq + mq, (css[cols, last][:, None] - lq) + mq[::-1]
        sse = (lQ - lS * lS / lc) + (rQ - rS * rS / rc)
        sse[(lc < min_leaf) | (rc < min_leaf) | ~(V[:, :-1] < V[:, 1:])] = np.inf
        t = sse.argmin(axis=2)  # first occurrence: lowest threshold
        v = sse.min(axis=2)
        # ties between routings: lower threshold wins, then left
        right = (v[1] < v[0]) | ((v[1] == v[0]) & (t[1] < t[0]))
        value = np.where(right, v[1], v[0])
        value[~np.isfinite(value)] = np.inf
        j = int(value.argmin())  # first occurrence: lowest feature index
        if value[j] == np.inf:
            return None
        i = int(t[int(right[j]), j])
        thr = 0.5 * (V[j, i] + V[j, i + 1])
        return float(value[j]), j, float(thr), not bool(right[j])


def _build(X, mask, presorted, r, idx, depth, config, train_pred) -> TreeNode:
    node_mean = float(r[idx].sum() / len(idx))  # np.mean, bit for bit
    node = TreeNode(cover=len(idx))
    if depth >= config.max_depth or len(idx) < 2 * config.min_samples_leaf:
        node.leaf_value = node_mean
        train_pred[idx] = node_mean
        return node
    node_sse = float(((r[idx] - node_mean) ** 2).sum())
    found = presorted.best_split(r, idx, config.min_samples_leaf)
    if found is None or node_sse - found[0] <= MIN_GAIN:
        node.leaf_value = node_mean
        train_pred[idx] = node_mean
        return node
    _, j, thr, default_left = found
    node.split_feature = int(j)
    node.threshold = float(thr)
    node.default_left = bool(default_left)
    go_left = node.goes_left(X, mask, idx)
    node.left = _build(X, mask, presorted, r, idx[go_left], depth + 1, config, train_pred)
    node.right = _build(X, mask, presorted, r, idx[~go_left], depth + 1, config, train_pred)
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
                            column_names=column_names, config=config)
    pred = np.full(len(y), ensemble.base_score)
    idx = np.arange(len(y))
    train_pred = np.empty(len(y))
    presorted = _Presorted(X, mask)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(config.n_trees):
            residual = y - pred
            tree = _build(X, mask, presorted, residual, idx, 0, config, train_pred)
            ensemble.trees.append(tree)
            pred += config.learning_rate * train_pred
    return ensemble
