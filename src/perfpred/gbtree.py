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
batch: present values ascending, ties in row order, missing rows last. A
node filters that (features, rows) order matrix by membership, which keeps
every column's order equal to a stable per-node sort, and then scores
every column that can split it, and both missing-value routings where it
has missing rows, in one cumulative-sum pass.
Every SSE is bit-identical to scoring one column at a time: cumsum adds
sequentially in any shape, but np.sum sums 8 or more terms in blocks, so
the sums over a node's missing rows are taken per missing count on
unpadded blocks, exactly as a 1-D np.sum would take them.

Most of a node's search does not depend on the residuals: which rows it
gathers from each column's order, how many of them are missing, the row
counts on each side of every threshold and which thresholds are
inadmissible. That part is a node plan. XGBoost builds its sorted column
blocks once before training and reuses them in every round (section 4.1),
and ``fit_gbt_batch`` goes one step further: independent fits on the same
rows (a grid search's configs on one training split) share one presort and
one plan store, and boost in lockstep. Each round grows every fit's tree
one level at a time, the depth-wise growth of Mitchell & Frank 2017 (PeerJ
CS 3:e127). The frontier nodes of all fits are grouped by membership and
leaf size; a group takes its node means and SSEs in one pass and calls
``best_split`` once over all of its residual vectors, so a plan is built
once per batch. Plans are kept across rounds, keyed by the node's rows
(always ascending, so the key is canonical), up to ``PLAN_BUDGET`` array
bytes per batch; a node that misses the store computes its plan again, and
the result is bit-identical either way. A split's child rows are routed
once per group and not stored: routing costs microseconds. Node sums run
over C-ordered rows, never zero-padded, so each equals the 1-D np.sum of
one fit alone, and each fit keeps its own depth limit, gain floor and
tie-breaks: every ensemble of a batch is the one its config gives alone,
bit for bit. ``fit_gbt`` is a batch of one.
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

    def goes_left(self, X: np.ndarray, rows) -> np.ndarray:
        """Which of ``rows`` take the left child: a row whose split value is
        missing (NaN) follows the default direction, any other goes left
        when its value is below the threshold."""
        x = X[:, self.split_feature][rows]
        left = x < self.threshold
        left[np.isnan(x)] = self.default_left
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
        steps = np.empty((X.shape[0], len(self.trees) + 1))
        steps[:, 0] = self.base_score
        rows = np.arange(X.shape[0])
        for t, tree in enumerate(self.trees, 1):
            _fill_leaves(tree, X, rows, steps[:, t])
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


def fold_mask(X, mask: np.ndarray | None) -> np.ndarray:
    """``X`` as floats, NaN wherever ``mask`` is set: NaN is the one
    missing-value marker below the public entries, and ``mask`` an optional
    override folded in once."""
    X = np.asarray(X, dtype=float)
    return X if mask is None else np.where(mask, np.nan, X)


def _fill_leaves(node: TreeNode, X, rows, out) -> None:
    """Write into ``out[rows]`` the leaf value each of ``rows`` reaches."""
    if node.is_leaf:
        out[rows] = node.leaf_value
        return
    left = node.goes_left(X, rows)
    _fill_leaves(node.left, X, rows[left], out)
    _fill_leaves(node.right, X, rows[~left], out)


PLAN_BUDGET = 256 * 1024  # array bytes of node plans (and their keys) kept per batch


class _NodePlan:
    """The part of one node's split search that does not depend on the
    residuals. Its rows are the node's columns that have an admissible
    threshold (a column without one can never split the node), ordered by
    missing count, so the missing rows of each count form one slice.

    ``gather`` holds the node's rows in each kept column's presorted order,
    or is None when no split is admissible. ``features`` lists the kept
    columns, ascending, and ``columns`` the row of each. ``counts`` and ``bad`` are
    indexed by (side, routing): routing 0 sends the missing rows left,
    routing 1 right. Without missing rows both routings score alike, so the
    plan holds routing 0 only.
    """

    __slots__ = ("gather", "features", "columns", "tails", "totals", "counts", "bad")

    def __init__(self, presorted: "_Presorted", idx: np.ndarray, min_leaf: int):
        k = len(idx)
        inside = np.zeros(presorted.order.shape[1], dtype=bool)
        inside[idx] = True
        sel = inside[presorted.order]
        gather = presorted.order[sel].reshape(-1, k)
        V = presorted.values[sel].reshape(-1, k)  # each row: present ascending, then NaN
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
        self.features = np.flatnonzero(~bad.all(axis=(0, 2))).tolist()
        if not self.features:
            self.gather = None
            return
        n_miss = n_miss.tolist()
        rows = sorted(self.features, key=n_miss.__getitem__)  # stable
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
        row_of = {j: r for r, j in enumerate(rows)}
        self.columns = np.array([row_of[j] for j in self.features])
        # flat (row, position) of each row's last present value
        self.totals = np.arange(len(rows)) * k + np.maximum(n_present - 1, 0)

    def nbytes(self) -> int:
        if self.gather is None:
            return 0
        return sum(a.nbytes for a in (self.gather, self.columns, self.totals, self.counts, self.bad))


class _Presorted:
    """Each column's row order, sorted once per batch: present values
    ascending (ties in row order), then the missing rows in row order. Node
    plans are kept per batch, keyed by node membership, up to
    ``PLAN_BUDGET`` bytes."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self.order = np.argsort(X.T, axis=1, kind="stable")  # (p, n), NaN last
        self.values = np.take_along_axis(X.T, self.order, axis=1)
        self.plans: dict = {}
        self.cached_bytes = 0

    def best_split(self, R, idx, min_leaf):
        """Exact greedy search over all midpoints of present values, for
        each residual vector (row) of ``R``.

        Missing rows are tried on both sides and kept on the lower-SSE side.
        Ties break deterministically: lowest feature index, lowest threshold,
        missing routed left. Returns one (sse_after, feature, threshold,
        default_left) or None per row of ``R``. Call under
        ``np.errstate(divide="ignore", invalid="ignore")``: positions past a
        column's present rows divide by zero before they are masked out.
        Everything that does not depend on ``R`` comes from the node's plan,
        built once for all rows of ``R`` and kept when it fits.
        """
        key = (idx.tobytes(), min_leaf)
        plan = self.plans.get(key)
        if plan is None:
            plan = _NodePlan(self, idx, min_leaf)
            nbytes = plan.nbytes() + len(key[0])
            if self.cached_bytes + nbytes <= PLAN_BUDGET:
                self.plans[key] = plan
                self.cached_bytes += nbytes
        batch = len(R)
        if plan.gather is None:
            return [None] * batch
        p, k = plan.gather.shape
        stack = np.empty((2, batch, p, k))  # residuals, their squares
        R.take(plan.gather, axis=1, out=stack[0])
        np.multiply(stack[0], stack[0], out=stack[1])
        # sums over the missing rows must equal 1-D np.sum bit for bit, whose
        # summation order depends on the term count: each missing count's
        # block is summed on its own, never zero-padded (0.0 where none)
        missing = np.zeros((2, batch, p))
        for a, b, start in plan.tails:
            np.add.reduce(stack[..., a:b, start:], axis=3, out=missing[..., a:b])
        cum = stack.cumsum(axis=3)
        left = cum[..., :-1]
        total = cum.reshape(2, batch, p * k).take(plan.totals, axis=2)[..., None]
        # (statistic, side * routings + routing, fit, row, threshold), filled
        # in place because large temporaries cost page faults
        routings = plan.bad.shape[0]
        sides = np.empty((2, 2 * routings, batch, p, k - 1))
        np.add(left, missing[..., None], out=sides[:, 0])
        np.subtract(total, left, out=sides[:, routings])
        if routings == 2:
            sides[:, 1] = left
            np.add(sides[:, 2], missing[..., None], out=sides[:, 3])
        S, Q = sides.reshape(2, 2, routings, batch, p, k - 1)
        S *= S
        S /= plan.counts
        np.subtract(Q, S, out=S)
        sse = np.add(S[0], S[1], out=S[0])  # (routing, fit, row, threshold)
        np.copyto(sse, np.inf, where=plan.bad)
        t = sse.argmin(axis=3)  # first occurrence: lowest threshold
        v = sse.min(axis=3)
        # ties between routings: lower threshold wins, then left; a column
        # without missing rows scores the same on both, so it stays left
        right = (v[-1] < v[0]) | ((v[-1] == v[0]) & (t[-1] < t[0]))
        value = np.where(right, v[-1], v[0])[:, plan.columns]  # (fit, kept feature)
        value[~np.isfinite(value)] = np.inf
        found = []
        for f, c in enumerate(value.argmin(axis=1).tolist()):  # lowest feature index
            if value[f, c] == np.inf:
                found.append(None)
                continue
            j, row = plan.features[c], plan.columns[c]
            i = int(t[int(right[f, row]), f, row])
            below, above = self.X[plan.gather[row, i:i + 2], j]  # both present
            found.append((float(value[f, c]), j, float(0.5 * (below + above)),
                          not bool(right[f, row])))
        return found


def _grow(presorted, R, configs, root) -> tuple[list[TreeNode], np.ndarray]:
    """One tree per residual vector (row) of ``R``, each limited by its own
    config, grown together one level at a time from the rows ``root``.
    Returns the trees and each row's training-set predictions.

    The nodes of a level are grouped by (membership, leaf size). A group
    gathers its fits' node residuals in C order, so each node sum equals the
    1-D np.sum of that fit alone, and searches all its fits in one call.
    """
    train_pred = np.empty(R.shape)
    trees = [TreeNode(cover=len(root)) for _ in configs]
    frontier = [(f, tree, root) for f, tree in enumerate(trees)]
    depth = 0
    while frontier:
        groups: dict = {}
        for f, node, idx in frontier:
            key = (idx.tobytes(), configs[f].min_samples_leaf)
            _, fits, nodes = groups.setdefault(key, (idx, [], []))
            fits.append(f)
            nodes.append(node)
        frontier = []
        for (_, min_leaf), (idx, fits, nodes) in groups.items():
            rows = R.take(fits, axis=0)
            node_r = rows.take(idx, axis=1)  # C order, unlike rows[:, idx]
            node_mean = np.add.reduce(node_r, 1) / len(idx)  # np.mean, bit for bit
            splits = [None] * len(nodes)
            grow = [m for m, f in enumerate(fits) if depth < configs[f].max_depth] \
                if len(idx) >= 2 * min_leaf else []
            if grow:
                mean = node_mean[:, None]
                if len(grow) < len(nodes):
                    rows, node_r, mean = rows[grow], node_r[grow], mean[grow]
                node_sse = np.add.reduce((node_r - mean) ** 2, 1).tolist()
                for m, sse, split in zip(grow, node_sse,
                                         presorted.best_split(rows, idx, min_leaf)):
                    if split is not None and not (sse - split[0] <= MIN_GAIN):
                        splits[m] = split
            children: dict = {}
            for f, node, mean, split in zip(fits, nodes, node_mean.tolist(), splits):
                if split is None:
                    node.leaf_value = mean
                    train_pred[f][idx] = mean
                    continue
                _, node.split_feature, node.threshold, node.default_left = split
                if split[1:] not in children:
                    left = node.goes_left(presorted.X, idx)
                    children[split[1:]] = idx[left], idx[~left]
                left, right = children[split[1:]]
                node.left, node.right = TreeNode(cover=len(left)), TreeNode(cover=len(right))
                frontier += [(f, node.left, left), (f, node.right, right)]
        depth += 1
    return trees, train_pred


def fit_gbt_batch(X: np.ndarray, y: np.ndarray, configs: list[GBTConfig],
                  mask: np.ndarray | None = None,
                  column_names: tuple[str, ...] | None = None) -> list[TreeEnsemble]:
    """One boosted ensemble per config, all fitted on the same rows.

    The fits share one presort and one node-plan store and boost in
    lockstep, round by round; a fit retires after its own ``n_trees``.
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
    # lexsort puts NaN last, as the presort does)
    order = np.lexsort([y, *X.T[::-1]])
    X, y = X[order], y[order]

    base_score = float(y.mean())
    ensembles = [TreeEnsemble(base_score=base_score, learning_rate=c.learning_rate,
                              column_names=column_names) for c in configs]
    rates = np.array([[c.learning_rate] for c in configs])
    pred = np.full((len(configs), len(y)), base_score)
    root = np.arange(len(y))
    presorted = _Presorted(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(max((c.n_trees for c in configs), default=0)):
            live = [f for f, c in enumerate(configs) if c.n_trees > t]
            trees, train_pred = _grow(presorted, y - pred[live], [configs[f] for f in live], root)
            for f, tree in zip(live, trees):
                ensembles[f].trees.append(tree)
            pred[live] += rates[live] * train_pred
    return ensembles


def fit_gbt(X: np.ndarray, y: np.ndarray, config: GBTConfig,
            mask: np.ndarray | None = None,
            column_names: tuple[str, ...] | None = None) -> TreeEnsemble:
    """Boost depth-limited regression trees against squared error.

    NaN marks a missing entry; ``mask``, if given, marks more (a present
    value under it is ignored). Targets must be fully observed.
    """
    return fit_gbt_batch(X, y, [config], mask, column_names)[0]
