"""Spans and counts recorded around perfpred's public functions.

The tracer replaces each traced function with a wrapper that records a
span (name, start, end, parent). A module that imported the function by
name holds its own reference, so the wrapper is set in every loaded
``perfpred`` namespace that holds the original. Nothing inside ``src/`` is
changed; ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (module, attribute, span name). A dotted attribute names a method.
TRACED = (
    ("perfpred.registry", "load_registry", "registry"),
    ("perfpred.registry", "load_scores", "registry"),
    ("perfpred.registry", "join_scores", "registry"),
    ("perfpred.registry", "encode_features", "registry"),
    ("perfpred.baselines", "fit_power_law", "baselines.fit_power_law"),
    ("perfpred.baselines", "fit_log_linear", "baselines.other"),
    ("perfpred.baselines", "median_predictor", "baselines.other"),
    ("perfpred.baselines", "predict_power_law_score", "baselines.other"),
    ("perfpred.gbtree", "fit_gbt", "gbtree.fit"),
    ("perfpred.gbtree", "TreeEnsemble.predict", "gbtree.predict"),
    ("perfpred.gbtree", "TreeEnsemble.staged_predict", "gbtree.staged_predict"),
    ("perfpred.pipeline", "run_cv", "pipeline.run_cv"),
    ("perfpred.pipeline", "grid_search", "pipeline.grid_search"),
    ("perfpred.shapley", "shap_matrix", "shapley.shap_matrix"),
    ("perfpred.shapley", "shap_summary", "shapley.other"),
    ("perfpred.shapley", "shap_dependence", "shapley.other"),
    ("perfpred.stats", "paired_t_test", "stats"),
    ("perfpred.stats", "mean_ci95", "stats"),
    ("perfpred.stats", "bh_fdr", "stats"),
    ("perfpred.metabias", "precision_weights", "metabias"),
    ("perfpred.metabias", "estimate_contrast", "metabias"),
    ("perfpred.metabias", "pet_peese", "metabias"),
    ("perfpred.cli", "main", "cli"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[tuple[str, tuple, object]] = []  # (span name, args, result)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self.calls.append((name, args, result))
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            owner = sys.modules[module_name]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            leaf = attr.rsplit(".", 1)[-1]
            original = getattr(owner, leaf)
            wrapped = self.wrap(name, original)
            holders = [owner] if "." in attr else [
                m for key, m in list(sys.modules.items())
                if (key == "perfpred" or key.startswith("perfpred."))
                and getattr(m, leaf, None) is original]
            for holder in holders:
                self._undo.append((holder, leaf, original))
                setattr(holder, leaf, wrapped)

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._undo):
            setattr(holder, leaf, original)
        self._undo.clear()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - union_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def count_nodes(tree: dict) -> int:
    """Nodes of one tree in ``TreeEnsemble.to_dict`` form."""
    stack, n = [tree], 0
    while stack:
        node = stack.pop()
        n += 1
        if "leaf_value" not in node:
            stack += (node["left"], node["right"])
    return n


def layer_metrics(tracer: Tracer, windows: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer self times and counts over the timed ``windows``.

    Counts that need the fitted ensembles are taken here, after timing, so
    walking the trees costs the traced run nothing.
    """
    wall = sum(e - s for s, e in windows)
    self_s = self_times(tracer.spans)
    by_name: dict[str, list[float]] = {}
    for span, t in zip(tracer.spans, self_s):
        by_name.setdefault(span.name, []).append(t)
    m: dict[str, float] = {}
    names = sorted({name for _, _, name in TRACED})
    for name in names:
        m[f"{name}.calls"] = len(by_name.get(name, ()))
        m[f"{name}.self_s"] = sum(by_name.get(name, ()))

    shapes: dict[int, tuple[int, int]] = {}  # id(ensemble) -> (trees, nodes)
    keep = []  # holds the ensembles so their ids stay unique

    def shape(ens) -> tuple[int, int]:
        if id(ens) not in shapes:
            keep.append(ens)
            trees = ens.to_dict()["trees"]
            shapes[id(ens)] = (len(trees), sum(count_nodes(t) for t in trees))
        return shapes[id(ens)]

    trees = nodes = routed = explained = 0
    explained_ids = set()
    for name, args, result in tracer.calls:
        if name == "gbtree.fit":
            t, n = shape(result)
            trees += t
            nodes += n
        elif name in ("gbtree.predict", "gbtree.staged_predict"):
            routed += len(args[1]) * shape(args[0])[0]
        elif name == "shapley.shap_matrix":
            keep.append(args[0])
            explained_ids.add(id(args[0]))
            explained += len(args[1].model_ids)
    m["gbtree.trees"] = trees
    m["gbtree.nodes"] = nodes
    fit_s = m["gbtree.fit.self_s"]
    m["gbtree.nodes_per_s"] = nodes / fit_s if fit_s > 0 else 0.0
    m["gbtree.rows_routed"] = routed
    m["shapley.rows_explained"] = explained
    m["shapley.recompute_ratio"] = (m["shapley.shap_matrix.calls"] / len(explained_ids)
                                    if explained_ids else 0.0)
    m["gbtree.fit.self_frac"] = fit_s / wall
    m["shapley.shap_matrix.self_frac"] = m["shapley.shap_matrix.self_s"] / wall
    roots = [(s.start, s.end) for s in tracer.spans if s.parent is None]
    covered = sum(union_length(roots, lo, hi) for lo, hi in windows)
    m["trace.uncovered_frac"] = 1.0 - covered / wall
    return m
