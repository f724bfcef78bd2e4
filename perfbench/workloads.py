"""The benchmark's workloads: inputs, timed call sequences and output checks.

Each workload is one client in a closed loop: a call starts when the one
before it has returned. A pass runs the workload's cold sequence once on an
empty ``--out`` directory; the warm sequence then re-runs the CLI calls of
that pass in the same process, on the cache the cold pass left.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from inputs import InputSpec, TaskPlan

REPORT_FEATURES = "total_params,total_tokens_billions,pct_code,entropy_mean"
DEPENDENCE_FEATURES = ("pct_code", "entropy_mean")


# GBTConfig(max_depth, learning_rate, n_trees) of the explained fit. Depth 4,
# not the paper grid's largest depth 5: at depth 5 on 92 rows the late trees
# stop splitting at a point that depends on the registry, and the node count
# (so the fit and SHAP time) spreads by 28% between seeds (quartile distance
# over median); at depth 4 it spreads by 6%.
EXPLAIN_FIT = (4, 0.1, 100)
# Thirteen benchmark tasks: eleven accuracy-kind, two Brier-kind, with
# coverage falling evenly from every model to 56 of 92.
EXPLAIN_TASKS = ("arc_challenge", "gsm8k", "hellaswag", "humaneval", "lambada",
                 "mmlu_0shot", "mmlu_5shot", "winogrande", "anli", "mathqa", "logiqa2",
                 "truthfulqa", "xnli")


def _explain_spec(n_models: int, n_min: int) -> InputSpec:
    k = len(EXPLAIN_TASKS)
    return InputSpec(n_models, tuple(
        TaskPlan(t, "brier" if i >= 11 else "accuracy",
                 n_models - round(i * (n_models - n_min) / (k - 1)))
        for i, t in enumerate(EXPLAIN_TASKS)))


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SMOKE`` runs the same sequences on about a dozen models."""
    cv_wide: InputSpec
    cv_features: str | None  # None: every documented feature (74 columns)
    report_multi: InputSpec
    explain: InputSpec


FULL = Sizes(
    cv_wide=InputSpec(92, (TaskPlan("arc_challenge", "accuracy", 12),)),
    cv_features=None,
    report_multi=InputSpec(92, (TaskPlan("arc_challenge", "accuracy", 15),
                                TaskPlan("truthfulqa", "brier", 10))),
    explain=_explain_spec(92, 56),
)
SMOKE = Sizes(
    cv_wide=InputSpec(12, (TaskPlan("arc_challenge", "accuracy", 12),)),
    cv_features="total_params,total_tokens_billions",
    report_multi=InputSpec(12, (TaskPlan("arc_challenge", "accuracy", 12),
                                TaskPlan("truthfulqa", "brier", 10))),
    explain=_explain_spec(12, 10),
)


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Session:
    """Runs one pass's calls, counting operations and failures by name."""

    def __init__(self, cli, registry_path: str, scores_path: str, out: str):
        self.cli = cli
        self.registry_path = registry_path
        self.scores_path = scores_path
        self.out = out
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # a failed operation is reported, not fatal
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            return None

    def run_cli(self, argv: list[str]) -> None:
        full = argv[:1] + ["--registry", self.registry_path, "--scores", self.scores_path,
                           "--out", self.out] + argv[1:]
        raised = len(self.failures)
        code = self.call(f"cli {argv[0]}", self.cli.main, full)
        if code != 0 and len(self.failures) == raised:
            self.failures.append(f"cli {argv[0]}: exit {code}")

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {name}")


class Workload:
    name = ""
    cv_requests = 0  # CV cache lookups in one run of the CLI sequence

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def spec(self) -> InputSpec:
        return getattr(self.sizes, self.name)

    def cli_sequence(self) -> list[list[str]]:
        raise NotImplementedError

    def library(self, s: Session, pp) -> dict:
        """Timed library calls before the CLI sequence; returns check data."""
        return {}

    def artifacts(self, s: Session, lib: dict) -> dict[str, str]:
        """SHA-256 of each output compared against the goldens."""
        raise NotImplementedError

    def check(self, s: Session, lib: dict, pp) -> None:
        """Seed-independent checks of this pass's outputs."""


def _task_ids(spec: InputSpec) -> list[str]:
    return [t.task_id for t in spec.tasks]


class CvWide(Workload):
    # Runnable, but not declared in BENCHMARK.json; BASELINE.md says why.
    name = "cv_wide"
    cv_requests = 1

    def cli_sequence(self):
        argv = ["cv", "--task", _task_ids(self.spec())[0], "--kind", "gbt", "--seed", "0"]
        if self.sizes.cv_features:
            argv += ["--features", self.sizes.cv_features]
        return [argv]

    def _result(self, s):
        return os.path.join(s.out, f"cv-{_task_ids(self.spec())[0]}-gbt-0.json")

    def artifacts(self, s, lib):
        return {"cv.json": sha256_file(self._result(s))}

    def check(self, s, lib, pp):
        with open(self._result(s)) as f:
            result = json.load(f)
        scores, tasks = pp.registry.load_scores(s.scores_path)
        task = tasks[_task_ids(self.spec())[0]]
        truth = {r.model_id: r.value for r in scores if r.task_id == task.task_id}
        preds = result["predictions"]
        s.check("cv.covers_models", sorted(preds) == sorted(truth))
        mae = float(np.mean([abs(preds[m] - truth[m]) for m in sorted(truth)]))
        s.check("cv.mae_matches_predictions", math.isclose(mae, result["mae"], rel_tol=1e-9))
        s.check("cv.three_outer_folds", len(result["fold_configs"]) == 3)


class ReportMulti(Workload):
    name = "report_multi"
    cv_requests = 8  # 2 tasks x 2 seeds x {scale-only, REPORT_FEATURES}

    def cli_sequence(self):
        return [["report", "--seeds", "2", "--features", REPORT_FEATURES]]

    def artifacts(self, s, lib):
        return {"report.md": sha256_file(os.path.join(s.out, "report.md"))}

    def check(self, s, lib, pp):
        with open(os.path.join(s.out, "report.md")) as f:
            rows = f.read().splitlines()[2:]
        tasks = sorted(_task_ids(self.spec()))
        s.check("report.one_row_per_task", [r.split(" | ")[0].lstrip("| ") for r in rows] == tasks)
        s.check("report.all_rows_computed", not any("unavailable" in r for r in rows))


def _shap_digest(summary, dependence) -> str:
    """SHA-256 over the SHAP arrays' float64 bytes, in a fixed order."""
    h = hashlib.sha256()
    for e in summary:
        h.update(e.feature.encode() + b"\0")
        h.update(np.array([e.mean_abs_phi] + [phi for _, phi in e.points]).tobytes())
    for points, n_missing in dependence:
        h.update(np.array(points, dtype=float).tobytes())
        h.update(str(n_missing).encode() + b"\0")
    return h.hexdigest()


class Explain(Workload):
    name = "explain"

    def cli_sequence(self):
        return [["fit-scaling", "--task", t] for t in _task_ids(self.spec())] + [["bias-audit"]]

    def library(self, s, pp):
        registry = s.call("load_registry", pp.registry.load_registry, s.registry_path)
        loaded = s.call("load_scores", pp.registry.load_scores, s.scores_path)
        if registry is None or loaded is None:
            return {}
        scores, tasks = loaded
        dataset = s.call("join_scores", pp.registry.join_scores, registry, scores,
                         tasks[_task_ids(self.spec())[0]])
        X = s.call("encode_features", pp.registry.encode_features, dataset,
                   pp.registry.all_feature_names())
        if X is None:
            return {}
        ens = s.call("fit_gbt", pp.gbtree.fit_gbt, X.values, dataset.values,
                     pp.gbtree.GBTConfig(*EXPLAIN_FIT), X.missing_mask, X.column_names)
        if ens is None:
            return {}
        summary = s.call("shap_summary", pp.shapley.shap_summary, ens, X, True)
        dependence = [s.call(f"shap_dependence {f}", pp.shapley.shap_dependence, ens, X, f)
                      for f in DEPENDENCE_FEATURES]
        return {"X": X, "ensemble": ens, "summary": summary, "dependence": dependence}

    def artifacts(self, s, lib):
        digests = {f"scaling-{t}.json": sha256_file(os.path.join(s.out, f"scaling-{t}.json"))
                   for t in _task_ids(self.spec())}
        digests["bias-audit.json"] = sha256_file(os.path.join(s.out, "bias-audit.json"))
        digests["shap.bytes"] = _shap_digest(lib["summary"], lib["dependence"])
        return digests

    def check(self, s, lib, pp):
        X, ens, summary = lib["X"], lib["ensemble"], lib["summary"]
        # local accuracy: attributions plus one base value give each row's
        # prediction, so their difference is the same on every row
        phi = np.sum([[phi for _, phi in e.points] for e in summary], axis=0)
        gap = ens.predict(X.values, X.missing_mask) - phi
        s.check("shap.local_accuracy", float(np.ptp(gap)) <= 1e-9)
        for f, (points, n_missing) in zip(DEPENDENCE_FEATURES, lib["dependence"]):
            s.check(f"shap.dependence_rows.{f}", len(points) + n_missing == len(X.model_ids))
        with open(os.path.join(s.out, "bias-audit.json")) as f:
            s.check("bias_audit.has_rows", len(json.load(f)) > 0)
        for t in _task_ids(self.spec()):
            with open(os.path.join(s.out, f"scaling-{t}.json")) as f:
                r2 = json.load(f)["power_law"]["r_squared"]
            s.check(f"scaling.finite_r2.{t}", math.isfinite(r2))


WORKLOADS = {w.name: w for w in (CvWide, ReportMulti, Explain)}
