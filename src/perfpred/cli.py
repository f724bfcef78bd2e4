"""Command-line front end.

Thin compositions of the library operations: every subcommand loads and
joins its inputs through ``_datasets``, calls the corresponding API, and
writes markdown/CSV/JSON artifacts. All randomness flows through recorded
seeds, so outputs are byte-identical across runs with identical inputs and
flags.

Exit codes: 0 success, 1 validation/analysis failure, 2 I/O or config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

from . import baselines, metabias, shapley
from .gbtree import fit_gbt, paper_grid  # noqa: F401 (perfbench checks tracing wraps fit_gbt here)
from .pipeline import (
    SCALING_FEATURES,
    CVPlan,
    CVResult,
    fit_tuned,
    greedy_select,
    run_cv,
    run_cv_requests,
    scale_points,
)
from .prng import PRNG_ID
from .registry import (
    ENUM_VOCAB,
    FEATURE_SECTIONS,
    RegistryError,
    all_feature_names,
    encode_features,
    feature_value,
    join_scores,
    load_registry,
    load_scores,
)
from .stats import bh_fdr, mean_ci95, paired_t_test


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in its directory,
    given the mode ``open(path, "w")`` would give: 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)  # the only way to read it sets it: put it back at once
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(rows) -> str:
    """``rows`` as CSV: text as it is, a number as its float repr and a missing
    value (None or NaN) as an empty cell, quoting only a cell that holds a
    comma, quote or line break."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        ["" if v is None or v != v else v if isinstance(v, str) else repr(float(v)) for v in row]
        for row in rows)
    return text.getvalue()


def _print_violations(violations, file=None) -> None:
    for v in violations:  # one line each, whatever line breaks an id holds
        print("VIOLATION: " + "\\n".join(v.splitlines()), file=file)


# the version of every result's numerics in the cache key: each declared change
# of the goldens bumps it, so no cache file written before the change hits after it
NUMERICS_VERSION = 1


def _cache_key(*parts) -> str:
    """The first 16 hex digits of a SHA-256 fed each of ``parts`` (plain JSON)
    and a zero byte."""
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _cache_paths(out, kind, grid, plan, dataset, features, seeds) -> list[str]:
    """The cache file of the CV of each of ``seeds``. Its key holds
    ``NUMERICS_VERSION``, ``PRNG_ID`` and what the CV reads of ``dataset``:
    the task, the model ids, the targets and each record's values of the
    features it encodes (for a baseline kind the ``SCALING_FEATURES`` that
    ``scale_points`` reads). Then it holds ``features`` in the order given (a
    fit depends on its column order), the kind, the seed, the grid and the
    fold counts."""
    read = features if kind == "gbt" else SCALING_FEATURES
    inputs = (NUMERICS_VERSION, PRNG_ID, vars(dataset.task), dataset.model_ids,
              dataset.values.tolist(), [[feature_value(r, f) for f in read]
                                        for r in dataset.records])
    return [os.path.join(out, "cache", "cv-" + _cache_key(
        *inputs, features, kind, seed, [vars(g) for g in grid or []],
        plan.outer_folds, plan.inner_folds) + ".json") for seed in seeds]


def _datasets(args, reads) -> dict:
    """Load the registry and scores files and join each task that ``reads``
    (a predicate on ``TaskSpec``) picks: task id -> ``Dataset``, in task-id
    order.

    Raises one ``RegistryError`` holding every violation of both files, or
    else every violation of each joined task, in task-id order.
    """
    violations = []

    def listed(load, *inputs):
        try:
            return load(*inputs)
        except RegistryError as e:
            violations.extend(e.violations)

    registry = listed(load_registry, args.registry)
    scores, tasks = listed(load_scores, args.scores) or ([], {})
    datasets = {t: listed(join_scores, registry, scores, tasks[t])
                for t in sorted(tasks) if registry is not None and reads(tasks[t])}
    if violations:
        raise RegistryError(violations)
    return datasets


def _task_dataset(args):
    datasets = _datasets(args, lambda task: task.task_id == args.task)
    if not datasets:
        raise RegistryError([f"task {args.task!r} not present in scores file"])
    return datasets[args.task]


def _feature_names(text, default=None):
    """The comma-separated names in ``text`` (if not given, ``default`` or
    every feature); every undocumented name, empty ones too (``""`` is one
    empty name), and every repeated name is a violation."""
    if text is None:
        return all_feature_names() if default is None else default
    names = [f.strip() for f in text.split(",")]
    violations = [f"unknown feature name: {n!r}" for n in names if n not in FEATURE_SECTIONS]
    violations += [f"repeated feature name: {n!r}" for n in dict.fromkeys(names)
                   if names.count(n) > 1]
    if violations:
        raise RegistryError(violations)
    return names


REQUIRED = object()  # a kind flag's default where the kinds that read it need it given

# each command's kind-specific flags: the kinds that read it, and its default
KIND_FLAGS = {
    "cv": {"features": (("gbt",), None)},
    "plot-data": {
        "features": (("shap_beeswarm", "shap_dependence"), None),
        "feature": (("shap_dependence",), REQUIRED),
        "seed": (("shap_beeswarm", "shap_dependence"), 0),
        "grid": (("scaling_heatmap",), 50),
    },
}


def _kind_flags(args) -> None:
    """Refuse each kind-specific flag ``--kind`` does not read and each one it
    requires but was not given; default the others."""
    flags = KIND_FLAGS.get(args.command, {}).items()
    refused = [f"--{flag} only applies to --kind {' or '.join(kinds)}, not --kind {args.kind}"
               for flag, (kinds, _) in flags if args.kind not in kinds
               and getattr(args, flag) is not None]
    refused += [f"--kind {args.kind} requires --{flag}" for flag, (kinds, default) in flags
                if args.kind in kinds and default is REQUIRED and getattr(args, flag) is None]
    if refused:
        raise RegistryError(refused)
    for flag, (kinds, default) in flags:
        if args.kind in kinds and getattr(args, flag) is None:
            setattr(args, flag, default)


CV_RESULT_KEYS = {f.name for f in fields(CVResult)}  # those of CVResult.to_dict()


def _cached(path):
    """The ``CVResult.to_dict()`` in the cache file at ``path`` (its keys,
    with a float ``mae``), or None."""
    try:
        with open(path) as f:
            cached = json.load(f)
    except (FileNotFoundError, ValueError, RecursionError):  # not JSON or UTF-8, too deep
        return None
    if (isinstance(cached, dict) and cached.keys() == CV_RESULT_KEYS
            and isinstance(cached["mae"], float)):
        return cached
    return None


def _cv_cached(args, kind, grid, requests):
    """One CV evaluation per seed of each request ``(dataset, features,
    seeds)``, each cached as JSON in the out directory; every file that
    misses is computed once, all of them in one ``run_cv_requests`` call.
    A request gets its ``ValueError`` in place of its results if it raises,
    or if a request whose cache paths it shares raises; the files of the
    others are written.

    A cache file that is not a ``CVResult.to_dict()`` is recomputed and
    overwritten.
    """
    plan = CVPlan()
    paths = [_cache_paths(args.out, kind, grid, plan, *request) for request in requests]
    results = {path: _cached(path) for request_paths in paths for path in request_paths}
    missed: dict[int, dict] = {}  # request -> {path: seed} of the misses it computes
    for q, request_paths in enumerate(paths):
        for seed, path in zip(requests[q][2], request_paths):
            if results[path] is None:
                missed.setdefault(q, {})[path] = seed
                results[path] = False  # computed by this request
    if missed:
        computed = run_cv_requests([(*requests[q][:2], list(m.values()))
                                    for q, m in missed.items()], kind, grid, plan)
        for m, request_results in zip(missed.values(), computed):
            if isinstance(request_results, ValueError):
                results |= dict.fromkeys(m, request_results)
                continue
            for path, result in zip(m, request_results):
                results[path] = result.to_dict()
                _atomic_write(path, _json_text(results[path]))
    found = [[results[path] for path in request_paths] for request_paths in paths]
    return [_raised(rs) or rs for rs in found]


def _raised(results):
    """The first ``ValueError`` among ``results``, or None."""
    return next((r for r in results if isinstance(r, ValueError)), None)


def _comparison_seeds(args) -> list[int]:
    """The seeds ``0 .. --seeds - 1``; a paired comparison needs two."""
    if args.seeds < 2:
        raise RegistryError([f"--seeds must be at least 2 for a paired comparison, "
                             f"not {args.seeds}"])
    return list(range(args.seeds))


def _comparisons(args, datasets, features, seeds) -> dict:
    """Scale-only against ``features`` GBT MAE over ``seeds`` on each of
    ``datasets`` (task id -> ``Dataset``), each CV cached: task id ->
    ((mean, ci95 half-width, per-seed MAEs) for scale-only and for
    ``features``, (t, df, p) of the paired t-test), or the first
    ``ValueError`` of the task's two CVs. The misses of every task are
    computed in one call; a task that raises costs the others nothing.
    """
    lists = (list(SCALING_FEATURES), features)
    results = iter(_cv_cached(args, "gbt", paper_grid(),
                              [(d, fs, seeds) for d in datasets.values() for fs in lists]))
    compared = {}
    for task_id in datasets:
        pair = [next(results) for _ in lists]
        compared[task_id] = _raised(pair)
        if compared[task_id] is None:
            maes = [[float(r["mae"]) for r in rs] for rs in pair]
            compared[task_id] = [(*mean_ci95(m), m) for m in maes], paired_t_test(*maes)
    return compared


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    try:
        _datasets(args, lambda task: True)
        violations = []
    except RegistryError as e:
        violations = e.violations
    report = {"violations": violations, "ok": not violations}
    if args.out:
        _atomic_write(os.path.join(args.out, "validate.json"), _json_text(report))
    if violations:
        _print_violations(violations)
        return 1
    print("ok: no violations")
    return 0


def cmd_encode(args) -> int:
    dataset = _task_dataset(args)
    X = encode_features(dataset, _feature_names(args.features))
    rows = [["model_id", *(f"{c.name}[{c.source_group}]" for c in X.columns)]]
    rows += [[mid, *X.values[i]] for i, mid in enumerate(X.model_ids)]
    _atomic_write(os.path.join(args.out, f"features-{args.task}.csv"), _csv_text(rows))
    print(f"wrote {len(X.model_ids)} rows x {len(X.columns)} columns")
    return 0


def cmd_fit_scaling(args) -> int:
    dataset = _task_dataset(args)
    points = scale_points(dataset)
    params, r2 = baselines.fit_power_law(points, dataset.task.polarity)
    a, b, c = baselines.fit_log_linear(points)
    out = {
        "task_id": args.task,
        "power_law": {"Nc": params.Nc, "Dc": params.Dc,
                      "alphaN": params.alphaN, "alphaD": params.alphaD,
                      "r_squared": r2},
        "log_linear": {"a": a, "b": b, "c": c},
        "n_models": len(dataset),
    }
    _atomic_write(os.path.join(args.out, f"scaling-{args.task}.json"), _json_text(out))
    print(f"{args.task}: power-law R^2 = {r2:.4f}")
    return 0


def cmd_cv(args) -> int:
    dataset = _task_dataset(args)
    features, grid = [], None  # baseline predictors read no feature matrix
    if args.kind == "gbt":
        features, grid = _feature_names(args.features), paper_grid()
    (results,) = _cv_cached(args, args.kind, grid, [(dataset, features, [args.seed])])
    if isinstance(results, ValueError):
        raise results
    (result,) = results
    path = os.path.join(args.out, f"cv-{args.task}-{args.kind}-{args.seed}.json")
    _atomic_write(path, _json_text(result))
    print(f"{args.task} [{args.kind}] MAE = {result['mae']:.5f}")
    return 0


def cmd_select(args) -> int:
    dataset = _task_dataset(args)
    candidates = _feature_names(args.candidates,
                                [f for f in all_feature_names() if f not in SCALING_FEATURES])
    trace = greedy_select(dataset, candidates, CVPlan(), paper_grid(),
                          list(range(args.seeds)), tol=args.tol)
    _atomic_write(os.path.join(args.out, f"select-{args.task}.json"),
                  _json_text(trace.to_dict()))
    print(f"{args.task}: selected {list(trace.final_features)}")
    return 0


def cmd_compare(args) -> int:
    seeds = _comparison_seeds(args)
    (compared,) = _comparisons(args, {args.task: _task_dataset(args)},
                               _feature_names(args.features), seeds).values()
    if isinstance(compared, ValueError):
        raise compared
    ((m1, hw1, scaling), (m2, hw2, allfeat)), (t, df, p) = compared
    out = {
        "task_id": args.task,
        "seeds": seeds,
        "scaling_mae": {"mean": m1, "ci95_halfwidth": hw1, "per_seed": scaling},
        "all_features_mae": {"mean": m2, "ci95_halfwidth": hw2, "per_seed": allfeat},
        "paired_t": {"t": t, "df": df, "p_two_sided": p},
    }
    _atomic_write(os.path.join(args.out, f"compare-{args.task}.json"), _json_text(out))
    print(f"{args.task}: scaling {m1:.5f} vs all-features {m2:.5f} (p = {p:.3g})")
    return 0


def _encode_and_fit(args, dataset, explained=None):
    """The encoded ``--features`` and an ensemble tuned and fitted on all rows;
    a column ``explained`` that is not encoded is refused before any fit."""
    X = encode_features(dataset, _feature_names(args.features))
    if explained is not None and explained not in X.column_names:
        raise ValueError(f"unknown feature: {explained}")
    return X, fit_tuned(X, dataset.values, paper_grid(), CVPlan().inner_folds, args.seed)[1]


def cmd_shap(args) -> int:
    X, ensemble = _encode_and_fit(args, _task_dataset(args))
    sm = shapley.shap_matrix(ensemble, X)
    rows = [["model_id", "feature", "feature_value", "phi"]]
    rows += [[mid, name, X.values[i, j], sm.values[i, j]]
             for i, mid in enumerate(sm.model_ids) for j, name in enumerate(sm.feature_names)]
    _atomic_write(os.path.join(args.out, f"shap-{args.task}.csv"), _csv_text(rows))
    ranking = shapley.shap_summary(ensemble, X, aggregate_categoricals=True)
    rows = [["feature", "mean_abs_phi"], *([e.feature, e.mean_abs_phi] for e in ranking)]
    _atomic_write(os.path.join(args.out, f"shap-ranking-{args.task}.csv"), _csv_text(rows))
    print(f"{args.task}: top features " + ", ".join(e.feature for e in ranking[:3]))
    return 0


def cmd_bias_audit(args) -> int:
    datasets = _datasets(args, lambda task: task.metric_kind in ("accuracy", "pass_at_1"))
    if not datasets:
        raise RegistryError(["no accuracy tasks available"])
    weighted = [(dataset, metabias.precision_weights(dataset)) for dataset in datasets.values()]
    rows = []
    for feature in ("positional_embeddings", "layer_norm", "attention_variant"):
        for level in ENUM_VOCAB[feature]:
            effects = []
            for dataset, weights in weighted:
                try:
                    effects.append(metabias.estimate_contrast(dataset, feature, level, weights))
                except ValueError:
                    continue
            try:
                rows.append((feature, level, metabias.pet_peese(effects)))
            except ValueError:  # fewer than metabias.MIN_TASKS effects, or a degenerate fit
                continue

    md = ["| Feature | Level | k | Chosen | Effect (pp) [95% CI] | Egger p |",
          "|---|---|---|---|---|---|"]
    payload = []
    for feature, level, r in rows:
        lo, hi = r.ci95
        md.append(f"| {feature} | {level} | {r.k} | {r.method_chosen} | "
                  f"{100 * r.intercept:+.1f} [{100 * lo:+.1f}, {100 * hi:+.1f}] | "
                  f"{r.egger_p:.3f} |")
        payload.append({"feature": feature, "level": level, **r.to_dict(),
                        "weight_policy": "n_items_binomial_or_uniform"})
    _atomic_write(os.path.join(args.out, "bias-audit.md"), "\n".join(md) + "\n")
    _atomic_write(os.path.join(args.out, "bias-audit.json"), _json_text(payload))
    print(f"audited {len(rows)} (feature, level) pairs over {len(datasets)} accuracy tasks")
    return 0


def cmd_report(args) -> int:
    seeds = _comparison_seeds(args)
    datasets = _datasets(args, lambda task: True)
    features_all = _feature_names(args.features)
    header = ("| Benchmark | Baseline MAE | Log-Linear MAE | Scaling Laws MAE | "
              "All Features MAE | p-val (corrected) |")
    baseline, unavailable = {}, {}  # task id -> (median, log-linear MAE) | the ValueError raised
    for task_id, dataset in datasets.items():
        try:
            baseline[task_id] = (run_cv(dataset, [], "median", CVPlan()).mae,
                                 run_cv(dataset, [], "log_linear", CVPlan()).mae)
        except ValueError as e:
            unavailable[task_id] = e
    compared = _comparisons(args, {t: datasets[t] for t in baseline}, features_all, seeds)
    unavailable |= {t: c for t, c in compared.items() if isinstance(c, ValueError)}
    adjusted = iter(bh_fdr([c[1][2] for t, c in compared.items() if t not in unavailable])[1])
    scale = 100.0  # accuracy in percent, Brier x100
    md = [header, "|---|---|---|---|---|---|"]
    for task_id in datasets:
        if task_id in unavailable:
            md.append(f"| {task_id} | unavailable ({unavailable[task_id]}) | | | | |")
            continue
        (base, loglin), (((m1, hw1, _), (m2, hw2, _)), _) = baseline[task_id], compared[task_id]
        md.append(f"| {task_id} | {base * scale:.2f} | {loglin * scale:.2f} | "
                  f"{m1 * scale:.2f} ± {hw1 * scale:.2f} | "
                  f"{m2 * scale:.2f} ± {hw2 * scale:.2f} | {next(adjusted):.3g} |")
    _atomic_write(os.path.join(args.out, "report.md"), "\n".join(md) + "\n")
    print(f"wrote report for {len(datasets)} tasks")
    return 0


def cmd_plot_data(args) -> int:
    if args.kind == "scaling_heatmap" and args.grid < 1:
        raise RegistryError([f"--grid must be at least 1, not {args.grid}"])
    dataset = _task_dataset(args)
    if args.kind == "scaling_heatmap":
        points = scale_points(dataset)
        polarity = dataset.task.polarity
        params, _ = baselines.fit_power_law(points, polarity)
        ns = np.logspace(np.log10(min(p.N for p in points)),
                         np.log10(max(p.N for p in points)), args.grid)
        ds = np.logspace(np.log10(min(p.D for p in points)),
                         np.log10(max(p.D for p in points)), args.grid)
        rows = [["kind", "N", "D", "value"]]
        rows += [["grid", n, d, baselines.predict_power_law_score(params, n, d, polarity)]
                 for n in ns for d in ds]
        rows += [["model", p.N, p.D, p.target] for p in points]
        _atomic_write(os.path.join(args.out, f"heatmap-{args.task}.csv"), _csv_text(rows))
    elif args.kind == "shap_beeswarm":
        X, ensemble = _encode_and_fit(args, dataset)
        entries = shapley.shap_summary(ensemble, X, aggregate_categoricals=True)
        rows = [["feature", "mean_abs_phi", "feature_value", "phi"]]
        rows += [[e.feature, e.mean_abs_phi, v, phi] for e in entries for v, phi in e.points]
        _atomic_write(os.path.join(args.out, f"beeswarm-{args.task}.csv"), _csv_text(rows))
    elif args.kind == "shap_dependence":
        X, ensemble = _encode_and_fit(args, dataset, args.feature)
        points, n_missing = shapley.shap_dependence(ensemble, X, args.feature)
        rows = [[f"# missing_rows={n_missing}"], ["feature_value", "phi"], *points]
        _atomic_write(os.path.join(args.out, f"dependence-{args.task}-{args.feature}.csv"),
                      _csv_text(rows))
    print(f"wrote {args.kind} data for {args.task}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfpred",
                                     description="Benchmark performance prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, task=True):
        # no abbreviations: "compare --seed" must not pass for --seeds
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--registry", required=True)
        p.add_argument("--scores", required=True)
        if task:
            p.add_argument("--task", required=True)
        p.add_argument("--out", default="out")
        return p

    command("validate", "check registry and scores files", cmd_validate, task=False)

    p = command("encode", "export the encoded feature matrix", cmd_encode)
    p.add_argument("--features")

    command("fit-scaling", "fit power-law and log-linear baselines", cmd_fit_scaling)

    p = command("cv", "cross-validated evaluation of one predictor", cmd_cv)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=["median", "log_linear", "power_law", "gbt"],
                   default="gbt")
    p.add_argument("--features")

    p = command("select", "greedy forward feature selection", cmd_select)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--candidates")
    p.add_argument("--tol", type=float, default=1e-4)

    p = command("compare", "scaling vs all-features across seeds", cmd_compare)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--features")

    p = command("shap", "export attribution matrix and ranking", cmd_shap)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--features")

    command("bias-audit", "PET-PEESE audit of architecture levels", cmd_bias_audit, task=False)

    p = command("report", "full MAE comparison table", cmd_report, task=False)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--features")

    # no defaults here: _kind_flags gives each flag the --kind reads its default
    p = command("plot-data", "CSV data for heatmap/beeswarm/dependence plots", cmd_plot_data)
    p.add_argument("--seed", type=int)
    p.add_argument("--kind", required=True,
                   choices=["scaling_heatmap", "shap_beeswarm", "shap_dependence"])
    p.add_argument("--feature")
    p.add_argument("--features")
    p.add_argument("--grid", type=int)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _kind_flags(args)  # before the command reads any input
        return args.func(args)
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 2
    except RegistryError as e:
        _print_violations(e.violations, sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
