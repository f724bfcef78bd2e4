"""Command-line front end.

Thin compositions of the library operations: every subcommand loads inputs,
calls the corresponding API, and writes markdown/CSV/JSON artifacts. All
randomness flows through recorded seeds, so outputs are byte-identical
across runs with identical inputs and flags.

Exit codes: 0 success, 1 validation/analysis failure, 2 I/O or config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, baselines, metabias, shapley
from .gbtree import fit_gbt, paper_grid  # noqa: F401 (perfbench checks tracing wraps fit_gbt here)
from .pipeline import SCALING_FEATURES, CVPlan, fit_tuned, greedy_select, run_cv, scale_points
from .prng import PRNG_ID
from .registry import (
    ENUM_VOCAB,
    FEATURE_SECTIONS,
    RegistryError,
    all_feature_names,
    encode_features,
    join_scores,
    load_registry,
    load_scores,
)
from .stats import bh_fdr, mean_ci95, paired_t_test


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cache_key(paths, *parts) -> str:
    """Digest of the contents of the files at ``paths`` and of ``parts``."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\x00")
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, default=str).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _load_inputs(args):
    return load_registry(args.registry), *load_scores(args.scores)


def _task_dataset(args):
    registry, scores, tasks = _load_inputs(args)
    if args.task not in tasks:
        raise RegistryError([f"task {args.task!r} not present in scores file"])
    return join_scores(registry, scores, tasks[args.task])


def _feature_names(text, default=None):
    """The comma-separated names in ``text`` (if none, ``default`` or every
    feature); every undocumented name, empty ones too, and every repeated
    name is a violation."""
    if not text:
        return all_feature_names() if default is None else default
    names = [f.strip() for f in text.split(",")]
    violations = [f"unknown feature name: {n!r}" for n in names if n not in FEATURE_SECTIONS]
    violations += [f"repeated feature name: {n!r}" for n in dict.fromkeys(names)
                   if names.count(n) > 1]
    if violations:
        raise RegistryError(violations)
    return names


def _reject(args, flag: str, applies_to: str) -> None:
    """``--<flag>`` is a violation where the chosen ``--kind`` does not read it."""
    if getattr(args, flag) is not None:
        raise RegistryError([f"--{flag} only applies to {applies_to}, not --kind {args.kind}"])


def _cv_cached(args, dataset, features, kind, grid, plan):
    """Run (or reuse) one CV evaluation, caching JSON in the out directory.

    The key takes ``features`` in the order given: a fit depends on its
    column order. A cache file that does not parse as a JSON object is
    recomputed and overwritten.
    """
    key = _cache_key((args.registry, args.scores), __version__, PRNG_ID, dataset.task.task_id,
                     features, kind, plan.seed, [vars(g) for g in (grid or [])],
                     plan.outer_folds, plan.inner_folds)
    cache_path = os.path.join(args.out, "cache", f"cv-{key}.json")
    try:
        with open(cache_path) as f:
            cached = json.load(f)
        if isinstance(cached, dict):
            return cached
    except (FileNotFoundError, ValueError):  # ValueError: not JSON, or not UTF-8
        pass
    result = run_cv(dataset, features, kind, plan, grid).to_dict()
    _atomic_write(cache_path, _json_text(result))
    return result


def _compare_cached(args, dataset, features, seeds):
    """Scale-only against ``features`` GBT MAE over ``seeds``, each CV cached.

    Returns ((mean, ci95 half-width, per-seed MAEs) for scale-only and for
    ``features``, (t, df, p) of the paired t-test).
    """
    grid = paper_grid()
    maes = [[float(_cv_cached(args, dataset, fs, "gbt", grid, CVPlan(seed=s))["mae"])
             for s in seeds] for fs in (list(SCALING_FEATURES), features)]
    return [(*mean_ci95(m), m) for m in maes], paired_t_test(*maes)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    violations = []
    for load, path in ((load_registry, args.registry), (load_scores, args.scores)):
        try:
            load(path)
        except RegistryError as e:
            violations.extend(e.violations)

    report = {"violations": violations, "ok": not violations}
    if args.out:
        _atomic_write(os.path.join(args.out, "validate.json"), _json_text(report))
    if violations:
        for v in violations:
            print(f"VIOLATION: {v}")
        return 1
    print("ok: no violations")
    return 0


def cmd_encode(args) -> int:
    dataset = _task_dataset(args)
    X = encode_features(dataset, _feature_names(args.features))
    lines = ["model_id," + ",".join(
        f"{c.name}[{c.source_group}]" for c in X.columns)]
    missing = X.missing_mask
    for i, mid in enumerate(X.model_ids):
        cells = ["" if m else repr(float(v)) for v, m in zip(X.values[i], missing[i])]
        lines.append(mid + "," + ",".join(cells))
    _atomic_write(os.path.join(args.out, f"features-{args.task}.csv"), "\n".join(lines) + "\n")
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
    if args.kind == "gbt":
        features, grid = _feature_names(args.features), paper_grid()
    else:
        # baseline predictors read no feature matrix; record that honestly
        _reject(args, "features", "--kind gbt")
        features, grid = [], None
    result = _cv_cached(args, dataset, features, args.kind, grid, CVPlan(seed=args.seed))
    path = os.path.join(args.out, f"cv-{args.task}-{args.kind}-{args.seed}.json")
    _atomic_write(path, _json_text(result))
    print(f"{args.task} [{args.kind}] MAE = {result['mae']:.5f}")
    return 0


def cmd_select(args) -> int:
    dataset = _task_dataset(args)
    candidates = _feature_names(args.candidates,
                                [f for f in all_feature_names() if f not in SCALING_FEATURES])
    seeds = list(range(args.seeds))
    trace = greedy_select(dataset, candidates, CVPlan(), paper_grid(),
                          seeds, tol=args.tol)
    _atomic_write(os.path.join(args.out, f"select-{args.task}.json"),
                  _json_text(trace.to_dict()))
    print(f"{args.task}: selected {list(trace.final_features)}")
    return 0


def cmd_compare(args) -> int:
    dataset = _task_dataset(args)
    seeds = list(range(args.seeds))
    ((m1, hw1, scaling), (m2, hw2, allfeat)), (t, df, p) = _compare_cached(
        args, dataset, _feature_names(args.features), seeds)
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


def _encode_and_fit(args, dataset):
    """The encoded ``--features`` and an ensemble tuned and fitted on all rows."""
    X = encode_features(dataset, _feature_names(args.features))
    return X, fit_tuned(X, dataset.values, paper_grid(), CVPlan().inner_folds, args.seed)[1]


def cmd_shap(args) -> int:
    X, ensemble = _encode_and_fit(args, _task_dataset(args))
    sm = shapley.shap_matrix(ensemble, X)
    lines = ["model_id,feature,feature_value,phi"]
    missing = X.missing_mask
    for i, mid in enumerate(sm.model_ids):
        for j, name in enumerate(sm.feature_names):
            value = "" if missing[i, j] else repr(float(X.values[i, j]))
            lines.append(f"{mid},{name},{value},{float(sm.values[i, j])!r}")
    _atomic_write(os.path.join(args.out, f"shap-{args.task}.csv"), "\n".join(lines) + "\n")
    ranking = shapley._summary(sm, X, aggregate_categoricals=True)
    rlines = ["feature,mean_abs_phi"] + [f"{e.feature},{e.mean_abs_phi!r}" for e in ranking]
    _atomic_write(os.path.join(args.out, f"shap-ranking-{args.task}.csv"),
                  "\n".join(rlines) + "\n")
    print(f"{args.task}: top features " + ", ".join(e.feature for e in ranking[:3]))
    return 0


def cmd_bias_audit(args) -> int:
    registry, scores, tasks = _load_inputs(args)
    acc_tasks = [t for t in sorted(tasks) if tasks[t].metric_kind in ("accuracy", "pass_at_1")]
    if not acc_tasks:
        print("no accuracy tasks available")
        return 1
    audited = ["positional_embeddings", "layer_norm", "attention_variant"]
    weighted = []
    for task_id in acc_tasks:
        dataset = join_scores(registry, scores, tasks[task_id])
        try:
            weighted.append((dataset, metabias.precision_weights(dataset)))
        except ValueError:
            continue
    rows = []
    for feature in audited:
        for level in ENUM_VOCAB[feature]:
            effects = []
            for dataset, weights in weighted:
                try:
                    effects.append(metabias.estimate_contrast(dataset, feature, level, weights))
                except ValueError:
                    continue
            if len(effects) < metabias.MIN_TASKS:
                continue
            try:
                result = metabias.pet_peese(effects)
            except ValueError:
                continue
            rows.append((feature, level, result))

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
    print(f"audited {len(rows)} (feature, level) pairs over {len(acc_tasks)} accuracy tasks")
    return 0


def cmd_report(args) -> int:
    registry, scores, tasks = _load_inputs(args)
    seeds = list(range(args.seeds))
    features_all = _feature_names(args.features)
    header = ("| Benchmark | Baseline MAE | Log-Linear MAE | Scaling Laws MAE | "
              "All Features MAE | p-val (corrected) |")
    rows, pvals = [], []
    for task_id in sorted(tasks):
        dataset = join_scores(registry, scores, tasks[task_id])
        scale = 100.0  # accuracy in percent, Brier x100
        try:
            base = run_cv(dataset, [], "median", CVPlan()).mae
            loglin = run_cv(dataset, [], "log_linear", CVPlan()).mae
            ((m1, hw1, _), (m2, hw2, _)), (_, _, p) = _compare_cached(
                args, dataset, features_all, seeds)
            rows.append((task_id, base * scale, loglin * scale,
                         (m1 * scale, hw1 * scale), (m2 * scale, hw2 * scale)))
            pvals.append(p)
        except (ValueError, RegistryError) as e:
            rows.append((task_id, None, str(e), None, None))
            pvals.append(None)

    present = [p for p in pvals if p is not None]
    adjusted_iter = iter(bh_fdr(present)[1] if present else [])
    md = [header, "|---|---|---|---|---|---|"]
    for (task_id, base, loglin, s, a), p in zip(rows, pvals):
        if base is None:
            md.append(f"| {task_id} | unavailable ({loglin}) | | | | |")
            continue
        adj = next(adjusted_iter)
        md.append(f"| {task_id} | {base:.2f} | {loglin:.2f} | "
                  f"{s[0]:.2f} ± {s[1]:.2f} | {a[0]:.2f} ± {a[1]:.2f} | {adj:.3g} |")
    _atomic_write(os.path.join(args.out, "report.md"), "\n".join(md) + "\n")
    print(f"wrote report for {len(rows)} tasks")
    return 0


# each kind-specific plot-data flag: the kinds that read it, and its default
PLOT_DATA_FLAGS = {
    "features": (("shap_beeswarm", "shap_dependence"), None),
    "feature": (("shap_dependence",), None),
    "seed": (("shap_beeswarm", "shap_dependence"), 0),
    "grid": (("scaling_heatmap",), 50),
}


def cmd_plot_data(args) -> int:
    for flag, (kinds, default) in PLOT_DATA_FLAGS.items():
        if args.kind not in kinds:
            _reject(args, flag, "--kind " + " or ".join(kinds))
        elif getattr(args, flag) is None:
            setattr(args, flag, default)
    dataset = _task_dataset(args)
    if args.kind == "scaling_heatmap":
        points = scale_points(dataset)
        params, _ = baselines.fit_power_law(points, dataset.task.polarity)
        ns = np.logspace(np.log10(min(p.N for p in points)),
                         np.log10(max(p.N for p in points)), args.grid)
        ds = np.logspace(np.log10(min(p.D for p in points)),
                         np.log10(max(p.D for p in points)), args.grid)
        lines = ["kind,N,D,value"]
        for n in ns:
            for d in ds:
                s = baselines.predict_power_law_score(params, n, d, dataset.task.polarity)
                lines.append(f"grid,{float(n)!r},{float(d)!r},{s!r}")
        for p in points:
            lines.append(f"model,{p.N!r},{p.D!r},{p.target!r}")
        _atomic_write(os.path.join(args.out, f"heatmap-{args.task}.csv"),
                      "\n".join(lines) + "\n")
    elif args.kind == "shap_beeswarm":
        X, ensemble = _encode_and_fit(args, dataset)
        entries = shapley.shap_summary(ensemble, X, aggregate_categoricals=True)
        lines = ["feature,mean_abs_phi,feature_value,phi"]
        for e in entries:
            for value, phi in e.points:
                lines.append(f"{e.feature},{e.mean_abs_phi!r},{value},{phi!r}")
        _atomic_write(os.path.join(args.out, f"beeswarm-{args.task}.csv"),
                      "\n".join(lines) + "\n")
    elif args.kind == "shap_dependence":
        if not args.feature:
            raise RegistryError(["shap_dependence requires --feature"])
        X, ensemble = _encode_and_fit(args, dataset)
        points, n_missing = shapley.shap_dependence(ensemble, X, args.feature)
        lines = [f"# missing_rows={n_missing}", "feature_value,phi"]
        lines += [f"{v!r},{phi!r}" for v, phi in points]
        _atomic_write(os.path.join(args.out, f"dependence-{args.task}-{args.feature}.csv"),
                      "\n".join(lines) + "\n")
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

    # no defaults: cmd_plot_data refuses a flag its --kind does not read, and
    # gives the others their defaults (PLOT_DATA_FLAGS)
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
        return args.func(args)
    except (OSError, json.JSONDecodeError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 2
    except RegistryError as e:
        for v in e.violations:
            print(f"VIOLATION: {v}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
