"""perfpred benchmark: time whole workloads end to end and each layer under them.

    python3 perfbench/run.py --workload {cv_wide,report_multi,explain,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; perfpred is imported from its ``src/``.
Inputs are generated from ``--seed``. Each pass runs in a fresh child
process with an empty ``--out`` directory (see ``child.py``); passes repeat,
one at a time, while the next one is expected to end within ``--seconds``.
Every pass checks its outputs: goldens for recorded seeds, determinism and
seed-independent invariants for all.

With ``--trace 0`` the end-to-end metrics are reported: medians over the
passes, and over extra set-up-only children for ``setup_s``. Both are
seconds at the reference speed: each child's time multiplied by the
machine's relative speed sampled in that child while it ran
(``speed.py``). The measured times are printed as ``wall_raw_s`` and
``setup_raw_s``. With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of the traced passes are reported. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("cv_wide", "report_multi", "explain")  # as in workloads.WORKLOADS

SETUP_PROBES = 3  # set-up-only children per run, besides one per pass
RUN_LIMIT_S = 170.0  # no pass may start that is expected to end later than this

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.warm_s": "s",
    "gbtree.fit.calls": "count",
    "gbtree.fit.self_s": "s",
    "gbtree.fit.self_frac": "fraction",
    "gbtree.trees": "count",
    "gbtree.nodes": "count",
    "gbtree.nodes_per_s": "1/s",
    "gbtree.staged_predict.calls": "count",
    "gbtree.staged_predict.self_s": "s",
    "gbtree.predict.calls": "count",
    "gbtree.predict.self_s": "s",
    "gbtree.rows_routed": "count",
    "pipeline.grid_search.calls": "count",
    "pipeline.grid_search.self_s": "s",
    "pipeline.run_cv.calls": "count",
    "pipeline.run_cv.self_s": "s",
    "shapley.shap_matrix.calls": "count",
    "shapley.shap_matrix.self_s": "s",
    "shapley.shap_matrix.self_frac": "fraction",
    "shapley.rows_explained": "count",
    "shapley.recompute_ratio": "ratio",
    "cli.self_s": "s",
    "cli.cache.misses": "count",
    "cli.cache.hits": "count",
    "cli.cache.hit_ratio": "ratio",
    "cli.bytes_written": "bytes",
    "registry.calls": "count",
    "registry.self_s": "s",
    "baselines.fit_power_law.calls": "count",
    "baselines.fit_power_law.self_s": "s",
    "baselines.other.self_s": "s",
    "metabias.calls": "count",
    "metabias.self_s": "s",
    "stats.calls": "count",
    "stats.self_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.uncovered_frac": "fraction",
}


class RunFailed(Exception):
    pass


def first_line(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.readline().strip()
    except OSError:
        return None


def provenance(versions: dict, loadavg: str | None) -> dict:
    try:
        commit = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
                                 "HEAD"], capture_output=True, text=True, timeout=10
                                ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {**versions, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in blas},
            "git_commit": commit, "loadavg_at_start": loadavg}


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str, smoke: bool, started: float):
        self.workload, self.seed, self.workdir, self.smoke = workload, seed, workdir, smoke
        self.started = started
        self.children = 0

    def spawn(self, mode: str) -> dict:
        self.children += 1
        workdir = os.path.join(self.workdir, f"{self.children:03d}-{mode}")
        os.makedirs(workdir)
        result_path = os.path.join(workdir, "result.json")
        argv = [sys.executable, CHILD, "--workload", self.workload, "--seed", str(self.seed),
                "--workdir", workdir, "--mode", mode, "--result", result_path]
        if self.smoke:
            argv.append("--smoke")
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        try:
            spawned = time.monotonic()
            proc = subprocess.run(argv + ["--spawned", repr(spawned)], cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
            ended = time.monotonic()
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{mode} child exceeded {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise RunFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(result_path) as f:
            result = json.load(f)
        shutil.rmtree(workdir)
        result["mode"] = mode
        result["elapsed_s"] = ended - spawned
        return result


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            workdir: str) -> list[dict]:
    """All children of one run: set-up probes first, then passes."""
    started = time.monotonic()
    deadline = started + seconds
    runner = Runner(workload, seed, workdir, smoke, started)
    results = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    modes = ("run", "trace") if trace else ("run",)
    passes: list[dict] = []
    while True:
        passes.append(runner.spawn(modes[len(passes) % len(modes)]))
        expected = statistics.mean(p["elapsed_s"] for p in passes)
        now = time.monotonic()
        if len(passes) >= len(modes) and (now + expected > deadline
                                          or now + expected > started + RUN_LIMIT_S):
            break
    return results + passes


def summarize(results: list[dict], trace: bool) -> tuple[dict, dict]:
    """(metric values, sample counts) of one run's children."""
    runs = [r for r in results if r["mode"] == "run"]
    values = {
        "wall_s": statistics.median(r["cold_s"] * r["cold_speed"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] * r["setup_speed"]
                                     for r in results),
        "peak_rss_mb": max([r["peak_rss_mb"] for r in results]
                           + [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
        "cli.warm_s": statistics.median(r["warm_s"] for r in runs),
    }
    counts = {"wall_s": len(runs), "setup_s": len(results), "peak_rss_mb": len(results) + 1,
              "cli.warm_s": sum(r["warm_reps"] for r in runs)}
    traced = [r for r in results if r["mode"] == "trace"]
    if trace:
        for name in PER_LAYER:
            if name not in values and name != "trace.overhead_frac":
                values[name] = statistics.median(r["layers"][name] for r in traced)
                counts[name] = len(traced)
        values["trace.overhead_frac"] = (statistics.median(
            r["cold_s"] * r["cold_speed"] for r in traced) / values["wall_s"] - 1.0)
        counts["trace.overhead_frac"] = len(traced)
    return values, counts


def report(workload: str, results: list[dict], trace: bool):
    """Print one workload's metrics; return (declared metrics, attempted, failed)."""
    values, counts = summarize(results, trace)
    units = {**END_TO_END, **PER_LAYER}
    passes = [r for r in results if r["mode"] != "setup"]
    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    goldens = all(r["checks"].get("golden_checked") for r in passes)
    print(f"== {workload}: {len(passes)} passes, {len(results) - len(passes)} set-up probes, "
          f"goldens {'checked' if goldens else 'not recorded for this seed'}")
    runs = [r for r in results if r["mode"] == "run"]
    measured = {  # name -> (median, unit)
        "wall_raw_s": (statistics.median(r["cold_s"] for r in runs), "s"),
        "setup_raw_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "relative_speed": (statistics.median(r["cold_speed"] for r in runs), "ratio"),
    }
    for name, value in values.items():
        print(f"{workload} {name:<34} {value:>14.6g} {units[name]:<8} n={counts[name]}")
    for name, (value, unit) in measured.items():
        print(f"{workload} {name:<34} {value:>14.6g} {unit:<8} measured, not scaled")
    print(f"{workload} {'failed_frac':<34} {len(failures) / attempted:>14.6g} "
          f"{'fraction':<8} ({len(failures)} of {attempted} operations)")
    if trace:
        print(f"{workload}: gbtree.fit.self_s is {100 * values['gbtree.fit.self_frac']:.1f}% "
              f"and shapley.shap_matrix.self_s {100 * values['shapley.shap_matrix.self_frac']:.1f}%"
              " of traced wall time")
    for f in failures:
        print(f"{workload} FAILED: {f}")
    declared = PER_LAYER if trace else END_TO_END
    return {name: {"value": values[name], "unit": units[name]} for name in declared}, \
        attempted, len(failures)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="about a dozen models per workload, for checking the harness")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "perfpred", "__init__.py")):
        print(f"error: no perfpred sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = os.path.join(ROOT, ".bench_work", f"{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    loadavg = first_line("/proc/loadavg")
    metrics, attempted, failed = {}, 0, 0
    try:
        for i, name in enumerate(names):
            results = measure(name, args.seed, args.seconds, bool(args.trace), args.smoke,
                              os.path.join(workdir, name))
            if i == 0:
                print("provenance " + json.dumps(provenance(results[0]["versions"], loadavg),
                                                 sort_keys=True))
            m, a, f = report(name, results, bool(args.trace))
            metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
            attempted += a
            failed += f
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
