"""One benchmark pass, run by ``run.py`` in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR \
        --spawned T --mode {setup,run,trace} --result FILE

The child imports perfpred from ``src/``, writes the seeded inputs under
DIR, and reports as ``setup_s`` the time from T (``time.monotonic`` in the
parent just before the spawn) to that point. ``setup`` stops there. ``run``
then times the cold sequence on the empty DIR/out and the warm sequence
repeated on what it left; ``trace`` does the same with spans recorded and
one warm repeat. From its start to the end of the timed region the child
samples the machine's speed (``speed.py``), and reports its mean over
set-up and over the cold sequence next to their times. Outputs are
checked after the timed region. The result is written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(HERE, "goldens.json")
sys.path.insert(0, SRC)  # perfpred from this checkout, checked in import_perfpred

import speed  # noqa: E402

SAMPLER = speed.Sampler()
if __name__ == "__main__":
    SAMPLER.start()  # before the imports below, so set-up is sampled too

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WARM_MIN_REPS = 3
WARM_MIN_S = 1.0
WARM_MAX_REPS = 200


def import_perfpred():
    """perfpred from this checkout's ``src/``, never an installed copy."""
    import perfpred
    import perfpred.baselines
    import perfpred.cli
    import perfpred.gbtree
    import perfpred.metabias
    import perfpred.pipeline
    import perfpred.registry
    import perfpred.shapley
    import perfpred.stats

    if os.path.dirname(os.path.dirname(os.path.abspath(perfpred.__file__))) != SRC:
        raise ImportError(f"perfpred imported from {perfpred.__file__}, not {SRC}")
    return perfpred


def file_states(directory: str) -> dict[str, tuple[int, int, int]]:
    """path -> (inode, mtime_ns, size) of every file under ``directory``."""
    states = {}
    for dirpath, _, files in os.walk(directory):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            states[os.path.join(dirpath, name)] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return states


def bytes_written(before: dict, after: dict) -> int:
    """Bytes of files created or replaced between two ``file_states``."""
    return sum(st[2] for path, st in after.items() if before.get(path) != st)


def run_sequence(workload, session, pp, with_library: bool):
    lib = workload.library(session, pp) if with_library else {}
    for argv in workload.cli_sequence():
        session.run_cli(argv)
    return lib


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    pp = import_perfpred()
    workload = workloads.WORKLOADS[args.workload](workloads.SMOKE if args.smoke
                                                  else workloads.FULL)
    reg_path, scores_path = inputs.write(workload.spec(), args.seed,
                                         os.path.join(args.workdir, "inputs"))
    out = os.path.join(args.workdir, "out")
    result = {"setup_s": time.monotonic() - args.spawned,
              "setup_speed": SAMPLER.speed(float("-inf"), time.perf_counter()),
              "versions": {"python": sys.version.split()[0],
                           "numpy": sys.modules["numpy"].__version__,
                           "scipy": sys.modules["scipy"].__version__}}
    if args.mode == "setup":
        SAMPLER.stop()
    else:
        golden = None if args.smoke else load_golden(workload.name, args.seed)
        result.update(measure(workload, golden, args.mode == "trace", pp,
                              workloads.Session(pp.cli, reg_path, scores_path, out)))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


def measure(workload, golden, traced, pp, session):
    out = session.out
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        t0 = time.perf_counter()
        lib = run_sequence(workload, session, pp, True)
        t1 = time.perf_counter()
        windows = [(t0, t1)]
        after_cold = file_states(out)
        cold_digests = digest_outputs(workload, session, lib)
        warm = []
        while len(warm) < (1 if traced else WARM_MAX_REPS):
            w0 = time.perf_counter()
            run_sequence(workload, session, pp, False)
            w1 = time.perf_counter()
            windows.append((w0, w1))
            warm.append(w1 - w0)
            if len(warm) >= WARM_MIN_REPS and sum(warm) >= WARM_MIN_S:
                break
    finally:
        SAMPLER.stop()
        if tracer:
            tracer.uninstall()

    res = {"cold_s": t1 - t0, "cold_speed": SAMPLER.speed(t0, t1),
           "warm_s": statistics.median(warm), "warm_reps": len(warm)}
    cache_dir = os.path.join(out, "cache")
    misses = len(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else 0
    if tracer:
        layers = spans.layer_metrics(tracer, windows)
        requests = workload.cv_requests * (1 + len(warm))
        layers["cli.cache.misses"] = misses
        layers["cli.cache.hits"] = requests - misses
        layers["cli.cache.hit_ratio"] = (requests - misses) / requests if requests else 0.0
        layers["cli.bytes_written"] = (bytes_written({}, after_cold)
                                       + bytes_written(after_cold, file_states(out)))
        res["layers"] = layers

    checks = verify(workload, session, lib, golden, pp, misses, cold_digests)
    res["attempted"] = session.attempted
    res["failures"] = session.failures
    res["checks"] = checks
    return res


def digest_outputs(workload, session, lib) -> dict | None:
    try:
        return workload.artifacts(session, lib)
    except Exception as e:  # missing or unreadable output
        session.check(f"artifacts ({type(e).__name__}: {e})", False)
        return None


def load_golden(workload_name: str, seed: int) -> dict | None:
    """Recorded output digests for this workload and seed, if any."""
    with open(GOLDENS) as f:
        return json.load(f).get(workload_name, {}).get(str(seed))


def verify(workload, session, lib, golden, pp, misses, cold_digests) -> dict:
    """Checks after the timed region; failures are added to the session."""
    digests = digest_outputs(workload, session, lib)
    if digests is None or cold_digests is None:
        return {}
    session.check("warm_outputs_equal_cold", digests == cold_digests)
    session.check("cache.one_file_per_cv_request", misses == workload.cv_requests)
    for name, digest in sorted(digests.items()):
        if golden is not None:
            session.check(f"golden {name}", golden.get(name) == digest)
    try:
        workload.check(session, lib, pp)
    except Exception as e:
        session.check(f"outputs ({type(e).__name__}: {e})", False)
    return {"golden_checked": golden is not None, "artifacts": digests}


if __name__ == "__main__":
    sys.exit(main())
