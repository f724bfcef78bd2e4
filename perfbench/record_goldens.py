"""Record SHA-256 goldens of every workload's outputs for the given seeds.

    python3 perfbench/record_goldens.py [--workload NAME] 0 1 2

Each (workload, seed) runs one pass in a fresh child, as ``run.py`` does,
and its output digests are merged into ``goldens.json``. A pass whose own
checks fail records nothing. Goldens are the reference outputs of the code
they were recorded at; re-record only where outputs change on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run
from child import GOLDENS

WORKERS = 2


def record(workload: str, seed: int) -> tuple[str, int, dict]:
    workdir = os.path.join(run.ROOT, ".bench_work", f"golden-{workload}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        result = run.Runner(workload, seed, workdir, False, time.monotonic()).spawn("run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    own = [f for f in result["failures"] if not f.startswith("check golden ")]
    if own:
        raise SystemExit(f"{workload} seed {seed} failed its checks: {own}")
    return workload, seed, result["checks"]["artifacts"]


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=run.WORKLOADS, help="default: every workload")
    p.add_argument("seeds", type=int, nargs="+")
    args = p.parse_args(argv)
    names = [args.workload] if args.workload else run.WORKLOADS
    with ThreadPoolExecutor(WORKERS) as pool:
        done = list(pool.map(lambda ws: record(*ws),
                             [(w, s) for s in args.seeds for w in names]))
    with open(GOLDENS) as f:
        goldens = json.load(f)
    for workload, seed, digests in done:
        goldens.setdefault(workload, {})[str(seed)] = digests
        print(f"{workload} seed {seed}: {digests}")
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
