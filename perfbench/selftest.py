"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The file name keeps these out of the repository's own test collection: the
smoke test runs the whole harness and takes tens of seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _read_all(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


def test_inputs_are_a_function_of_the_seed():
    spec = workloads.FULL.report_multi
    with tempfile.TemporaryDirectory() as tmp:
        a, b, c = (os.path.join(tmp, d) for d in "abc")
        inputs.write(spec, 7, a)
        inputs.write(spec, 7, b)
        inputs.write(spec, 8, c)
        assert _read_all(a) == _read_all(b)
        assert _read_all(a)["scores.csv"] != _read_all(c)["scores.csv"]
    _, rows = inputs.build(spec, 7)
    per_task = {}
    for model_id, task_id, _, kind, _ in rows:
        per_task.setdefault((task_id, kind), set()).add(model_id)
    assert {k: len(v) for k, v in per_task.items()} == {
        (t.task_id, t.metric_kind): t.n_covered for t in spec.tasks}


def test_self_time_on_a_hand_built_span_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("b", 3.0, 6.0, 0),  # overlaps a: the union, not the sum, is subtracted
        S("a.1", 2.0, 3.0, 1),
        S("a.2", 3.5, 5.0, 1),  # runs past its parent's end: clipped
        S("other", 11.0, 12.0, None),
    ]
    assert spans.self_times(tree) == [5.0, 1.5, 3.0, 1.0, 1.5, 1.0]
    assert spans.union_length([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == 3.0


def test_layer_metrics_cover_the_windows():
    tracer = spans.Tracer()
    tracer.spans = [spans.Span("cli", 1.0, 3.0, None), spans.Span("gbtree.fit", 1.5, 2.5, 0)]
    m = spans.layer_metrics(tracer, [(0.0, 4.0)])
    assert m["cli.self_s"] == 1.0 and m["gbtree.fit.self_s"] == 1.0
    assert m["trace.uncovered_frac"] == 0.5
    assert m["gbtree.fit.self_frac"] == 0.25


def test_speed_is_the_mean_of_probe_speeds():
    # a time scales by the mean of the probe's speeds, not by its median
    # duration, which would jump between the probe's fast and slow modes
    ref = speed.REFERENCE_PROBE_S
    sampler = speed.Sampler()
    sampler.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, ref), (5.0, 4 * ref)]
    assert sampler.speed(0.5, 2.5) == 0.75
    assert sampler.speed(-1.0, 10.0) == (1 + 0.5 + 1 + 0.25) / 4
    assert 0.0 < sampler.speed(3.0, 4.0) < 10.0  # no sample: probed now


def test_tracer_wraps_every_namespace_and_restores_it():
    pp = child.import_perfpred()
    original = pp.pipeline.run_cv
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pp.cli.run_cv is pp.pipeline.run_cv is pp.run_cv is not original
        assert pp.pipeline.fit_gbt is pp.gbtree.fit_gbt is pp.cli.fit_gbt
    finally:
        tracer.uninstall()
    assert pp.cli.run_cv is pp.pipeline.run_cv is pp.run_cv is original


class _OneFile(workloads.Workload):
    name = "one_file"

    def __init__(self, path):
        super().__init__()
        self.path = path

    def artifacts(self, s, lib):
        return {"out.txt": workloads.sha256_file(self.path)}


def test_golden_check_rejects_a_one_byte_change():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.txt")
        with open(path, "wb") as f:
            f.write(b"| task | 1.23 |\n")
        w = _OneFile(path)
        golden = w.artifacts(None, {})

        def failures():
            s = workloads.Session(None, "", "", tmp)
            child.verify(w, s, {}, golden, None, 0, w.artifacts(None, {}))
            return s.failures

        assert failures() == []
        with open(path, "r+b") as f:
            f.seek(9)
            f.write(b"4")
        assert failures() == ["check golden out.txt"]


def test_declared_metrics_and_workloads_match_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    layer_names = set(spans.layer_metrics(spans.Tracer(), [(0.0, 1.0)]))
    layer_names |= {"cli.warm_s", "cli.cache.misses", "cli.cache.hits", "cli.cache.hit_ratio",
                    "cli.bytes_written", "trace.overhead_frac"}
    assert set(run.PER_LAYER) <= layer_names


def test_smoke_runs_all_three_sequences():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
                           "--seed", "0", "--seconds", "1", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == {f"{w}.{m}" for w in run.WORKLOADS for m in run.END_TO_END}


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception:
                failed += 1
                print(f"FAIL {name}\n{traceback.format_exc()}")
    sys.exit(1 if failed else 0)
