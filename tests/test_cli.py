import json
import os
import subprocess
import sys

import numpy as np
import pytest

from perfpred import shapley
from perfpred.cli import build_parser, main
from perfpred.pipeline import CVPlan, run_cv
from perfpred.registry import join_scores, load_registry, load_scores
from perfpred.synthdata import GenSpec, gen_registry, write_registry, write_scores


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthio")
    spec = GenSpec(n_models=24, task_id="taskA", missing_rate=0.15,
                   noise_sigma=0.01, feature_effects={"pct_code": 0.003})
    registry, scores, task, _ = gen_registry(spec, seed=12)
    reg_path = root / "registry.json"
    scores_path = root / "scores.csv"
    write_registry(registry, reg_path)
    write_scores(scores, task, scores_path)
    return str(reg_path), str(scores_path)


def test_validate_ok(synth_files, tmp_path, capsys):
    reg, scores = synth_files
    code = main(["validate", "--registry", reg, "--scores", scores,
                 "--out", str(tmp_path)])
    assert code == 0
    assert "no violations" in capsys.readouterr().out
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["ok"] is True and report["violations"] == []


def test_validate_reports_all_violations(synth_files, tmp_path, capsys):
    _, scores = synth_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([
        {"model_id": "x", "arch": {"activation": "tanh"},
         "data": {"total_tokens_billions": 100.0}},
        {"model_id": "y", "arch": {"total_params": 1e9}, "data": {}},
    ]))
    code = main(["validate", "--registry", str(bad), "--scores", scores,
                 "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("VIOLATION") >= 3  # both records broken, every problem listed
    report = json.loads((tmp_path / "validate.json").read_text())
    assert not report["ok"] and len(report["violations"]) >= 3


def test_validate_lists_parse_failure_and_score_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[{")
    scores = tmp_path / "scores.csv"
    scores.write_text("model_id,task_id,shots,metric_kind,value\nm,t,0,accuracy,2.0\n")
    code = main(["validate", "--registry", str(bad), "--scores", str(scores),
                 "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "validate.json").read_text())
    assert len(report["violations"]) == 2
    assert report["violations"][0].startswith("parse failure:")
    assert "outside" in report["violations"][1]


GOOD_RECORD = {"model_id": "m", "arch": {"total_params": 1e9},
               "data": {"total_tokens_billions": 10.0}}


@pytest.mark.parametrize("records, row", [
    ([[1, 2]], "m,t,0,accuracy,0.5"),
    ([{**GOOD_RECORD, "arch": [1]}], "m,t,0,accuracy,0.5"),
    ([{**GOOD_RECORD, "gen": "x"}], "m,t,0,accuracy,0.5"),
    ([GOOD_RECORD], "m,t,0,accuracy"),
], ids=["record-not-object", "arch-not-object", "gen-not-object", "short-scores-row"])
def test_validate_lists_a_malformed_shape_as_one_violation(tmp_path, capsys, records, row):
    registry, scores = tmp_path / "registry.json", tmp_path / "scores.csv"
    registry.write_text(json.dumps(records))
    scores.write_text(f"model_id,task_id,shots,metric_kind,value\n{row}\n")
    code = main(["validate", "--registry", str(registry), "--scores", str(scores),
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().out.count("VIOLATION") == 1
    assert len(json.loads((tmp_path / "validate.json").read_text())["violations"]) == 1


def test_missing_file_is_io_error(tmp_path):
    code = main(["validate", "--registry", str(tmp_path / "absent.json"),
                 "--scores", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
    assert code == 2


def test_unknown_task_is_failure(synth_files, tmp_path):
    reg, scores = synth_files
    code = main(["encode", "--registry", reg, "--scores", scores,
                 "--task", "nope", "--out", str(tmp_path)])
    assert code == 1


def test_encode_writes_matrix(synth_files, tmp_path):
    reg, scores = synth_files
    code = main(["encode", "--registry", reg, "--scores", scores,
                 "--task", "taskA", "--out", str(tmp_path),
                 "--features", "total_params,activation,pct_code"])
    assert code == 0
    lines = (tmp_path / "features-taskA.csv").read_text().strip().split("\n")
    assert len(lines) == 25  # header + 24 models
    header = lines[0].split(",")
    assert header[0] == "model_id"
    assert "total_params[A]" in header and "activation=gelu[A]" in header
    assert "pct_code[D]" in header


def test_fit_scaling_writes_parameters(synth_files, tmp_path):
    reg, scores = synth_files
    code = main(["fit-scaling", "--registry", reg, "--scores", scores,
                 "--task", "taskA", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "scaling-taskA.json").read_text())
    assert payload["n_models"] == 24
    assert set(payload["power_law"]) == {"Nc", "Dc", "alphaN", "alphaD", "r_squared"}
    assert payload["power_law"]["Nc"] > 0


def test_cv_differential_against_api(synth_files, tmp_path):
    reg, scores_path = synth_files
    code = main(["cv", "--registry", reg, "--scores", scores_path,
                 "--task", "taskA", "--kind", "median", "--seed", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "cv-taskA-median-3.json").read_text())

    registry = load_registry(reg)
    score_rows, tasks = load_scores(scores_path)
    ds = join_scores(registry, score_rows, tasks["taskA"])
    want = run_cv(ds, [], "median", CVPlan(seed=3)).to_dict()
    assert payload == want


def test_cv_output_byte_identical_across_runs(synth_files, tmp_path):
    reg, scores = synth_files
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        code = main(["cv", "--registry", reg, "--scores", scores,
                     "--task", "taskA", "--kind", "log_linear",
                     "--out", str(out)])
        assert code == 0
        outputs.append((out / "cv-taskA-log_linear-0.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_cv_cache_keeps_feature_orders_apart(tmp_path):
    # a fit depends on its column order, so one order's cached result must not
    # answer a request in another order
    registry, scores, task, _ = gen_registry(GenSpec(n_models=15, missing_rate=0.2), seed=0)
    write_registry(registry, tmp_path / "registry.json")
    write_scores(scores, task, tmp_path / "scores.csv")
    names = ["entropy_mean", "pct_code", "total_tokens_billions", "total_params"]

    def cv(out, order):
        assert main(["cv", "--registry", str(tmp_path / "registry.json"),
                     "--scores", str(tmp_path / "scores.csv"), "--task", task.task_id,
                     "--features", ",".join(order), "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / f"cv-{task.task_id}-gbt-0.json").read_bytes()

    cv("shared", names[::-1])
    assert cv("shared", names) == cv("alone", names)
    assert len(os.listdir(tmp_path / "shared" / "cache")) == 2


def test_cv_reuses_cache(synth_files, tmp_path):
    reg, scores = synth_files
    for _ in range(2):
        assert main(["cv", "--registry", reg, "--scores", scores,
                     "--task", "taskA", "--kind", "median",
                     "--out", str(tmp_path)]) == 0
    cache_files = os.listdir(tmp_path / "cache")
    assert len(cache_files) == 1


@pytest.mark.parametrize("corrupt", ["{not json", "[1, 2]", "\udcff"])
def test_cv_recomputes_corrupt_cache(synth_files, tmp_path, corrupt):
    reg, scores = synth_files
    argv = ["cv", "--registry", reg, "--scores", scores, "--task", "taskA",
            "--kind", "median"]
    assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    (cache_file,) = (out / "cache").iterdir()
    cache_file.write_bytes(corrupt.encode("utf-8", "surrogateescape"))
    assert main(argv + ["--out", str(out)]) == 0
    assert list((out / "cache").iterdir()) == [cache_file]
    clean = tmp_path / "clean"
    assert (out / "cv-taskA-median-0.json").read_bytes() == \
        (clean / "cv-taskA-median-0.json").read_bytes()
    assert cache_file.read_bytes() == next((clean / "cache").iterdir()).read_bytes()


def test_parser_takes_only_flags_a_subcommand_uses():
    parser = build_parser()
    io = ["--registry", "r.json", "--scores", "s.csv"]
    task = ["--task", "t"]
    for argv in (["compare", *io, *task, "--seed", "3"], ["validate", *io, "--jobs", "2"],
                 ["fit-scaling", *io, *task, "--seeds", "2"], ["report", *io, "--seed", "1"],
                 ["select", *io, *task, "--seed", "1"],
                 # --task is required wherever it is taken
                 ["encode", *io], ["fit-scaling", *io], ["cv", *io, "--kind", "median"],
                 ["select", *io], ["compare", *io], ["shap", *io],
                 ["plot-data", *io, "--kind", "scaling_heatmap"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
    # the flag combinations the benchmark runs
    assert parser.parse_args(["cv", *io, "--task", "t", "--kind", "gbt", "--seed", "0",
                              "--features", "a,b"]).seed == 0
    assert parser.parse_args(["report", *io, "--seeds", "2", "--features", "a,b"]).seeds == 2
    parser.parse_args(["fit-scaling", *io, "--task", "t", "--out", "o"])
    parser.parse_args(["bias-audit", *io])
    assert parser.parse_args(["select", *io, "--task", "t", "--seeds", "3"]).seeds == 3


# every subcommand that reads a feature list, ending in the flag that takes it
FEATURE_LIST_ARGVS = [
    ["encode", "--task", "taskA", "--features"],
    ["cv", "--task", "taskA", "--features"],
    ["select", "--task", "taskA", "--candidates"],
    ["compare", "--task", "taskA", "--features"],
    ["shap", "--task", "taskA", "--features"],
    ["report", "--features"],
    ["plot-data", "--task", "taskA", "--kind", "shap_beeswarm", "--features"],
    ["plot-data", "--task", "taskA", "--kind", "shap_dependence", "--feature", "pct_code",
     "--features"],
]


def argv_id(argv):
    return "-".join(a for a in argv if not a.startswith("-") and a != "taskA")


@pytest.mark.parametrize("argv", FEATURE_LIST_ARGVS, ids=argv_id)
def test_unknown_feature_names_are_all_reported(synth_files, tmp_path, capsys, argv):
    reg, scores = synth_files
    code = main([argv[0], "--registry", reg, "--scores", scores, "--out", str(tmp_path),
                 *argv[1:], "pct_code,bogus, ,total_params,nope"])
    assert code == 1
    err = capsys.readouterr().err
    for bad in ("'bogus'", "''", "'nope'"):
        assert f"VIOLATION: unknown feature name: {bad}" in err
    assert "pct_code" not in err and "Traceback" not in err
    assert not (tmp_path / "cache").exists()



@pytest.mark.parametrize("argv", FEATURE_LIST_ARGVS, ids=argv_id)
def test_repeated_feature_names_are_all_reported(synth_files, tmp_path, capsys, argv):
    reg, scores = synth_files
    code = main([argv[0], "--registry", reg, "--scores", scores, "--out", str(tmp_path),
                 *argv[1:], "total_params,pct_code,total_params,bogus,pct_code,total_params"])
    assert code == 1
    violations = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("VIOLATION: ")]
    assert sorted(violations) == ["VIOLATION: repeated feature name: 'pct_code'",
                                  "VIOLATION: repeated feature name: 'total_params'",
                                  "VIOLATION: unknown feature name: 'bogus'"]
    assert not (tmp_path / "cache").exists()


def unread(argv, flag="--features", value="total_params"):
    name = argv_id(argv) if flag == "--features" else f"{argv_id(argv)}{flag}"
    return pytest.param(argv, [flag, value], id=name)


@pytest.mark.parametrize("argv, given", [
    unread(["cv", "--kind", "median"]),
    unread(["cv", "--kind", "log_linear"]),
    unread(["cv", "--kind", "power_law"]),
    unread(["plot-data", "--kind", "scaling_heatmap"]),
    unread(["plot-data", "--kind", "scaling_heatmap"], "--feature", "pct_code"),
    unread(["plot-data", "--kind", "shap_beeswarm"], "--feature", "pct_code"),
    unread(["plot-data", "--kind", "scaling_heatmap"], "--seed", "0"),
    unread(["plot-data", "--kind", "shap_beeswarm"], "--grid", "50"),
    unread(["plot-data", "--kind", "shap_dependence", "--feature", "pct_code"], "--grid", "7"),
])
def test_features_is_refused_where_the_kind_reads_no_features(synth_files, tmp_path, capsys,
                                                              argv, given):
    # named for --features; every kind-specific flag the --kind does not read
    # is refused the same way, even when it is given its default value
    reg, scores = synth_files
    code = main([argv[0], "--registry", reg, "--scores", scores, "--task", "taskA",
                 "--out", str(tmp_path), *argv[1:], *given])
    assert code == 1
    err = capsys.readouterr().err
    assert f"VIOLATION: {given[0]} only applies to " in err
    assert f"not --kind {argv[2]}" in err
    assert "Traceback" not in err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_select_without_seeds_fails_and_writes_nothing(synth_files, tmp_path, capsys, seeds):
    reg, scores = synth_files
    code = main(["select", "--registry", reg, "--scores", scores, "--task", "taskA",
                 "--seeds", seeds, "--candidates", "pct_code", "--out", str(tmp_path)])
    assert code == 1
    assert "at least one seed" in capsys.readouterr().err
    assert not (tmp_path / "select-taskA.json").exists()


def test_compare_small_run(synth_files, tmp_path):
    reg, scores = synth_files
    code = main(["compare", "--registry", reg, "--scores", scores,
                 "--task", "taskA", "--seeds", "2", "--out", str(tmp_path),
                 "--features", "total_params,total_tokens_billions,pct_code"])
    assert code == 0
    payload = json.loads((tmp_path / "compare-taskA.json").read_text())
    assert payload["seeds"] == [0, 1]
    assert len(payload["scaling_mae"]["per_seed"]) == 2
    assert payload["paired_t"]["df"] == 1


def test_plot_data_heatmap_row_count(synth_files, tmp_path):
    reg, scores = synth_files
    code = main(["plot-data", "--registry", reg, "--scores", scores,
                 "--task", "taskA", "--kind", "scaling_heatmap",
                 "--grid", "20", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "heatmap-taskA.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 20 * 20 + 24
    assert sum(1 for l in lines if l.startswith("model,")) == 24


def test_plot_data_dependence_and_errors(synth_files, tmp_path):
    reg, scores = synth_files
    code = main(["plot-data", "--registry", reg, "--scores", scores,
                 "--task", "taskA", "--kind", "shap_dependence",
                 "--feature", "pct_code",
                 "--features", "total_params,total_tokens_billions,pct_code",
                 "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "dependence-taskA-pct_code.csv").read_text()
    assert text.startswith("# missing_rows=")

    code = main(["plot-data", "--registry", reg, "--scores", scores,
                 "--task", "taskA", "--kind", "shap_dependence",
                 "--feature", "no_such_feature",
                 "--features", "total_params,total_tokens_billions",
                 "--out", str(tmp_path)])
    assert code == 1

    code = main(["plot-data", "--registry", reg, "--scores", scores,
                 "--task", "taskA", "--kind", "shap_dependence",
                 "--out", str(tmp_path)])
    assert code == 1  # --feature is required for dependence data


def test_shap_export(synth_files, tmp_path, monkeypatch):
    reg, scores = synth_files
    explained = []
    monkeypatch.setattr(shapley, "shap_matrix",
                        lambda *a, f=shapley.shap_matrix: explained.append(1) or f(*a))
    code = main(["shap", "--registry", reg, "--scores", scores,
                 "--task", "taskA", "--out", str(tmp_path),
                 "--features", "total_params,total_tokens_billions,activation"])
    assert code == 0
    matrix = (tmp_path / "shap-taskA.csv").read_text().strip().split("\n")
    # 24 models x (2 numeric + 4 activation levels) + header
    assert len(matrix) == 1 + 24 * 6
    ranking = (tmp_path / "shap-ranking-taskA.csv").read_text().strip().split("\n")
    assert ranking[0] == "feature,mean_abs_phi"
    assert len(ranking) == 4  # aggregated: two scale features + activation
    assert len(explained) == 1  # the ranking reuses the exported matrix


def test_csv_exports_hold_plain_numbers(synth_files, tmp_path):
    # numpy scalars print as np.float64(...), which no CSV reader parses
    reg, scores = synth_files
    common = ["--registry", reg, "--scores", scores, "--task", "taskA", "--out", str(tmp_path)]
    assert main(["shap", *common, "--features", "total_params,total_tokens_billions"]) == 0
    assert main(["plot-data", *common, "--kind", "scaling_heatmap", "--grid", "5"]) == 0
    shap_rows = (tmp_path / "shap-taskA.csv").read_text().splitlines()[1:]
    heatmap_rows = (tmp_path / "heatmap-taskA.csv").read_text().splitlines()[1:]
    assert len(shap_rows) == 24 * 2 and len(heatmap_rows) == 5 * 5 + 24
    for row in shap_rows:  # model_id, feature, feature_value (empty if missing), phi
        value, phi = row.split(",")[2:]
        for cell in [phi] + ([value] if value else []):
            float(cell)
    for row in heatmap_rows:  # kind, N, D, value
        for cell in row.split(",")[1:]:
            float(cell)

def test_bias_audit_runs(synth_files, tmp_path):
    reg, scores = synth_files
    code = main(["bias-audit", "--registry", reg, "--scores", scores,
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "bias-audit.md").exists()
    payload = json.loads((tmp_path / "bias-audit.json").read_text())
    for row in payload:
        assert row["weight_policy"] == "n_items_binomial_or_uniform"
        assert row["method_chosen"] in ("PET", "PEESE")


def test_report_single_task(synth_files, tmp_path):
    reg, scores = synth_files
    code = main(["report", "--registry", reg, "--scores", scores,
                 "--seeds", "2", "--out", str(tmp_path),
                 "--features", "total_params,total_tokens_billions,pct_code"])
    assert code == 0
    text = (tmp_path / "report.md").read_text()
    assert "taskA" in text
    assert "Scaling Laws MAE" in text


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.2 s and 20 MB at start-up; perfpred takes its
    # t quantiles from scipy.special
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, perfpred.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
