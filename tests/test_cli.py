import argparse
import csv
import hashlib
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfpred import cli, gbtree, pipeline, shapley
from perfpred.cli import CV_RESULT_KEYS, build_parser, main
from perfpred.pipeline import CVPlan, run_cv, run_cv_requests
from perfpred.prng import PRNG_ID, CounterRng
from perfpred.registry import ENUM_VOCAB, join_scores, load_registry, load_scores
from perfpred.stats import bh_fdr
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


SCORES_HEADER = "model_id,task_id,shots,metric_kind,value\n"


def write_tasks(root, plans, n_models, seed=4):
    """registry.json and scores.csv in ``root`` with one accuracy task per
    ``(task_id, n_covered)`` of ``plans``; their paths.

    Every task is drawn with the same seed, model count and missing rate, so
    all share one registry; each keeps a seeded subset of ``n_covered``
    models, and each shifts the levels of two architecture features by its
    own amount.
    """
    rows = []
    for k, (task_id, n_covered) in enumerate(plans):
        registry, scores, task, _ = gen_registry(GenSpec(
            n_models=n_models, task_id=task_id, noise_sigma=0.02, missing_rate=0.2,
            level_effects={"positional_embeddings=rope": 0.01 * (k % 2),
                           "attention_variant=gqa": 0.005 * (1 + k)}), seed)
        ids = sorted(s.model_id for s in scores)
        CounterRng(seed, stream=1000 + k).shuffle(ids)
        covered = set(ids[:n_covered])
        rows += [(s.model_id, task_id, task.shots, task.metric_kind, repr(s.value))
                 for s in scores if s.model_id in covered]
    write_registry(registry, root / "registry.json")
    (root / "scores.csv").write_text(SCORES_HEADER + "".join(",".join(map(str, row)) + "\n"
                                                             for row in rows))
    return str(root / "registry.json"), str(root / "scores.csv")


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
# registry texts that are JSON only up to a limit of Python's decoder
INTEGER_TOO_LONG = "[" + "1" * 4301 + "]"
NESTED_TOO_DEEP = "[" * 100000
CELL_TOO_LONG = "1" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("records, row", [
    ([[1, 2]], "m,t,0,accuracy,0.5"),
    ([{**GOOD_RECORD, "arch": [1]}], "m,t,0,accuracy,0.5"),
    ([{**GOOD_RECORD, "gen": "x"}], "m,t,0,accuracy,0.5"),
    ([GOOD_RECORD], "m,t,0,accuracy"),
    (INTEGER_TOO_LONG, "m,t,0,accuracy,0.5"),
    (NESTED_TOO_DEEP, "m,t,0,accuracy,0.5"),
    ([GOOD_RECORD], f"m,t,0,accuracy,{CELL_TOO_LONG}"),
], ids=["record-not-object", "arch-not-object", "gen-not-object", "short-scores-row",
        "integer-too-long", "nested-too-deep", "scores-cell-too-long"])
def test_validate_lists_a_malformed_shape_as_one_violation(tmp_path, capsys, records, row):
    registry, scores = tmp_path / "registry.json", tmp_path / "scores.csv"
    registry.write_text(records if isinstance(records, str) else json.dumps(records))
    scores.write_text(f"model_id,task_id,shots,metric_kind,value\n{row}\n")
    code = main(["validate", "--registry", str(registry), "--scores", str(scores),
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().out.count("VIOLATION") == 1
    assert len(json.loads((tmp_path / "validate.json").read_text())["violations"]) == 1


OUT_OF_RANGE = SCORES_HEADER + "m,t,0,accuracy,2.0\n"


@pytest.mark.parametrize("registry_text, scores_text, violations", [
    (INTEGER_TOO_LONG, OUT_OF_RANGE, ["parse failure: Exceeds the limit (4300 digits) ", "outside"]),
    (NESTED_TOO_DEEP, OUT_OF_RANGE, ["parse failure: maximum recursion depth exceeded ", "outside"]),
    ("[[1, 2]]", f"{SCORES_HEADER}m,t,0,accuracy,{CELL_TOO_LONG}\n",
     ["record 0: must be a JSON object", "scores parse failure: field larger than field limit"]),
    ("[[1, 2]]", f"model_id,{CELL_TOO_LONG}\n",
     ["record 0: must be a JSON object", "scores parse failure: field larger than field limit"]),
], ids=["integer-too-long", "nested-too-deep", "scores-cell-too-long", "scores-header-too-long"])
def test_validate_lists_a_file_that_does_not_parse_beside_the_other_files_violations(
        tmp_path, capsys, registry_text, scores_text, violations):
    registry, scores = tmp_path / "registry.json", tmp_path / "scores.csv"
    registry.write_text(registry_text)
    scores.write_text(scores_text)
    code = main(["validate", "--registry", str(registry), "--scores", str(scores),
                 "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and all(line.startswith("VIOLATION: ") for line in out)
    listed = json.loads((tmp_path / "validate.json").read_text())["violations"]
    assert listed[0].startswith(violations[0]) and violations[1] in listed[1]


def test_validate_joins_every_task_and_lists_its_violations_in_task_order(tmp_path, capsys):
    registry, scores = tmp_path / "registry.json", tmp_path / "scores.csv"
    registry.write_text(json.dumps([GOOD_RECORD]))
    scores.write_text(SCORES_HEADER + "ghost,u,0,accuracy,0.5\nm,u,0,accuracy,0.5\n"
                      "m,t,0,accuracy,0.5\nm,t,0,accuracy,0.6\n")
    code = main(["validate", "--registry", str(registry), "--scores", str(scores),
                 "--out", str(tmp_path)])
    assert code == 1
    violations = ["duplicate score for m/t", "score references unknown model 'ghost'"]
    assert capsys.readouterr().out.splitlines() == [f"VIOLATION: {v}" for v in violations]
    assert json.loads((tmp_path / "validate.json").read_text()) == {"ok": False,
                                                                    "violations": violations}


@pytest.mark.parametrize("argv", [
    ["validate"], ["encode", "--task", "t"], ["fit-scaling", "--task", "t"],
    ["cv", "--task", "t"], ["select", "--task", "t"], ["compare", "--task", "t"],
    ["shap", "--task", "t"], ["bias-audit"], ["report"],
    ["plot-data", "--task", "t", "--kind", "scaling_heatmap"]], ids=lambda argv: argv[0])
def test_every_command_lists_the_violations_of_both_files(tmp_path, capsys, argv):
    registry, scores = tmp_path / "registry.json", tmp_path / "scores.csv"
    registry.write_text("[[1, 2]]")
    scores.write_text(OUT_OF_RANGE)
    code = main([argv[0], "--registry", str(registry), "--scores", str(scores),
                 "--out", str(tmp_path / "out"), *argv[1:]])
    assert code == 1
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert lines == ["VIOLATION: record 0: must be a JSON object, got [1, 2]",
                     "VIOLATION: scores row 0: m/t value 2.0 outside [0.0, 1.0]"]


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


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_an_artifact_and_its_cache_file_take_the_mode_of_the_umask(synth_files, tmp_path,
                                                                   umask):
    # as open(path, "w") would make them, not mkstemp's 0600
    reg, scores = synth_files
    old = os.umask(umask)
    try:
        assert main(["cv", "--registry", reg, "--scores", scores, "--task", "taskA",
                     "--kind", "median", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    (cache_file,) = (tmp_path / "cache").iterdir()
    for path in (tmp_path / "cv-taskA-median-0.json", cache_file):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask, path.name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "cv-taskA-median-0.json"]


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


# every key of a cached CVResult, but a MAE that is not a float
MAE_NOT_A_FLOAT = json.dumps({**dict.fromkeys(sorted(CV_RESULT_KEYS)), "mae": "x"})


@pytest.mark.parametrize("corrupt", ["{not json", "[1, 2]", "\udcff", "{}", '{"mae": "x"}',
                                     pytest.param(MAE_NOT_A_FLOAT, id="every key"),
                                     pytest.param(NESTED_TOO_DEEP, id="nested-too-deep")])
def test_cv_recomputes_corrupt_cache(synth_files, tmp_path, corrupt):
    reg, scores = synth_files
    argv = ["cv", "--registry", reg, "--scores", scores, "--task", "taskA",
            "--kind", "median"]
    assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    (cache_file,) = (out / "cache").iterdir()
    assert json.loads(cache_file.read_text()).keys() == CV_RESULT_KEYS  # what is written
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


def test_the_readme_flag_table_lists_each_subcommands_flags():
    # each row of README's "Subcommand | Further flags" table names, in
    # backticks, exactly the flags the parser gives that subcommand beyond
    # the ones every subcommand takes
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| Subcommand | Further flags |\n|---|---|\n", 1)[1].split("\n\n")[0]
    listed = {}
    for row in table.splitlines():
        name, flags = row.strip("|").split("|", 1)
        if name.strip() != "(by `--kind`)":
            listed[name.strip().strip("`")] = set(re.findall(r"`(--[a-z-]+)`", flags))
    (commands,) = (a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    taken = {name: {flag for action in p._actions for flag in action.option_strings
                    if flag.startswith("--")} - {"--registry", "--scores", "--out", "--help"}
             for name, p in commands.items()}
    assert len(taken) == 10
    assert listed == taken


@pytest.mark.parametrize("argv", [["report"], ["cv", "--task", "t"], ["compare", "--task", "t"],
                                  ["select", "--task", "t"]], ids=lambda argv: argv[0])
def test_a_cv_command_takes_no_worker_count(tmp_path, capsys, argv):
    # a CV command forks one worker per CPU it may run on; there is no flag
    with pytest.raises(SystemExit) as exited:
        main([argv[0], "--registry", "r.json", "--scores", "s.csv", "--out", str(tmp_path),
              *argv[1:], "--jobs", "2"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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
def test_an_empty_feature_list_is_one_empty_name(synth_files, tmp_path, capsys, argv):
    # "" is given, so it is not the default list: it names one empty feature
    reg, scores = synth_files
    code = main([argv[0], "--registry", reg, "--scores", scores, "--out", str(tmp_path),
                 *argv[1:], ""])
    assert code == 1
    assert capsys.readouterr().err == "VIOLATION: unknown feature name: ''\n"
    assert not any(tmp_path.iterdir())


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


# each command's kind-specific flags, with a value, and the kinds that read them
KIND_FLAGS = {
    "cv": (("median", "log_linear", "power_law", "gbt"),
           {"--features": ("total_params", {"gbt"})}),
    "plot-data": (("scaling_heatmap", "shap_beeswarm", "shap_dependence"),
                  {"--features": ("total_params", {"shap_beeswarm", "shap_dependence"}),
                   "--feature": ("pct_code", {"shap_dependence"}),
                   "--seed": ("0", {"shap_beeswarm", "shap_dependence"}),
                   "--grid": ("50", {"scaling_heatmap"})}),
}


@pytest.mark.parametrize("command, kind, flag, value, refused", [
    *(pytest.param(command, kind, flag, value, () if kind in kinds else
                   (f"VIOLATION: {flag} only applies to --kind ", f", not --kind {kind}"),
                   id=f"{command}-{kind}{flag}")
      for command, (all_kinds, flags) in KIND_FLAGS.items() for kind in all_kinds
      for flag, (value, kinds) in flags.items()),
    # a value out of range is refused before any input is read too
    *(pytest.param("plot-data", "scaling_heatmap", "--grid", grid,
                   (f"VIOLATION: --grid must be at least 1, not {grid}\n",),
                   id=f"plot-data-scaling_heatmap--grid{grid}") for grid in ("0", "-3"))])
def test_a_kind_flag_is_checked_before_any_input_is_read(tmp_path, capsys, command, kind, flag,
                                                         value, refused):
    code = main([command, "--registry", str(tmp_path / "absent.json"), "--scores",
                 str(tmp_path / "absent.csv"), "--task", "t", "--out", str(tmp_path / "out"),
                 "--kind", kind, flag, value])
    err = capsys.readouterr().err
    # a required kind flag left out is refused before any input is read too
    unmet = kind == "shap_dependence" and flag != "--feature"
    if not refused and not unmet:  # accepted: the missing registry is then an I/O error
        assert code == 2 and "VIOLATION" not in err
    else:
        assert code == 1
    assert err.count("VIOLATION: ") == bool(refused) + unmet
    assert all(part in err for part in refused)
    assert ("VIOLATION: --kind shap_dependence requires --feature" in err) == unmet
    assert "Traceback" not in err


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_select_without_seeds_fails_and_writes_nothing(synth_files, tmp_path, capsys, seeds):
    reg, scores = synth_files
    code = main(["select", "--registry", reg, "--scores", scores, "--task", "taskA",
                 "--seeds", seeds, "--candidates", "pct_code", "--out", str(tmp_path)])
    assert code == 1
    assert "at least one seed" in capsys.readouterr().err
    assert not (tmp_path / "select-taskA.json").exists()


def test_select_with_a_nan_tolerance_fails_and_writes_nothing(synth_files, tmp_path, capsys):
    reg, scores = synth_files
    code = main(["select", "--registry", reg, "--scores", scores, "--task", "taskA",
                 "--seeds", "1", "--candidates", "pct_code", "--tol", "nan",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "tol must not be NaN" in capsys.readouterr().err
    assert not (tmp_path / "select-taskA.json").exists()


@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize("seeds", ["1", "0"])
def test_a_comparison_with_fewer_than_two_seeds_fails_and_writes_nothing(
        synth_files, tmp_path, capsys, command, seeds):
    reg, scores = synth_files
    task = ["--task", "taskA"] if command == "compare" else []
    code = main([command, "--registry", reg, "--scores", scores, *task, "--seeds", seeds,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("VIOLATION: ") == 1 and "--seeds must be at least 2" in err
    assert not (tmp_path / "out").exists()


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


def test_a_comparison_computes_only_the_seeds_its_cache_misses(tmp_path):
    registry, scores, task, _ = gen_registry(GenSpec(n_models=12, missing_rate=0.2), seed=3)
    write_registry(registry, tmp_path / "registry.json")
    write_scores(scores, task, tmp_path / "scores.csv")
    features = "total_params,total_tokens_billions,pct_code"

    def run(out, *argv):
        with mock.patch("perfpred.cli.run_cv_requests", wraps=run_cv_requests) as computed:
            assert main([*argv, "--registry", str(tmp_path / "registry.json"),
                         "--scores", str(tmp_path / "scores.csv"), "--task", task.task_id,
                         "--features", features, "--out", str(tmp_path / out)]) == 0
        cache = {p.name: p.read_bytes() for p in (tmp_path / out / "cache").iterdir()}
        # each call's (features, seeds) per request
        return [[(fs, seeds) for _, fs, seeds in c.args[0]] for c in computed.call_args_list], \
            cache

    scale = ["total_params", "total_tokens_billions"]
    chosen = features.split(",")
    assert run("warm", "cv", "--seed", "1")[0] == [[(chosen, [1])]]
    calls, warm = run("warm", "compare", "--seeds", "3")
    assert calls == [[(scale, [0, 1, 2]), (chosen, [0, 2])]]
    assert run("cold", "compare", "--seeds", "3") == (
        [[(scale, [0, 1, 2]), (chosen, [0, 1, 2])]], warm)
    assert len(warm) == 6
    assert (tmp_path / "warm" / f"compare-{task.task_id}.json").read_bytes() == \
        (tmp_path / "cold" / f"compare-{task.task_id}.json").read_bytes()

    # a corrupt file is recomputed alone, to the same bytes
    (name,) = [n for n, text in warm.items()
               if (json.loads(text)["seed"], json.loads(text)["feature_names"]) == (2, chosen)]
    (tmp_path / "warm" / "cache" / name).write_text("{not json")
    assert run("warm", "compare", "--seeds", "3") == ([[(chosen, [2])]], warm)


def test_select_writes_its_trace_and_a_rerun_writes_the_same_bytes(tmp_path, capsys):
    registry, scores, task, _ = gen_registry(
        GenSpec(n_models=12, task_id="taskA", missing_rate=0.2), seed=3)
    write_registry(registry, tmp_path / "registry.json")
    write_scores(scores, task, tmp_path / "scores.csv")
    argv = ["select", "--registry", str(tmp_path / "registry.json"), "--scores",
            str(tmp_path / "scores.csv"), "--task", "taskA", "--candidates", "pct_code",
            "--seeds", "1", "--out", str(tmp_path)]
    written = []
    for _ in range(2):
        assert main(argv) == 0
        written.append((tmp_path / "select-taskA.json").read_bytes())
    assert written[0] == written[1]
    trace = json.loads(written[0])
    assert trace["base_features"] == ["total_params", "total_tokens_billions"]
    assert trace["final_features"] == \
        trace["base_features"] + [step["added_feature"] for step in trace["steps"]]
    assert capsys.readouterr().out == f"taskA: selected {trace['final_features']}\n" * 2


def test_plot_data_heatmap_row_count(synth_files, tmp_path):
    reg, scores = synth_files
    code = main(["plot-data", "--registry", reg, "--scores", scores,
                 "--task", "taskA", "--kind", "scaling_heatmap",
                 "--grid", "20", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "heatmap-taskA.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 20 * 20 + 24
    assert sum(1 for l in lines if l.startswith("model,")) == 24


def test_plot_data_dependence_and_errors(synth_files, tmp_path, capsys):
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
    capsys.readouterr()

    # a --feature that is not an encoded column is refused before any fit
    for feature in ("no_such_feature", "pct_code", "positional_embeddings", ""):
        with mock.patch("perfpred.cli.fit_tuned") as fitted:
            code = main(["plot-data", "--registry", reg, "--scores", scores,
                         "--task", "taskA", "--kind", "shap_dependence",
                         "--feature", feature,
                         "--features", "total_params,total_tokens_billions,positional_embeddings",
                         "--out", str(tmp_path)])
        assert code == 1 and not fitted.called
        assert capsys.readouterr().err == f"error: unknown feature: {feature}\n"

    code = main(["plot-data", "--registry", reg, "--scores", scores,
                 "--task", "taskA", "--kind", "shap_dependence",
                 "--out", str(tmp_path)])
    assert code == 1  # --feature is required for dependence data


def test_shap_export(synth_files, tmp_path, monkeypatch):
    reg, scores = synth_files
    explained = []
    monkeypatch.setattr(shapley, "_last", None)
    monkeypatch.setattr(shapley, "_shap_rows",
                        lambda *a, f=shapley._shap_rows: explained.append(1) or f(*a))
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
    assert len(explained) == 1  # the ranking reuses the exported matrix's TreeSHAP pass


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

def test_csv_exports_keep_an_id_with_a_comma_and_quotes_whole(synth_files, tmp_path):
    reg, scores = synth_files
    records = json.loads(open(reg).read())
    old_id, new_id = records[0]["model_id"], 'synth, "000"'
    records[0]["model_id"] = new_id
    (tmp_path / "registry.json").write_text(json.dumps(records))
    with open(scores, newline="") as f:
        rows = [[new_id if cell == old_id else cell for cell in row] for row in csv.reader(f)]
    with open(tmp_path / "scores.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    common = ["--registry", str(tmp_path / "registry.json"), "--scores", str(tmp_path / "scores.csv"),
              "--task", "taskA", "--out", str(tmp_path)]
    assert main(["encode", *common, "--features", "total_params,activation"]) == 0
    assert main(["shap", *common, "--features", "total_params,total_tokens_billions"]) == 0
    for name, width in (("features-taskA.csv", 6), ("shap-taskA.csv", 4)):
        with open(tmp_path / name, newline="") as f:
            rows = list(csv.reader(f))
        assert {len(row) for row in rows} == {width}, name
        assert new_id in {row[0] for row in rows[1:]}, name


def test_a_missing_beeswarm_value_is_an_empty_cell(tmp_path):
    spec = GenSpec(n_models=24, task_id="taskA", missing_rate=0.3, noise_sigma=0.01)
    registry, scores, task, _ = gen_registry(spec, seed=12)
    write_registry(registry, tmp_path / "registry.json")
    write_scores(scores, task, tmp_path / "scores.csv")
    assert main(["plot-data", "--registry", str(tmp_path / "registry.json"),
                 "--scores", str(tmp_path / "scores.csv"), "--task", "taskA",
                 "--out", str(tmp_path), "--kind", "shap_beeswarm",
                 "--features", "activation,pct_code"]) == 0
    with open(tmp_path / "beeswarm-taskA.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    missing = {row["feature"] for row in rows if row["feature_value"] == ""}
    assert missing == {"activation", "pct_code"}  # a level and a number, each missing somewhere
    assert not {"None", "nan"} & {row["feature_value"] for row in rows}


def test_validate_lists_a_file_that_is_not_utf8_beside_the_other_files_violations(tmp_path,
                                                                                  capsys):
    registry, scores = tmp_path / "registry.json", tmp_path / "scores.csv"
    registry.write_bytes(b"\xff" + json.dumps([GOOD_RECORD]).encode())
    scores.write_text("model_id,task_id,shots,metric_kind,value\nm,t,0,accuracy,2.0\n")
    code = main(["validate", "--registry", str(registry), "--scores", str(scores),
                 "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and all(line.startswith("VIOLATION: ") for line in out)
    violations = json.loads((tmp_path / "validate.json").read_text())["violations"]
    assert violations[0].startswith("registry file is not UTF-8 text: ")
    assert "outside" in violations[1]


def test_bias_audit_runs(tmp_path, capsys):
    reg, scores = write_tasks(tmp_path, [("acc0", 24), ("acc1", 20), ("acc2", 16)], 24)
    code = main(["bias-audit", "--registry", reg, "--scores", scores,
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "bias-audit.json").read_text())
    assert payload, "no (feature, level) pair audited"
    assert capsys.readouterr().out == \
        f"audited {len(payload)} (feature, level) pairs over 3 accuracy tasks\n"
    assert len((tmp_path / "bias-audit.md").read_text().splitlines()) == 2 + len(payload)
    for row in payload:
        assert row["level"] in ENUM_VOCAB[row["feature"]]
        assert row["weight_policy"] == "n_items_binomial_or_uniform"
        assert row["method_chosen"] in ("PET", "PEESE")
        assert row["k"] == 3 and row["ci95"][0] <= row["intercept"] <= row["ci95"][1]


def test_report_marks_a_task_with_too_few_models_unavailable(tmp_path):
    # the outer CV needs at least 9 models; the BH adjustment covers the
    # tasks that have a p-value, and no other. Every miss of the other tasks
    # is computed once, in one call, and the comparisons then hit the cache
    reg, scores = write_tasks(tmp_path, [("acc0", 14), ("acc1", 12), ("tiny", 8)], 14)
    chosen = ["total_params", "total_tokens_billions", "pct_code"]
    common = ["--registry", reg, "--scores", scores, "--seeds", "2", "--out", str(tmp_path),
              "--features", ",".join(chosen)]
    with mock.patch("perfpred.cli.run_cv_requests", wraps=run_cv_requests) as computed:
        assert main(["report", *common]) == 0
    assert [[(d.task.task_id, fs, seeds) for d, fs, seeds in c.args[0]]
            for c in computed.call_args_list] == \
        [[(t, fs, [0, 1]) for t in ("acc0", "acc1") for fs in (chosen[:2], chosen)]]
    assert len(os.listdir(tmp_path / "cache")) == 8
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in (tmp_path / "report.md").read_text().splitlines()[2:]]
    assert [row[0] for row in rows] == ["acc0", "acc1", "tiny"]
    assert rows[2] == ["tiny", "unavailable (too few rows for the outer fold count)",
                       "", "", "", ""]
    pvals = []
    for task in ("acc0", "acc1"):  # the same cached CVs, so the same p-values
        with mock.patch("perfpred.cli.run_cv_requests") as computed:
            assert main(["compare", *common, "--task", task]) == 0
        assert not computed.called
        pvals.append(json.loads((tmp_path / f"compare-{task}.json").read_text())
                     ["paired_t"]["p_two_sided"])
    assert [row[5] for row in rows[:2]] == [f"{p:.3g}" for p in bh_fdr(pvals)[1]]


def test_a_report_whose_gbt_cv_raises_on_one_task_reports_that_task_unavailable(tmp_path):
    # pct_code is missing for every model of "few" alone, so its GBT CV over
    # pct_code raises: that request fails alone, in the one call shared by
    # both tasks, and every other request's files are written
    reg, scores = write_tasks(tmp_path, [("acc0", 24), ("few", 10)], 24)
    few = {row[0] for row in csv.reader(pathlib.Path(scores).read_text().splitlines())
           if row[1] == "few"}
    records = json.loads((tmp_path / "registry.json").read_text())
    for record in records:
        if record["model_id"] in few:
            record["data"].pop("pct_code", None)
    (tmp_path / "registry.json").write_text(json.dumps(records))
    common = ["--registry", reg, "--scores", scores, "--seeds", "2", "--out", str(tmp_path),
              "--features", "pct_code"]
    scale = ["total_params", "total_tokens_billions"]
    reports = []
    for computes in ([(t, fs, [0, 1]) for t in ("acc0", "few") for fs in (scale, ["pct_code"])],
                     [("few", ["pct_code"], [0, 1])]):  # cold, then warm
        with mock.patch("perfpred.cli.run_cv_requests", wraps=run_cv_requests) as computed:
            assert main(["report", *common]) == 0
        assert [[(d.task.task_id, fs, seeds) for d, fs, seeds in c.args[0]]
                for c in computed.call_args_list] == [computes]
        assert len(os.listdir(tmp_path / "cache")) == 6
        reports.append((tmp_path / "report.md").read_bytes())
    assert reports[0] == reports[1]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in reports[0].decode().splitlines()[2:]]
    assert rows[1] == ["few", "unavailable (all feature values missing)", "", "", "", ""]
    assert main(["compare", *common, "--task", "acc0"]) == 0
    compared = json.loads((tmp_path / "compare-acc0.json").read_text())
    assert rows[0][3:] == [f"{100 * m['mean']:.2f} ± {100 * m['ci95_halfwidth']:.2f}"
                           for m in (compared["scaling_mae"], compared["all_features_mae"])] + \
        [f"{compared['paired_t']['p_two_sided']:.3g}"]  # one p-value: BH leaves it


def test_a_report_of_the_scale_features_computes_each_file_once(tmp_path):
    # --features naming the two scale features gives both requests of a task
    # the same cache paths: one request computes them, both read them
    reg, scores = write_tasks(tmp_path, [("acc0", 12), ("acc1", 10)], 12)
    scale = ["total_params", "total_tokens_billions"]
    with mock.patch("perfpred.cli.run_cv_requests", wraps=run_cv_requests) as computed:
        assert main(["report", "--registry", reg, "--scores", scores, "--seeds", "2",
                     "--out", str(tmp_path), "--features", ",".join(scale)]) == 0
    assert [[(d.task.task_id, fs, seeds) for d, fs, seeds in c.args[0]]
            for c in computed.call_args_list] == [[("acc0", scale, [0, 1]),
                                                    ("acc1", scale, [0, 1])]]
    assert len(os.listdir(tmp_path / "cache")) == 4
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in (tmp_path / "report.md").read_text().splitlines()[2:]]
    assert [row[0] for row in rows] == ["acc0", "acc1"]
    for row in rows:
        assert row[3] == row[4]


def test_a_command_opens_each_input_file_once(tmp_path):
    # one read loads each file; each cache file's name keeps the formula
    # sha256(each part as JSON, 0) over what its CV reads of the joined task,
    # here stated from the files' own text
    reg, scores = write_tasks(tmp_path, [("acc0", 12), ("acc1", 10)], 12)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(os.path.abspath(file) if isinstance(file, str) else file)
        return real_open(file, *args, **kwargs)

    with mock.patch("builtins.open", counting_open):
        assert main(["report", "--registry", reg, "--scores", scores, "--seeds", "2",
                     "--out", str(tmp_path / "out"),
                     "--features", "total_params,total_tokens_billions,pct_code"]) == 0
    assert (opened.count(reg), opened.count(scores)) == (1, 1)
    rows = sorted(row for row in csv.reader(pathlib.Path(scores).read_text().splitlines()[1:])
                  if row[1] == "acc1")
    records = {r["model_id"]: r for r in json.loads(pathlib.Path(reg).read_text())}
    scale = ["total_params", "total_tokens_billions"]
    task = {"task_id": "acc1", "shots": int(rows[0][2]), "metric_kind": "accuracy",
            "polarity": "higher_better", "n_items": None}
    h = hashlib.sha256()
    for part in (cli.NUMERICS_VERSION, PRNG_ID, task, [row[0] for row in rows],
                 [float(row[4]) for row in rows],
                 [[float(records[row[0]]["arch"]["total_params"]),
                   float(records[row[0]]["data"]["total_tokens_billions"])] for row in rows],
                 scale, "gbt", 1, [vars(g) for g in gbtree.paper_grid()], 3, 3):
        h.update(json.dumps(part, sort_keys=True).encode() + b"\x00")
    name = f"cv-{h.hexdigest()[:16]}.json"
    assert json.loads((tmp_path / "out" / "cache" / name).read_text())["seed"] == 1


def test_a_bumped_numerics_version_misses_a_cache_file_written_before_it(synth_files, tmp_path,
                                                                         monkeypatch):
    reg, scores = synth_files
    argv = ["cv", "--registry", reg, "--scores", scores, "--task", "taskA", "--kind", "median",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    (before,) = (tmp_path / "cache").iterdir()
    monkeypatch.setattr(cli, "NUMERICS_VERSION", cli.NUMERICS_VERSION + 1)
    with mock.patch("perfpred.cli.run_cv_requests", wraps=run_cv_requests) as computed:
        assert main(argv) == 0
    assert computed.call_count == 1
    after = set((tmp_path / "cache").iterdir()) - {before}
    assert len(after) == 1 and after.pop().read_bytes() == before.read_bytes()


@pytest.mark.parametrize("kind", ["gbt", "power_law"])
def test_a_cv_hits_its_cache_after_an_edit_it_does_not_read(tmp_path, kind):
    # a score row of another task and a feature that no CV reads leave every
    # key as it was; a value that the CV reads moves its key
    reg, scores = write_tasks(tmp_path, [("acc0", 12), ("acc1", 10)], 12)
    argv = ["cv", "--registry", reg, "--scores", scores, "--task", "acc0", "--kind", kind,
            "--out", str(tmp_path / "out")]
    if kind == "gbt":
        argv += ["--features", "total_params,total_tokens_billions,pct_code"]
    assert main(argv) == 0
    cache = sorted(os.listdir(tmp_path / "out" / "cache"))
    rows = list(csv.reader(pathlib.Path(scores).read_text().splitlines()[1:]))
    records = json.loads(pathlib.Path(reg).read_text())
    acc1 = [row for row in rows if row[1] == "acc1"]
    uncovered = sorted({r["model_id"] for r in records} - {row[0] for row in acc1})[0]
    with open(scores, "a") as f:
        f.write(",".join([uncovered, *acc1[0][1:4], "0.5"]) + "\n")
    records[0]["gen"]["entropy_mean"] = 1.25
    pathlib.Path(reg).write_text(json.dumps(records))

    def computed():
        with mock.patch("perfpred.cli.run_cv_requests", wraps=run_cv_requests) as calls:
            assert main(argv) == 0
        return calls.call_count

    assert computed() == 0
    assert sorted(os.listdir(tmp_path / "out" / "cache")) == cache
    acc0 = {row[0] for row in rows if row[1] == "acc0"}
    next(r for r in records if r["model_id"] in acc0)["arch"]["total_params"] *= 2
    pathlib.Path(reg).write_text(json.dumps(records))
    assert computed() == 1
    assert len(os.listdir(tmp_path / "out" / "cache")) == 2


# every command that reads a task's rows, each writing its artifacts under --out
PERMUTED_COMMANDS = [
    *(["cv", "--task", "acc0", "--kind", kind] for kind in ("median", "log_linear", "power_law")),
    ["cv", "--task", "acc0", "--features",
     "total_params,total_tokens_billions,pct_code,positional_embeddings"],
    ["fit-scaling", "--task", "acc1"],
    ["report", "--seeds", "2", "--features", "total_params,total_tokens_billions,pct_code"],
    ["bias-audit"],
]


def run_permuted_commands(root):
    """Run each of ``PERMUTED_COMMANDS`` on the inputs in ``root``: the
    artifacts and the cache files written, each name -> bytes."""
    out = root / "out"
    for argv in PERMUTED_COMMANDS:
        assert main([*argv, "--registry", str(root / "registry.json"),
                     "--scores", str(root / "scores.csv"), "--out", str(out)]) == 0
    return ({p.name: p.read_bytes() for p in out.iterdir() if p.is_file()},
            {p.name: p.read_bytes() for p in (out / "cache").iterdir()})


@pytest.fixture(scope="module")
def id_ordered_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("id_ordered")
    write_tasks(root, [("acc0", 12), ("acc1", 11), ("acc2", 10)], 12)
    return root, run_permuted_commands(root)


def shuffled_keys(rnd, obj):
    """``obj`` with the keys of each JSON object in it in an order drawn by ``rnd``."""
    if not isinstance(obj, dict):
        return obj
    keys = list(obj)
    rnd.shuffle(keys)
    return {k: shuffled_keys(rnd, obj[k]) for k in keys}


@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_permuted_input_files_write_the_same_artifacts_and_cache_files(id_ordered_run, rnd):
    # records, score rows and each record's keys in any order: the same
    # bytes, and a second run hits every cache file
    root, written = id_ordered_run
    records = [shuffled_keys(rnd, r) for r in json.loads((root / "registry.json").read_text())]
    rnd.shuffle(records)
    header, *rows = (root / "scores.csv").read_text().splitlines(keepends=True)
    rnd.shuffle(rows)
    with tempfile.TemporaryDirectory() as tmp:
        permuted = pathlib.Path(tmp)
        (permuted / "registry.json").write_text(json.dumps(records))
        (permuted / "scores.csv").write_text(header + "".join(rows))
        assert run_permuted_commands(permuted) == written
        with mock.patch("perfpred.cli.run_cv_requests") as computed:
            assert run_permuted_commands(permuted) == written
        assert not computed.called


def test_a_bias_audit_without_accuracy_tasks_lists_a_violation(tmp_path, capsys):
    registry, scores, task, _ = gen_registry(GenSpec(n_models=12, metric_kind="brier"), seed=0)
    write_registry(registry, tmp_path / "registry.json")
    write_scores(scores, task, tmp_path / "scores.csv")
    assert main(["bias-audit", "--registry", str(tmp_path / "registry.json"),
                 "--scores", str(tmp_path / "scores.csv"), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "VIOLATION: no accuracy tasks available\n")
    assert not (tmp_path / "out").exists()


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


def test_the_benchmark_tracer_wraps_every_traced_name_and_the_one_fit_gbt(monkeypatch):
    # perfbench/run.py --trace 1 wraps each name of spans.TRACED wherever
    # perfpred holds it, so every one must resolve; its fit counters read
    # the one fit_gbt that the CLI and the pipeline call
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    spans = importlib.import_module("spans")
    original = gbtree.fit_gbt
    assert cli.fit_gbt is pipeline.fit_gbt is original
    tracer = spans.Tracer()
    try:
        tracer.install()
        for module, attr, _ in spans.TRACED:
            owner = sys.modules[module]
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), (module, attr)
        assert cli.fit_gbt is pipeline.fit_gbt is gbtree.fit_gbt is not original
    finally:
        tracer.uninstall()
    assert cli.fit_gbt is pipeline.fit_gbt is gbtree.fit_gbt is original
