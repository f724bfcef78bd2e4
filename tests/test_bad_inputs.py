"""Property sweep over malformed inputs: bad input of any shape is a listed
violation (exit 1), never a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

import pytest

from perfpred.cli import build_parser, main
from perfpred.registry import ENUM_VOCAB, SCHEMA, RegistryError, load_registry
from perfpred.synthdata import GenSpec, gen_registry, write_registry, write_scores

# the examples share one tmp_path: each overwrites the files it reads
SWEEP = settings(max_examples=60, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

# JSON junk: NaN and Infinity literals, negatives, integers beyond the float range
JUNK = st.one_of(
    st.booleans(), st.none(), st.text(max_size=6), st.lists(st.integers(), max_size=2),
    st.floats(), st.floats(-1e3, -1e-3), st.sampled_from([0, -1, 10 ** 400, -(10 ** 400)]),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))

# a value of some documented kind, or junk
VALUE = st.one_of(st.sampled_from([level for levels in ENUM_VOCAB.values() for level in levels]),
                  st.floats(0.0, 100.0), st.floats(1.0, 1e12), JUNK)


def _mostly(strategy, other=JUNK):
    """``strategy`` seven times in eight, else ``other``."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 7 else strategy)


def _section(section):
    known = st.tuples(st.sampled_from(sorted(SCHEMA[section])), VALUE)
    unknown = st.tuples(st.text(max_size=8), JUNK)
    return _mostly(st.lists(st.one_of(known, unknown), max_size=6).map(dict))


# "m\n2": an id with a line break must still print as one violation line
RECORD = st.fixed_dictionaries(
    {"model_id": _mostly(st.sampled_from(["m0", "m1", "m\n2"]), st.one_of(st.text(max_size=6), JUNK)),
     "arch": _section("arch"), "data": _section("data"), "gen": _section("gen")},
    optional={"organization": JUNK})
REGISTRY_TEXT = _mostly(st.lists(_mostly(RECORD), min_size=1, max_size=4).map(json.dumps),
                        st.one_of(JUNK.map(json.dumps), st.text(max_size=20)))

CELL = st.one_of(st.sampled_from(["m0", "t", "0", "5", "accuracy", "brier", "0.5", "1.5", "nan",
                                  "-1", "", '"', "inf", "t\x0b2"]),
                 st.text(max_size=5))
SCORES_HEADER = ["model_id", "task_id", "shots", "metric_kind", "value"]
SCORES_TEXT = st.tuples(
    st.one_of(st.just(SCORES_HEADER), st.lists(CELL, max_size=6)),
    st.lists(st.lists(CELL, min_size=3, max_size=7), max_size=5),
).map(lambda t: "".join(",".join(row) + "\n" for row in [t[0], *t[1]]))


@SWEEP
@given(REGISTRY_TEXT, SCORES_TEXT)
def test_validate_lists_violations_and_never_raises(tmp_path, registry_text, scores_text):
    registry, scores = tmp_path / "registry.json", tmp_path / "scores.csv"
    registry.write_text(registry_text)
    scores.write_text(scores_text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", "--registry", str(registry), "--scores", str(scores),
                     "--out", str(tmp_path)])
    lines = out.getvalue().splitlines()
    if code == 0:
        assert lines == ["ok: no violations"]
    else:
        assert code == 1 and lines and all(line.startswith("VIOLATION: ") for line in lines)


MAPPED_NAMES = st.one_of(st.sampled_from([*SCHEMA["arch"], *SCHEMA["data"], "entropy_mean",
                                          "model_id", "organization", "provenance"]),
                         st.text(max_size=6))
MAPPING = st.one_of(
    st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]), MAPPED_NAMES, max_size=6),
    JUNK)
CSV_TEXT = st.lists(st.lists(st.one_of(CELL, st.sampled_from(["1e9", "300", "gelu", "rope"])),
                             max_size=6), max_size=6).map(
    lambda rows: "".join(",".join(row) + "\n" for row in [["a", "b", "c", "d", "e"], *rows]))


@SWEEP
@given(CSV_TEXT, MAPPING)
def test_the_csv_loader_raises_only_registry_errors(tmp_path, csv_text, mapping):
    csv_path, map_path = tmp_path / "models.csv", tmp_path / "mapping.json"
    csv_path.write_text(csv_text)
    map_path.write_text(json.dumps(mapping))
    try:
        registry = load_registry(csv_path, format="csv_with_mapping", mapping_path=map_path)
    except RegistryError as e:
        assert e.violations
    else:
        assert len(registry) > 0


# ---------------------------------------------------------------------------
# CLI flag sweep: every subcommand, every flag its parser takes, valid and
# junk values; a run ends in exit 0, 1 or 2, never in a traceback

# values per flag destination; a flag not named here gets FLAG_JUNK. Valid
# values are cheap: two seeds, one or two features, a 3-point grid
FLAG_VALUES = {
    "task": ["taskA", "bogus", ""],
    "seed": ["0", "1", "-1", "x", "1.5"],
    "seeds": ["2", "1", "0", "-3", "x"],
    "features": ["pct_code", "total_params,activation", "bogus", "pct_code,pct_code", ","],
    "candidates": ["pct_code", "bogus", "pct_code,pct_code", ""],
    "tol": ["1e-4", "nan", "-1", "inf", "x"],
    "feature": ["pct_code", "bogus", ""],
    "grid": ["3", "0", "-2", "x"],
}
FLAG_JUNK = ["0", "x", ""]
# flags whose default is a slow run (every candidate, five seeds) are always given
ALWAYS = {("select", "candidates"), ("select", "seeds"), ("compare", "seeds"),
          ("report", "seeds")}
SUBCOMMANDS = next(a for a in build_parser()._actions if a.dest == "command").choices


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    registry, scores, task, _ = gen_registry(
        GenSpec(n_models=12, task_id="taskA", missing_rate=0.15), seed=3)
    write_registry(registry, root / "registry.json")
    write_scores(scores, task, root / "scores.csv")
    return root


@st.composite
def cli_argv(draw, root):
    """An argv built from the parser of a subcommand: each of its flags is
    given (always where required, mostly where ``ALWAYS``, else now and
    then) with a value that is valid or junk."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag, dest = action.option_strings[0], action.dest
        if dest in ("registry", "scores"):
            value = draw(_mostly(st.just(str(root / f"{dest}.{'json' if dest == 'registry' else 'csv'}")),
                                 st.sampled_from([str(root / "missing"), str(root / "scores.csv")])))
        elif dest == "out":
            value = draw(_mostly(st.just(str(root / "out")), st.just(str(root / "registry.json"))))
        else:
            pool = [*action.choices, "bogus"] if action.choices else FLAG_VALUES.get(dest, FLAG_JUNK)
            if not action.required and (command, dest) not in ALWAYS and draw(st.booleans()):
                continue
            if action.required and draw(st.integers(0, 15)) == 0:
                continue
            value = draw(st.sampled_from(pool))
        argv += [flag, value]
    if draw(st.integers(0, 15)) == 0:
        argv += ["--bogus", "1"]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_every_flag_combination_exits_with_a_code_and_no_traceback(cli_inputs, data):
    argv = data.draw(cli_argv(cli_inputs))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses the argv
            code = e.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
