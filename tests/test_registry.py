import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import raw_record, small_dataset
from perfpred.registry import (
    ARCH_CATEGORICAL,
    ARCH_NUMERIC,
    DATA_NUMERIC,
    ENUM_VOCAB,
    GEN_FEATURES,
    Registry,
    RegistryError,
    ScoreRecord,
    TaskSpec,
    all_feature_names,
    encode_features,
    feature_group,
    feature_value,
    join_scores,
    load_registry,
    load_scores,
    serialize_registry,
    validate_raw_records,
)
from perfpred.synthdata import GenSpec, synth_dataset


def write_registry_json(tmp_path, raws, name="registry.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raws))
    return path


def test_load_and_roundtrip(tmp_path):
    raws = [raw_record("a"), raw_record("b", arch={"total_params": 7e9})]
    registry = load_registry(write_registry_json(tmp_path, raws))
    assert len(registry) == 2
    assert registry.get("b").arch.total_params == 7e9

    text = serialize_registry(registry)
    path2 = tmp_path / "again.json"
    path2.write_text(text)
    registry2 = load_registry(path2)
    assert registry2.records == registry.records
    assert serialize_registry(registry2) == text


def test_empty_registry_rejected(tmp_path):
    with pytest.raises(RegistryError, match="no records"):
        load_registry(write_registry_json(tmp_path, []))


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(RegistryError, match="parse failure"):
        load_registry(path)


def test_missing_required_fields_reported():
    raws = [raw_record("a", data={"total_tokens_billions": None}),
            raw_record("b", arch={"total_params": None})]
    records, violations = validate_raw_records(raws)
    assert records == []
    assert any("total_tokens_billions is required" in v for v in violations)
    assert any("total_params is required" in v for v in violations)


def test_all_violations_collected_not_just_first():
    raws = [raw_record("a", arch={"activation": "tanh"}),
            raw_record("b", data={"pct_web": 140.0}),
            raw_record("c", gen={"made_up_feature": 1.0})]
    _, violations = validate_raw_records(raws)
    # record b yields two: the range violation and the implied domain sum
    assert len(violations) == 4
    assert any("unknown level 'tanh'" in v for v in violations)
    assert any("pct_web" in v for v in violations)
    assert any("sum to" in v for v in violations)
    assert any("made_up_feature" in v for v in violations)


def test_duplicate_model_id():
    _, violations = validate_raw_records([raw_record("a"), raw_record("a")])
    assert any("duplicate model_id" in v for v in violations)


def test_domain_percentages_over_100():
    bad = raw_record("a", data={"pct_web": 60.0, "pct_code": 45.0})
    _, violations = validate_raw_records([bad])
    assert any("sum to" in v for v in violations)
    # within the documented tolerance is fine
    ok = raw_record("a", data={"pct_web": 60.0, "pct_code": 35.3,
                               "pct_books": 5.0, "pct_reference": None})
    records, violations = validate_raw_records([ok])
    assert not violations and len(records) == 1


def test_per100k_must_be_nonnegative():
    _, violations = validate_raw_records(
        [raw_record("a", gen={"question_words_ratio": -2.0})])
    assert any("question_words_ratio" in v for v in violations)


def test_nonfinite_numbers_rejected():
    _, violations = validate_raw_records(
        [raw_record("a", arch={"dimension": float("nan")})])
    assert any("finite" in v for v in violations)


@pytest.mark.parametrize("raw, violation", [
    ([1, 2], "record 0: must be a JSON object, got [1, 2]"),
    (raw_record("a", arch=[1]), "a: arch must be a JSON object, got [1]"),
    (raw_record("a", data=5.0), "a: data must be a JSON object, got 5.0"),
    (raw_record("a", gen="x"), "a: gen must be a JSON object, got 'x'"),
])
def test_a_record_or_section_that_is_not_an_object_is_one_violation(raw, violation):
    assert validate_raw_records([raw]) == ([], [violation])


def test_csv_with_mapping(tmp_path):
    csv_path = tmp_path / "models.csv"
    csv_path.write_text(
        "id,params,tokens_b,act\n"
        "m1,1000000000,300,gelu\n"
        "m2,5000000000,700,swiglu\n")
    map_path = tmp_path / "mapping.json"
    map_path.write_text(json.dumps({
        "id": "model_id", "params": "total_params",
        "tokens_b": "total_tokens_billions", "act": "activation"}))
    registry = load_registry(csv_path, format="csv_with_mapping", mapping_path=map_path)
    assert len(registry) == 2
    assert registry.get("m2").arch.activation == "swiglu"
    assert registry.get("m1").data.total_tokens_billions == 300.0


def test_scores_load_and_range_check(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("model_id,task_id,shots,metric_kind,value\n"
                    "m1,taskA,0,accuracy,0.5\n"
                    "m2,taskA,0,accuracy,0.75\n"
                    "m1,taskB,5,brier,1.5\n")
    scores, tasks = load_scores(path)
    assert len(scores) == 3
    assert tasks["taskA"].polarity == "higher_better"
    assert tasks["taskB"].polarity == "lower_better"
    assert tasks["taskB"].shots == 5

    bad = tmp_path / "bad.csv"
    bad.write_text("model_id,task_id,shots,metric_kind,value\n"
                   "m1,taskA,0,accuracy,1.2\n")
    with pytest.raises(RegistryError, match="outside"):
        load_scores(bad)


def test_scores_row_with_fewer_cells_than_the_header(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("model_id,task_id,shots,metric_kind,value\n"
                    "m1,taskA,0,accuracy\n"
                    "m2,taskA,0,accuracy,0.5\n")
    with pytest.raises(RegistryError) as err:
        load_scores(path)
    assert err.value.violations == ["scores row 0: fewer cells than the header"]


def test_scores_inconsistent_task_metadata(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("model_id,task_id,shots,metric_kind,value\n"
                    "m1,taskA,0,accuracy,0.5\n"
                    "m2,taskA,5,accuracy,0.6\n")
    with pytest.raises(RegistryError, match="inconsistent"):
        load_scores(path)


def test_join_scores_excludes_uncovered_and_rejects_orphans():
    records, _ = validate_raw_records([raw_record("a"), raw_record("b"), raw_record("c")])
    registry = Registry(records)
    task = TaskSpec.for_metric("t", 0, "accuracy")
    scores = [ScoreRecord("a", "t", 0.4), ScoreRecord("c", "t", 0.6),
              ScoreRecord("a", "other", 0.9)]
    ds = join_scores(registry, scores, task)
    assert ds.model_ids == ("a", "c")
    assert list(ds.values) == [0.4, 0.6]

    with pytest.raises(RegistryError, match="unknown model"):
        join_scores(registry, [ScoreRecord("ghost", "t", 0.5)], task)
    with pytest.raises(RegistryError, match="duplicate score"):
        join_scores(registry, [ScoreRecord("a", "t", 0.5), ScoreRecord("a", "t", 0.6)], task)


def test_task_polarity_enforced():
    with pytest.raises(ValueError, match="polarity"):
        TaskSpec("t", 0, "brier", "higher_better")
    with pytest.raises(ValueError, match="polarity"):
        TaskSpec("t", 0, "accuracy", "lower_better")
    assert TaskSpec.for_metric("t", 0, "pass_at_1").polarity == "higher_better"


def test_encode_log10_scaling():
    ds = small_dataset(3)
    X = encode_features(ds, ["total_params", "total_tokens_billions"])
    assert X.column_names == ("total_params", "total_tokens_billions")
    # first record has exactly 1e8 params
    assert X.values[0, 0] == pytest.approx(8.0)
    assert X.values[0, 1] == pytest.approx(math.log10(50.0))
    assert [c.transform for c in X.columns] == ["log10", "log10"]
    assert not X.missing_mask.any()


def test_encode_onehot_vocabulary_order():
    ds = small_dataset(3)
    X = encode_features(ds, ["layer_norm"])
    assert X.column_names == tuple(
        f"layer_norm={lv}" for lv in ENUM_VOCAB["layer_norm"])
    # every record documents rmsnorm
    for i in range(3):
        row = X.values[i]
        assert row.sum() == 1.0
        assert row[list(ENUM_VOCAB["layer_norm"]).index("rmsnorm")] == 1.0


def test_encode_missing_stays_masked():
    ds = small_dataset(3, score_fn=lambda r: 0.5)
    X = encode_features(ds, ["mlp_ratio", "attention_variant", "pct_english"])
    # none of these are documented in the fixture records
    assert X.missing_mask.all()
    assert np.isnan(X.values).all()


def test_encode_deterministic():
    ds = small_dataset(4)
    names = ["total_params", "activation", "entropy_mean"]
    a = encode_features(ds, names)
    b = encode_features(ds, names)
    assert a.column_names == b.column_names
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert np.array_equal(a.missing_mask, b.missing_mask)


def test_feature_groups_and_catalog():
    assert feature_group("total_params") == "A"
    assert feature_group("activation") == "A"
    assert feature_group("pct_code") == "D"
    assert feature_group("entropy_mean") == "F"
    with pytest.raises(KeyError):
        feature_group("nonexistent")
    names = all_feature_names()
    assert len(names) == len(set(names))
    assert len(GEN_FEATURES) == 40
    assert set(GEN_FEATURES) <= set(names)


def test_encode_all_features_column_count():
    ds = small_dataset(3)
    X = encode_features(ds, all_feature_names())
    numeric = 6 + 7 + 40  # arch numeric + data + gen
    onehot = sum(len(v) for v in ENUM_VOCAB.values())
    assert len(X.columns) == numeric + onehot
    groups = {c.name: c.source_group for c in X.columns}
    assert groups["activation=gelu"] == "A"
    assert groups["pct_web"] == "D"
    assert groups["entropy_mean"] == "F"


def test_every_feature_name_lands_in_its_declared_section(tmp_path):
    declared = {**dict.fromkeys(ARCH_NUMERIC + ARCH_CATEGORICAL, ("arch", "A")),
                **dict.fromkeys(DATA_NUMERIC, ("data", "D")),
                **dict.fromkeys(GEN_FEATURES, ("gen", "F"))}
    assert all_feature_names() == list(declared)
    for name in all_feature_names():
        value = ENUM_VOCAB[name][1] if name in ENUM_VOCAB else 12.5
        row = {"id": "m1", "params": "1000000000", "tokens": "300", "x": str(value)}
        mapping = {"id": "model_id", "params": "total_params",
                   "tokens": "total_tokens_billions", "x": name}
        if name in ("total_params", "total_tokens_billions"):
            del row["x"], mapping["x"]
            row["params" if name == "total_params" else "tokens"] = str(value)
        csv_path = tmp_path / f"{name}.csv"
        csv_path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        map_path = tmp_path / f"{name}.json"
        map_path.write_text(json.dumps(mapping))
        rec = load_registry(csv_path, format="csv_with_mapping", mapping_path=map_path).get("m1")
        section, group = declared[name]
        held = rec.gen.get(name) if section == "gen" else getattr(getattr(rec, section), name)
        assert held == value and feature_value(rec, name) == value, name
        assert feature_group(name) == group, name


@functools.lru_cache(maxsize=None)
def _gappy_dataset():
    return synth_dataset(GenSpec(n_models=30, missing_rate=0.25), seed=2)[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.permutations(all_feature_names()), st.integers(0, len(all_feature_names())))
def test_encoding_a_concatenated_name_list_concatenates_the_matrices(names, cut):
    ds = _gappy_dataset()
    a, b = names[:cut], names[cut:]
    whole, left, right = (encode_features(ds, fs) for fs in (a + b, a, b))
    assert whole.columns == left.columns + right.columns
    assert whole.values.tobytes() == np.hstack([left.values, right.values]).tobytes()
    assert np.array_equal(whole.missing_mask, np.hstack([left.missing_mask, right.missing_mask]))
    assert np.array_equal(whole.missing_mask, np.isnan(whole.values))
