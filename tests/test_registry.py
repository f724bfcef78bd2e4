import csv
import functools
import json
import math
from dataclasses import fields

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
    ArchFeatures,
    DataFeatures,
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


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), 10 ** 400, -(10 ** 400)],
                         ids=["inf", "-inf", "10**400", "-10**400"])
def test_a_number_beyond_the_float_range_is_not_finite(value):
    assert validate_raw_records([raw_record("a", gen={"entropy_mean": value})]) == (
        [], [f"a: entropy_mean must be a finite number, got {value!r}"])


def test_a_records_violations_come_in_file_order_then_required_then_domain_sum():
    raw = {"model_id": "a",
           "arch": {"num_heads": -1, "bogus": 1, "activation": "tanh", "pct_web": 5.0},
           "data": {"pct_web": 90.0, "pct_code": "x", "pct_books": 20.0},
           "gen": {"numbers_ratio": -2, "made_up": 1.0, "domain_web_pct_mean": 101}}
    assert validate_raw_records([raw])[1] == [
        "a: num_heads must be > 0, got -1",
        "a: unknown arch field 'bogus'",
        "a: unknown level 'tanh' for activation",
        "a: unknown arch field 'pct_web'",
        "a: pct_code must be a finite number, got 'x'",
        "a: numbers_ratio must be >= 0, got -2.0",
        "a: unknown gen feature 'made_up'",
        "a: domain_web_pct_mean must be in [0, 100], got 101",
        "a: total_params is required",
        "a: total_tokens_billions is required",
        "a: domain percentages sum to 110.00 > 100",
    ]


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


def _write_mapped_csv(tmp_path, rows, mapping_text=None):
    csv_path = tmp_path / "models.csv"
    csv_path.write_text("id,params,tokens_b,act\n" + "".join(row + "\n" for row in rows))
    map_path = tmp_path / "mapping.json"
    map_path.write_text(mapping_text or json.dumps({
        "id": "model_id", "params": "total_params",
        "tokens_b": "total_tokens_billions", "act": "activation"}))
    return csv_path, map_path


@pytest.mark.parametrize("row, violation", [
    ("m1,1000000000,300,gelu,EXTRA", "registry row 0: more cells than the header"),
    ("m1,1000000000", "registry row 0: fewer cells than the header"),
])
def test_a_registry_csv_row_with_the_wrong_cell_count_is_a_violation(tmp_path, row, violation):
    paths = _write_mapped_csv(tmp_path, [row, "m2,-5,700,swiglu", "m3,5000000000,700,gelu"])
    with pytest.raises(RegistryError) as err:
        load_registry(paths[0], format="csv_with_mapping", mapping_path=paths[1])
    assert err.value.violations == [violation, "m2: total_params must be > 0, got -5.0"]


def test_a_registry_csv_record_is_labelled_by_its_data_row(tmp_path):
    # the ragged row 0 is not a record, yet the row after it is still row 1
    paths = _write_mapped_csv(tmp_path, ["m1,1000000000,300,gelu,EXTRA", ",5000000000,700,gelu"])
    with pytest.raises(RegistryError) as err:
        load_registry(paths[0], format="csv_with_mapping", mapping_path=paths[1])
    assert err.value.violations == ["registry row 0: more cells than the header",
                                    "record 1: missing or invalid model_id"]


def test_organization_and_provenance_are_strings():
    records, violations = validate_raw_records(
        [raw_record("a", organization=None, provenance=None), raw_record("b"),
         raw_record("c", organization=[1, 2], provenance=0, arch={"dimension": -1})])
    assert [(r.organization, r.provenance) for r in records] == [("", ""), ("org", "reported")]
    assert violations == ["c: organization must be a string, got [1, 2]",
                          "c: provenance must be a string, got 0",
                          "c: dimension must be > 0, got -1"]
    absent = raw_record("d")
    del absent["organization"], absent["provenance"]
    (rec,), _ = validate_raw_records([absent])
    assert (rec.organization, rec.provenance) == ("", "")


@pytest.mark.parametrize("name, label", [
    ("registry.json", "registry"), ("models.csv", "registry"), ("mapping.json", "column-mapping"),
    ("scores.csv", "scores")])
def test_a_file_that_is_not_utf8_is_one_violation(tmp_path, name, label):
    csv_path, map_path = _write_mapped_csv(tmp_path, ["m1,1000000000,300,gelu"])
    json_path = write_registry_json(tmp_path, [raw_record("a")])
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text("model_id,task_id,shots,metric_kind,value\nm1,t,0,accuracy,0.5\n")
    (tmp_path / name).write_bytes(b"\xff" + (tmp_path / name).read_bytes())
    with pytest.raises(RegistryError) as err:
        if name == "registry.json":
            load_registry(json_path)
        elif name == "scores.csv":
            load_scores(scores_path)
        else:
            load_registry(csv_path, format="csv_with_mapping", mapping_path=map_path)
    (violation,) = err.value.violations
    assert violation.startswith(f"{label} file is not UTF-8 text: ")


@pytest.mark.parametrize("mapping_text", [
    '["id", "model_id"]', '{"id": "model_id", "params": 5}', '"id"', "{not json",
    pytest.param("[" * 100000, id="nested-too-deep"),
    pytest.param('{"id": ' + "1" * 4301 + "}", id="integer-too-long")])
def test_a_column_mapping_that_is_not_an_object_of_strings_is_one_violation(tmp_path,
                                                                           mapping_text):
    paths = _write_mapped_csv(tmp_path, ["m1,1000000000,300,gelu"], mapping_text)
    with pytest.raises(RegistryError) as err:
        load_registry(paths[0], format="csv_with_mapping", mapping_path=paths[1])
    assert len(err.value.violations) == 1


@pytest.mark.parametrize("name, label", [("models.csv", "registry"), ("scores.csv", "scores")])
@pytest.mark.parametrize("header", [True, False], ids=["in-header", "in-row"])
def test_a_csv_cell_beyond_the_field_limit_is_one_violation(tmp_path, name, label, header):
    csv_path, map_path = _write_mapped_csv(tmp_path, [])
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text("model_id,task_id,shots,metric_kind,value\n")
    path = tmp_path / name
    cell = "1" * (csv.field_size_limit() + 1)
    path.write_text(f"{cell}\n" if header else path.read_text() + f"m1,{cell},300,gelu\n")
    with pytest.raises(RegistryError) as err:
        if name == "scores.csv":
            load_scores(scores_path)
        else:
            load_registry(csv_path, format="csv_with_mapping", mapping_path=map_path)
    assert err.value.violations == [
        f"{label} parse failure: field larger than field limit ({csv.field_size_limit()})"]


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


def test_scores_row_with_more_cells_than_the_header(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("model_id,task_id,shots,metric_kind,value\n"
                    "m1,taskA,0,accuracy,0.5,0.9\n"
                    "m2,taskA,0,accuracy,0.5\n")
    with pytest.raises(RegistryError) as err:
        load_scores(path)
    assert err.value.violations == ["scores row 0: more cells than the header"]


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
    for joined in (join_scores(registry, scores, task),  # model-id order, whatever the files'
                   join_scores(Registry(records[::-1]), scores[::-1], task)):
        assert joined.model_ids == ("a", "c")
        assert list(joined.values) == [0.4, 0.6]

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


# the canonical feature order, written out: it fixes the encoded column order
# and with it every golden digest
CANONICAL_NAMES = """
    total_params dimension num_heads mlp_ratio sequence_length batch_instances
    positional_embeddings layer_norm attention_variant biases block_type activation
    total_tokens_billions pct_web pct_code pct_books pct_reference pct_academic pct_english
    char_len_mean char_len_std tokens_generated_mean tokens_generated_std
    sentences_mean sentences_std words_mean words_std
    words_per_sentence_mean words_per_sentence_std
    const_parse_deepest_depth_mean const_parse_depth_mean
    const_parse_word_depth_mean const_parse_word_depth_std_mean
    dep_parse_dep_head_dist_p90_mean dep_parse_dep_head_dist_max_mean
    dep_parse_dep_head_dist_median_mean dep_parse_dep_root_dist_max_mean
    dep_parse_dep_root_dist_mean_mean dep_parse_dep_root_dist_mean_std
    dep_parse_dep_root_dist_median_mean dep_parse_dep_root_dist_median_std
    domain_academic_pct_mean domain_books_pct_mean domain_code_pct_mean
    domain_reference_pct_mean domain_specialized_pct_mean domain_web_pct_mean
    edu_classifier_mean edu_classifier_std pct_english_mean entropy_mean ttr_mean
    unique_tokens_mean content_function_ratio question_words_ratio
    imperative_verbs_ratio conjunctions_ratio instruction_words_ratio numbers_ratio
""".split()
ONE_HOT_COLUMNS = """
    positional_embeddings=nonparametric positional_embeddings=learned
    positional_embeddings=rope positional_embeddings=alibi
    layer_norm=nonparametric layer_norm=parametric layer_norm=rmsnorm
    attention_variant=full attention_variant=local attention_variant=local_full
    attention_variant=mqa attention_variant=gqa
    biases=none biases=attn_only biases=ln_only
    block_type=sequential block_type=parallel
    activation=relu activation=gelu activation=silu activation=swiglu
""".split()


def test_the_canonical_feature_and_column_order_is_pinned():
    assert len(CANONICAL_NAMES) == 59 and all_feature_names() == CANONICAL_NAMES
    columns = CANONICAL_NAMES[:6] + ONE_HOT_COLUMNS + CANONICAL_NAMES[12:]
    assert len(columns) == 74
    assert list(encode_features(small_dataset(3), all_feature_names()).column_names) == columns


def test_every_record_field_and_gen_feature_has_a_value_kind():
    kinds = {"positive", "level", "percent", "per100k", "real"}
    for cls in (ArchFeatures, DataFeatures):
        assert all(f.metadata.get("kind") in kinds for f in fields(cls)), cls
    assert set(GEN_FEATURES.values()) <= kinds
    assert [f.name for f in fields(ArchFeatures) if f.metadata["kind"] == "level"] == list(ENUM_VOCAB)


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
