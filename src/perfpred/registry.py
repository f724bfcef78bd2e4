"""Model/feature/score data model, loading, validation, and encoding.

The registry holds one record per pretrained model with three feature
groups: architecture (A), pretraining-data composition (D), and features
derived from the model's free generations (F). Records are immutable after
load; encoding to a numeric matrix marks missing values with NaN, the one
missing-value marker (``missing_mask`` is derived from it), never imputing.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

ENUM_VOCAB: dict[str, tuple[str, ...]] = {
    "positional_embeddings": ("nonparametric", "learned", "rope", "alibi"),
    "layer_norm": ("nonparametric", "parametric", "rmsnorm"),
    "attention_variant": ("full", "local", "local_full", "mqa", "gqa"),
    "biases": ("none", "attn_only", "ln_only"),
    "block_type": ("sequential", "parallel"),
    "activation": ("relu", "gelu", "silu", "swiglu"),
}

ARCH_NUMERIC = (
    "total_params",
    "dimension",
    "num_heads",
    "mlp_ratio",
    "sequence_length",
    "batch_instances",
)
ARCH_CATEGORICAL = tuple(ENUM_VOCAB)

DATA_NUMERIC = (
    "total_tokens_billions",
    "pct_web",
    "pct_code",
    "pct_books",
    "pct_reference",
    "pct_academic",
    "pct_english",
)
DATA_PCT_FIELDS = DATA_NUMERIC[1:]

# Documented generation-derived feature names and their value constraint:
# "percent" entries lie in [0, 100], "per100k" entries are nonnegative,
# "real" entries are unconstrained.
GEN_FEATURES: dict[str, str] = {
    "char_len_mean": "real",
    "char_len_std": "real",
    "tokens_generated_mean": "real",
    "tokens_generated_std": "real",
    "sentences_mean": "real",
    "sentences_std": "real",
    "words_mean": "real",
    "words_std": "real",
    "words_per_sentence_mean": "real",
    "words_per_sentence_std": "real",
    "const_parse_deepest_depth_mean": "real",
    "const_parse_depth_mean": "real",
    "const_parse_word_depth_mean": "real",
    "const_parse_word_depth_std_mean": "real",
    "dep_parse_dep_head_dist_p90_mean": "real",
    "dep_parse_dep_head_dist_max_mean": "real",
    "dep_parse_dep_head_dist_median_mean": "real",
    "dep_parse_dep_root_dist_max_mean": "real",
    "dep_parse_dep_root_dist_mean_mean": "real",
    "dep_parse_dep_root_dist_mean_std": "real",
    "dep_parse_dep_root_dist_median_mean": "real",
    "dep_parse_dep_root_dist_median_std": "real",
    "domain_academic_pct_mean": "percent",
    "domain_books_pct_mean": "percent",
    "domain_code_pct_mean": "percent",
    "domain_reference_pct_mean": "percent",
    "domain_specialized_pct_mean": "percent",
    "domain_web_pct_mean": "percent",
    "edu_classifier_mean": "real",
    "edu_classifier_std": "real",
    "pct_english_mean": "percent",
    "entropy_mean": "real",
    "ttr_mean": "real",
    "unique_tokens_mean": "real",
    "content_function_ratio": "per100k",
    "question_words_ratio": "per100k",
    "imperative_verbs_ratio": "per100k",
    "conjunctions_ratio": "per100k",
    "instruction_words_ratio": "per100k",
    "numbers_ratio": "per100k",
}

# Every documented feature name -> the record section that holds it, in
# canonical order: architecture, pretraining data, then generations.
FEATURE_SECTIONS: dict[str, str] = {
    **dict.fromkeys(ARCH_NUMERIC + ARCH_CATEGORICAL, "arch"),
    **dict.fromkeys(DATA_NUMERIC, "data"),
    **dict.fromkeys(GEN_FEATURES, "gen"),
}
_SECTION_GROUPS = {"arch": "A", "data": "D", "gen": "F"}

PCT_SUM_TOLERANCE = 0.5
LOG10_FEATURES = ("total_params", "total_tokens_billions")

METRIC_KINDS = ("accuracy", "brier", "pass_at_1")


class RegistryError(Exception):
    """Raised when a registry or scores file fails validation.

    ``violations`` lists every individual problem found, so a single load
    attempt reports all bad records rather than the first one.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ArchFeatures:
    total_params: float
    dimension: float | None = None
    num_heads: float | None = None
    mlp_ratio: float | None = None
    sequence_length: float | None = None
    batch_instances: float | None = None
    positional_embeddings: str | None = None
    layer_norm: str | None = None
    attention_variant: str | None = None
    biases: str | None = None
    block_type: str | None = None
    activation: str | None = None


@dataclass(frozen=True)
class DataFeatures:
    total_tokens_billions: float
    pct_web: float | None = None
    pct_code: float | None = None
    pct_books: float | None = None
    pct_reference: float | None = None
    pct_academic: float | None = None
    pct_english: float | None = None


@dataclass(frozen=True)
class ModelRecord:
    model_id: str
    organization: str = ""
    arch: ArchFeatures = None  # type: ignore[assignment]
    data: DataFeatures = None  # type: ignore[assignment]
    gen: dict[str, float] = field(default_factory=dict)
    provenance: str = ""


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    shots: int
    metric_kind: str
    polarity: str
    n_items: int | None = None

    def __post_init__(self):
        if self.metric_kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind: {self.metric_kind}")
        expected = "lower_better" if self.metric_kind == "brier" else "higher_better"
        if self.polarity != expected:
            raise ValueError(
                f"metric {self.metric_kind} requires polarity {expected}, got {self.polarity}"
            )

    @classmethod
    def for_metric(cls, task_id: str, shots: int, metric_kind: str, n_items: int | None = None):
        polarity = "lower_better" if metric_kind == "brier" else "higher_better"
        return cls(task_id, shots, metric_kind, polarity, n_items)


@dataclass(frozen=True)
class ScoreRecord:
    model_id: str
    task_id: str
    value: float


def score_range(metric_kind: str) -> tuple[float, float]:
    return (0.0, 2.0) if metric_kind == "brier" else (0.0, 1.0)


class Registry:
    """Immutable collection of model records, indexed by model_id."""

    def __init__(self, records: list[ModelRecord]):
        self.records = tuple(records)
        self._by_id = {r.model_id: r for r in self.records}
        if len(self._by_id) != len(self.records):
            raise ValueError("duplicate model_id")

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._by_id

    def get(self, model_id: str) -> ModelRecord:
        return self._by_id[model_id]


@dataclass(frozen=True)
class Dataset:
    """Ordered (record, score) pairs for a single task."""

    task: TaskSpec
    records: tuple[ModelRecord, ...]
    values: np.ndarray

    @property
    def model_ids(self) -> tuple[str, ...]:
        return tuple(r.model_id for r in self.records)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class Column:
    name: str
    source_group: str  # A, D, or F
    transform: str  # identity, log10, or onehot(level)


@dataclass(frozen=True)
class FeatureMatrix:
    model_ids: tuple[str, ...]
    columns: tuple[Column, ...]
    values: np.ndarray  # (n, p), NaN where missing

    @property
    def missing_mask(self) -> np.ndarray:
        """(n, p) bool, computed on each read: read it once per matrix."""
        return np.isnan(self.values)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def subset_rows(self, idx) -> "FeatureMatrix":
        idx = np.asarray(idx)
        return FeatureMatrix(tuple(self.model_ids[i] for i in idx), self.columns, self.values[idx])


# ---------------------------------------------------------------------------
# validation helpers


def _check_number(violations, where, name, value, positive=False, pct=False):
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        violations.append(f"{where}: {name} must be a finite number, got {value!r}")
        return None
    if positive and value <= 0:
        violations.append(f"{where}: {name} must be > 0, got {value}")
    if pct and not (0.0 <= value <= 100.0):
        violations.append(f"{where}: {name} must be in [0, 100], got {value}")
    return float(value)


def validate_record_dict(obj: dict, where: str, violations: list[str]) -> ModelRecord | None:
    """Parse one raw registry object, appending problems to ``violations``."""
    if not isinstance(obj, dict):
        violations.append(f"{where}: must be a JSON object, got {obj!r}")
        return None
    model_id = obj.get("model_id")
    if not model_id or not isinstance(model_id, str):
        violations.append(f"{where}: missing or invalid model_id")
        return None
    where = model_id
    n_before = len(violations)
    sections = {name: obj.get(name) or {} for name in ("arch", "data", "gen")}
    violations += [f"{where}: {name} must be a JSON object, got {raw!r}"
                   for name, raw in sections.items() if not isinstance(raw, dict)]
    if len(violations) > n_before:
        return None
    arch_raw, data_raw, gen_raw = sections.values()

    arch_kwargs = {}
    for name in ARCH_NUMERIC:
        arch_kwargs[name] = _check_number(violations, where, name, arch_raw.get(name), positive=True)
    for name in ARCH_CATEGORICAL:
        value = arch_raw.get(name)
        if value is not None:
            if value not in ENUM_VOCAB[name]:
                violations.append(f"{where}: unknown level {value!r} for {name}")
                value = None
        arch_kwargs[name] = value
    for name in arch_raw:
        if name not in ARCH_NUMERIC and name not in ARCH_CATEGORICAL:
            violations.append(f"{where}: unknown arch field {name!r}")
    if arch_kwargs["total_params"] is None:
        violations.append(f"{where}: total_params is required")

    data_kwargs = {}
    data_kwargs["total_tokens_billions"] = _check_number(
        violations, where, "total_tokens_billions", data_raw.get("total_tokens_billions"), positive=True
    )
    if data_kwargs["total_tokens_billions"] is None:
        violations.append(f"{where}: total_tokens_billions is required")
    for name in DATA_PCT_FIELDS:
        data_kwargs[name] = _check_number(violations, where, name, data_raw.get(name), pct=True)
    for name in data_raw:
        if name not in DATA_NUMERIC:
            violations.append(f"{where}: unknown data field {name!r}")
    domain = [data_kwargs[n] for n in DATA_PCT_FIELDS[:-1] if data_kwargs.get(n) is not None]
    if domain and sum(domain) > 100.0 + PCT_SUM_TOLERANCE:
        violations.append(f"{where}: domain percentages sum to {sum(domain):.2f} > 100")

    gen = {}
    for name, value in gen_raw.items():
        if name not in GEN_FEATURES:
            violations.append(f"{where}: unknown gen feature {name!r}")
            continue
        kind = GEN_FEATURES[name]
        v = _check_number(violations, where, name, value, pct=(kind == "percent"))
        if v is not None and kind == "per100k" and v < 0:
            violations.append(f"{where}: {name} must be >= 0, got {v}")
        if v is not None:
            gen[name] = v

    if len(violations) > n_before:
        return None
    return ModelRecord(
        model_id=model_id,
        organization=str(obj.get("organization", "")),
        arch=ArchFeatures(**arch_kwargs),
        data=DataFeatures(**data_kwargs),
        gen=gen,
        provenance=str(obj.get("provenance", "")),
    )


def validate_raw_records(raw: list[dict]) -> tuple[list[ModelRecord], list[str]]:
    violations: list[str] = []
    records: list[ModelRecord] = []
    seen: set[str] = set()
    if not raw:
        violations.append("no records")
    for i, obj in enumerate(raw):
        rec = validate_record_dict(obj, f"record {i}", violations)
        if rec is None:
            continue
        if rec.model_id in seen:
            violations.append(f"duplicate model_id: {rec.model_id}")
            continue
        seen.add(rec.model_id)
        records.append(rec)
    return records, violations


def load_registry(path, format: str = "canonical_json", mapping_path=None) -> Registry:
    """Load and validate a registry file.

    Canonical format is a JSON list of model objects. ``csv_with_mapping``
    reads a CSV whose columns are renamed to canonical feature names via a
    JSON mapping file (external column -> canonical name).
    """
    if format == "canonical_json":
        with open(path) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as e:
                raise RegistryError([f"parse failure: {e}"]) from e
        if not isinstance(raw, list):
            raise RegistryError(["registry file must be a JSON list of records"])
    elif format == "csv_with_mapping":
        if mapping_path is None:
            raise RegistryError(["csv format requires a column-mapping file"])
        with open(mapping_path) as f:
            mapping = json.load(f)
        raw = _rows_from_csv(path, mapping)
    else:
        raise ValueError(f"unknown registry format: {format}")

    records, violations = validate_raw_records(raw)
    if violations:
        raise RegistryError(violations)
    return Registry(records)


def _rows_from_csv(path, mapping: dict[str, str]) -> list[dict]:
    rows = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            obj: dict = {"arch": {}, "data": {}, "gen": {}}
            for external, canonical in mapping.items():
                cell = row.get(external, "")
                if cell is None or cell == "":
                    continue
                if canonical in ("model_id", "organization", "provenance"):
                    obj[canonical] = cell
                    continue
                if canonical in ARCH_CATEGORICAL:
                    obj["arch"][canonical] = cell
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = cell  # validation reports the type problem
                # an undocumented name lands in gen, where validation reports it
                obj[FEATURE_SECTIONS.get(canonical, "gen")][canonical] = value
            rows.append(obj)
    return rows


def record_to_dict(rec: ModelRecord) -> dict:
    arch = {k: v for k, v in vars(rec.arch).items() if v is not None}
    data = {k: v for k, v in vars(rec.data).items() if v is not None}
    return {
        "model_id": rec.model_id,
        "organization": rec.organization,
        "arch": arch,
        "data": data,
        "gen": dict(sorted(rec.gen.items())),
        "provenance": rec.provenance,
    }


def serialize_registry(registry: Registry) -> str:
    """Canonical JSON text; load -> serialize round-trips record-equal."""
    return json.dumps([record_to_dict(r) for r in registry.records], indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# scores


def load_scores(path) -> tuple[list[ScoreRecord], dict[str, TaskSpec]]:
    """Read the scores CSV (model_id,task_id,shots,metric_kind,value)."""
    scores: list[ScoreRecord] = []
    tasks: dict[str, TaskSpec] = {}
    violations: list[str] = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        required = {"model_id", "task_id", "shots", "metric_kind", "value"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise RegistryError([f"scores file must have header {sorted(required)}"])
        for i, row in enumerate(reader):
            where = f"scores row {i}"
            if None in row.values():  # DictReader fills a short row with None
                violations.append(f"{where}: fewer cells than the header")
                continue
            kind = row["metric_kind"]
            if kind not in METRIC_KINDS:
                violations.append(f"{where}: unknown metric kind {kind!r}")
                continue
            try:
                value = float(row["value"])
                shots = int(row["shots"])
            except ValueError:
                violations.append(f"{where}: non-numeric shots or value")
                continue
            lo, hi = score_range(kind)
            if not (lo <= value <= hi):
                violations.append(
                    f"{where}: {row['model_id']}/{row['task_id']} value {value} outside [{lo}, {hi}]"
                )
                continue
            task_id = row["task_id"]
            if task_id in tasks:
                if tasks[task_id].metric_kind != kind or tasks[task_id].shots != shots:
                    violations.append(f"{where}: inconsistent metric/shots for task {task_id}")
                    continue
            else:
                tasks[task_id] = TaskSpec.for_metric(task_id, shots, kind)
            scores.append(ScoreRecord(row["model_id"], task_id, value))
    if violations:
        raise RegistryError(violations)
    return scores, tasks


def join_scores(registry: Registry, scores: list[ScoreRecord], task: TaskSpec) -> Dataset:
    """Pair registry records with their score on one task.

    Models without a score for the task are excluded (coverage varies by
    benchmark); scores referencing unknown models are errors.
    """
    violations = []
    lo, hi = score_range(task.metric_kind)
    by_model: dict[str, float] = {}
    for s in scores:
        if s.task_id != task.task_id:
            continue
        if s.model_id not in registry:
            violations.append(f"score references unknown model {s.model_id!r}")
            continue
        if not (lo <= s.value <= hi):
            violations.append(f"{s.model_id}/{s.task_id}: value {s.value} outside [{lo}, {hi}]")
            continue
        if s.model_id in by_model:
            violations.append(f"duplicate score for {s.model_id}/{s.task_id}")
            continue
        by_model[s.model_id] = s.value
    if violations:
        raise RegistryError(violations)
    records = [r for r in registry.records if r.model_id in by_model]
    values = np.array([by_model[r.model_id] for r in records], dtype=float)
    return Dataset(task, tuple(records), values)


# ---------------------------------------------------------------------------
# encoding


def _section(name: str) -> str:
    try:
        return FEATURE_SECTIONS[name]
    except KeyError:
        raise KeyError(f"unknown feature name: {name}") from None


def feature_group(name: str) -> str:
    return _SECTION_GROUPS[_section(name)]


def feature_value(rec: ModelRecord, name: str) -> float | str | None:
    section = _section(name)
    return rec.gen.get(name) if section == "gen" else getattr(getattr(rec, section), name)


def encode_features(dataset: Dataset, feature_names: list[str]) -> FeatureMatrix:
    """Encode records into a numeric matrix, NaN where a value is missing.

    total_params and total_tokens_billions are log10-scaled; categorical
    features expand to one-hot columns in vocabulary order; missing values
    stay NaN, never imputed.
    """
    columns: list[Column] = []
    cells: list[list] = []  # one list of n values per column
    for name in feature_names:
        group = feature_group(name)
        raw = [feature_value(rec, name) for rec in dataset.records]
        if name in ENUM_VOCAB:
            for level in ENUM_VOCAB[name]:
                columns.append(Column(f"{name}={level}", group, f"onehot({level})"))
                cells.append([np.nan if v is None else float(v == level) for v in raw])
        else:
            log = name in LOG10_FEATURES
            columns.append(Column(name, group, "log10" if log else "identity"))
            cells.append([np.nan if v is None else math.log10(v) if log else v for v in raw])
    values = np.array(cells, dtype=float).reshape(len(columns), len(dataset)).T.copy()
    # validation rejects non-finite numbers, so NaN marks exactly the missing entries
    return FeatureMatrix(dataset.model_ids, tuple(columns), values)


def all_feature_names() -> list[str]:
    """Every documented feature, in canonical order."""
    return list(FEATURE_SECTIONS)
