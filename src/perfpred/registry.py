"""Model/feature/score data model, loading, validation, and encoding.

The registry holds one record per pretrained model with three feature
groups: architecture (A), pretraining-data composition (D), and features
derived from the model's free generations (F). Records are immutable after
load; encoding to a numeric matrix marks missing values with NaN, the one
missing-value marker (``missing_mask`` is derived from it), never imputing.

The schema is stated once: in the fields of ``ArchFeatures`` and
``DataFeatures`` (a value kind each; a required one has no default) and in
``GEN_FEATURES``, which ``SCHEMA`` gathers. A value kind is "positive" (> 0),
"level" (in ``ENUM_VOCAB``), "percent" (in [0, 100]), "per100k" (>= 0) or
"real"; every number is finite. A record's violations: its text fields, each
section's in file order, the missing required fields, then the domain sum.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

ENUM_VOCAB: dict[str, tuple[str, ...]] = {
    "positional_embeddings": ("nonparametric", "learned", "rope", "alibi"),
    "layer_norm": ("nonparametric", "parametric", "rmsnorm"),
    "attention_variant": ("full", "local", "local_full", "mqa", "gqa"),
    "biases": ("none", "attn_only", "ln_only"),
    "block_type": ("sequential", "parallel"),
    "activation": ("relu", "gelu", "silu", "swiglu"),
}

# Documented generation-derived feature names and their value kinds
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


def _optional(kind: str):
    """A record field holding a value of ``kind``, missing (None) by default."""
    return field(default=None, metadata={"kind": kind})


@dataclass(frozen=True)
class ArchFeatures:
    total_params: float = field(metadata={"kind": "positive"})
    dimension: float | None = _optional("positive")
    num_heads: float | None = _optional("positive")
    mlp_ratio: float | None = _optional("positive")
    sequence_length: float | None = _optional("positive")
    batch_instances: float | None = _optional("positive")
    positional_embeddings: str | None = _optional("level")
    layer_norm: str | None = _optional("level")
    attention_variant: str | None = _optional("level")
    biases: str | None = _optional("level")
    block_type: str | None = _optional("level")
    activation: str | None = _optional("level")


@dataclass(frozen=True)
class DataFeatures:
    total_tokens_billions: float = field(metadata={"kind": "positive"})
    pct_web: float | None = _optional("percent")
    pct_code: float | None = _optional("percent")
    pct_books: float | None = _optional("percent")
    pct_reference: float | None = _optional("percent")
    pct_academic: float | None = _optional("percent")
    pct_english: float | None = _optional("percent")


_SECTION_CLASSES = {"arch": ArchFeatures, "data": DataFeatures}
# section -> {documented feature name -> value kind}, in canonical feature order
SCHEMA: dict[str, dict[str, str]] = {
    **{s: {f.name: f.metadata["kind"] for f in fields(c)} for s, c in _SECTION_CLASSES.items()},
    "gen": GEN_FEATURES,
}
FEATURE_SECTIONS: dict[str, str] = {name: s for s, kinds in SCHEMA.items() for name in kinds}
_REQUIRED = tuple((s, f.name) for s, c in _SECTION_CLASSES.items()
                  for f in fields(c) if f.default is MISSING)

ARCH_NUMERIC = tuple(name for name, kind in SCHEMA["arch"].items() if kind != "level")
ARCH_CATEGORICAL = tuple(name for name, kind in SCHEMA["arch"].items() if kind == "level")
DATA_NUMERIC = tuple(SCHEMA["data"])
DATA_PCT_FIELDS = tuple(name for name, kind in SCHEMA["data"].items() if kind == "percent")
# the domain shares of the pretraining text; pct_english is a language share
_DOMAIN_PCT_FIELDS = tuple(name for name in DATA_PCT_FIELDS if name != "pct_english")

_SECTION_GROUPS = {"arch": "A", "data": "D", "gen": "F"}
_UNKNOWN = {"arch": "arch field", "data": "data field", "gen": "gen feature"}

PCT_SUM_TOLERANCE = 0.5
_FLOAT_MAX = sys.float_info.max
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
        expected = _polarity(self.metric_kind)
        if self.polarity != expected:
            raise ValueError(
                f"metric {self.metric_kind} requires polarity {expected}, got {self.polarity}"
            )

    @classmethod
    def for_metric(cls, task_id: str, shots: int, metric_kind: str, n_items: int | None = None):
        return cls(task_id, shots, metric_kind, _polarity(metric_kind), n_items)


def _polarity(metric_kind: str) -> str:
    return "lower_better" if metric_kind == "brier" else "higher_better"


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
    """(record, score) pairs for a single task, in model-id order."""

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


# ---------------------------------------------------------------------------
# validation helpers


def _checked(kind: str, name: str, value, where: str, violations: list[str]):
    """``value`` as a record holds it, or None; each way it breaks ``kind`` is a violation."""
    if kind == "level":
        if value in ENUM_VOCAB[name]:
            return value
        violations.append(f"{where}: unknown level {value!r} for {name}")
        return None
    # most values are plain floats; NaN fails both bounds, an int beyond the float range one
    is_number = type(value) is float or isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (is_number and -_FLOAT_MAX <= value <= _FLOAT_MAX):
        violations.append(f"{where}: {name} must be a finite number, got {value!r}")
        return None
    number = float(value)
    if kind == "positive" and number <= 0:
        violations.append(f"{where}: {name} must be > 0, got {value}")
    elif kind == "percent" and not 0.0 <= number <= 100.0:
        violations.append(f"{where}: {name} must be in [0, 100], got {value}")
    elif kind == "per100k" and number < 0:
        violations.append(f"{where}: {name} must be >= 0, got {number}")
    return number


def validate_record_dict(obj: dict, where: str, violations: list[str]) -> ModelRecord | None:
    """Parse one raw registry object, appending its violations in the documented order."""
    if not isinstance(obj, dict):
        violations.append(f"{where}: must be a JSON object, got {obj!r}")
        return None
    model_id = obj.get("model_id")
    if not model_id or not isinstance(model_id, str):
        violations.append(f"{where}: missing or invalid model_id")
        return None
    where = model_id
    n_before = len(violations)
    sections = {name: obj.get(name) or {} for name in SCHEMA}
    violations += [f"{where}: {name} must be a JSON object, got {raw!r}"
                   for name, raw in sections.items() if not isinstance(raw, dict)]
    if len(violations) > n_before:
        return None
    text = {n: "" if obj.get(n) is None else obj[n] for n in ("organization", "provenance")}
    violations += [f"{where}: {name} must be a string, got {value!r}"
                   for name, value in text.items() if not isinstance(value, str)]

    held: dict[str, dict] = {}
    for section, kinds in SCHEMA.items():
        values = held[section] = {}
        for name, value in sections[section].items():
            kind = kinds.get(name)
            if kind is None:
                violations.append(f"{where}: unknown {_UNKNOWN[section]} {name!r}")
            elif value is not None:
                value = _checked(kind, name, value, where, violations)
                if value is not None:
                    values[name] = value
    violations += [f"{where}: {name} is required"
                   for section, name in _REQUIRED if name not in held[section]]
    domain = [held["data"][n] for n in _DOMAIN_PCT_FIELDS if n in held["data"]]
    if domain and sum(domain) > 100.0 + PCT_SUM_TOLERANCE:
        violations.append(f"{where}: domain percentages sum to {sum(domain):.2f} > 100")

    if len(violations) > n_before:
        return None
    return ModelRecord(model_id, text["organization"], ArchFeatures(**held["arch"]),
                       DataFeatures(**held["data"]), held["gen"], text["provenance"])


def validate_raw_records(raw: list[dict] | dict[int, dict]) -> tuple[list[ModelRecord], list[str]]:
    """The valid records and every violation; a record is labelled by its index or key."""
    violations = [] if raw else ["no records"]
    records: dict[str, ModelRecord] = {}
    for i, obj in raw.items() if isinstance(raw, dict) else enumerate(raw):
        rec = validate_record_dict(obj, f"record {i}", violations)
        if rec is not None and rec.model_id in records:
            violations.append(f"duplicate model_id: {rec.model_id}")
        elif rec is not None:
            records[rec.model_id] = rec
    return list(records.values()), violations


def load_registry(path, format: str = "canonical_json", mapping_path=None) -> Registry:
    """Load and validate a registry file.

    Canonical format is a JSON list of model objects. ``csv_with_mapping``
    reads a CSV whose columns are renamed to canonical feature names via a
    JSON mapping file (an object of external column -> canonical name).
    """
    violations: list[str] = []
    if format == "canonical_json":
        raw = _json_file(path, "")
        if not isinstance(raw, list):
            raise RegistryError(["registry file must be a JSON list of records"])
    elif format == "csv_with_mapping":
        if mapping_path is None:
            raise RegistryError(["csv format requires a column-mapping file"])
        mapping = _json_file(mapping_path, "column-mapping ")
        if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
            raise RegistryError(["column-mapping file must be a JSON object of strings"])
        raw = dict(_rows_from_csv(path, mapping, violations))
    else:
        raise ValueError(f"unknown registry format: {format}")

    records, more = validate_raw_records(raw)
    if violations or more:
        raise RegistryError(violations + more)
    return Registry(records)


def _text(path, what: str) -> io.StringIO:
    """The file at ``path`` as ``open(path, newline="")`` reads UTF-8 text, or one violation."""
    with open(path, "rb") as f:
        try:
            return io.StringIO(f.read().decode("utf-8"), newline="")
        except UnicodeDecodeError as e:
            raise RegistryError([f"{what}file is not UTF-8 text: {e}"]) from e


def _json_file(path, what: str):
    try:
        return json.load(_text(path, what or "registry "))
    except (ValueError, RecursionError) as e:  # not JSON, an integer too long, nested too deep
        raise RegistryError([f"{what}parse failure: {e}"]) from e


def _csv_rows(path, what: str, violations: list[str], names: tuple[str, ...], required=False):
    """Yield ``(i, cells)`` for each data row ``i`` of the CSV file at ``path``
    with as many cells as its header: the row's cells under ``names``, in
    that order ("" under a name the header lacks, the last cell under a
    repeated one). Blank lines are skipped and not counted. A ``required``
    header without every name raises, and so does text the CSV reader cannot
    parse, the header included: with the violations found before it and one
    for it."""
    reader = csv.reader(_text(path, f"{what} "))
    try:
        head = next(reader, [])
        at = {name: j for j, name in enumerate(head)}
        if required and not at.keys() >= set(names):
            raise RegistryError([f"{what} file must have header {sorted(names)}"])
        width = len(head)
        pick = [at.get(name, width) for name in names]  # a lacking name reads the "" appended
        for i, row in enumerate(filter(None, reader)):  # a blank line reads as []
            if len(row) < width:
                violations.append(f"{what} row {i}: fewer cells than the header")
            elif len(row) > width:
                violations.append(f"{what} row {i}: more cells than the header")
            else:
                row.append("")
                yield i, [row[j] for j in pick]
    except csv.Error as e:  # say, a cell beyond csv.field_size_limit()
        raise RegistryError([*violations, f"{what} parse failure: {e}"]) from e


def _rows_from_csv(path, mapping: dict[str, str], violations: list[str]):
    for i, cells in _csv_rows(path, "registry", violations, tuple(mapping)):
        obj: dict = {section: {} for section in SCHEMA}
        for canonical, cell in zip(mapping.values(), cells):
            if cell == "":
                continue
            if canonical in ("model_id", "organization", "provenance"):
                obj[canonical] = cell
                continue
            # an undocumented name lands in gen, where validation reports it
            section = FEATURE_SECTIONS.get(canonical, "gen")
            if SCHEMA[section].get(canonical) != "level":
                try:
                    cell = float(cell)
                except ValueError:
                    pass  # validation reports the type problem
            obj[section][canonical] = cell
        yield i, obj


def record_to_dict(rec: ModelRecord) -> dict:
    return {
        "model_id": rec.model_id,
        "organization": rec.organization,
        **{s: {k: v for k, v in vars(getattr(rec, s)).items() if v is not None}
           for s in _SECTION_CLASSES},
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
    header = ("model_id", "task_id", "shots", "metric_kind", "value")
    for i, (model_id, task_id, shots, kind, value) in _csv_rows(path, "scores", violations,
                                                                 header, required=True):
        where = f"scores row {i}"
        if kind not in METRIC_KINDS:
            violations.append(f"{where}: unknown metric kind {kind!r}")
            continue
        try:
            value = float(value)
            shots = int(shots)
        except ValueError:
            violations.append(f"{where}: non-numeric shots or value")
            continue
        lo, hi = score_range(kind)
        if not (lo <= value <= hi):
            violations.append(f"{where}: {model_id}/{task_id} value {value} "
                              f"outside [{lo}, {hi}]")
            continue
        if task_id in tasks:
            if tasks[task_id].metric_kind != kind or tasks[task_id].shots != shots:
                violations.append(f"{where}: inconsistent metric/shots for task {task_id}")
                continue
        else:
            tasks[task_id] = TaskSpec.for_metric(task_id, shots, kind)
        scores.append(ScoreRecord(model_id, task_id, value))
    if violations:
        raise RegistryError(violations)
    return scores, tasks


def join_scores(registry: Registry, scores: list[ScoreRecord], task: TaskSpec) -> Dataset:
    """Pair registry records with their score on one task, in model-id order,
    whatever the order of the registry's records and of the score rows.

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
    ids = sorted(by_model)
    values = np.array([by_model[m] for m in ids], dtype=float)
    return Dataset(task, tuple(registry.get(m) for m in ids), values)


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
        section = _section(name)
        group = _SECTION_GROUPS[section]
        raw = [feature_value(rec, name) for rec in dataset.records]
        if SCHEMA[section][name] == "level":
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
