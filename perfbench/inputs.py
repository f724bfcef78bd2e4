"""Seeded benchmark inputs: one registry and one multi-task scores file.

Every task is drawn from ``perfpred.synthdata`` with the same seed, model
count and missing rate, so all tasks share one registry (the generator's
registry depends only on those three). Each task then keeps a seeded
subset of the models, which gives tasks of different coverage. The same
(spec, seed) always writes byte-identical files.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

from perfpred.prng import CounterRng
from perfpred.synthdata import GenSpec, gen_registry, write_registry

# Substream of CounterRng(seed, ...) that picks a task's covered models;
# offset so it never meets the generator's own streams 0 and 1.
COVERAGE_STREAM = 1000
MISSING_RATE = 0.2
NOISE_SIGMA = 0.02


@dataclass(frozen=True)
class TaskPlan:
    task_id: str
    metric_kind: str  # accuracy | brier
    n_covered: int


@dataclass(frozen=True)
class InputSpec:
    n_models: int
    tasks: tuple[TaskPlan, ...]


def _gen_spec(spec: InputSpec, k: int, plan: TaskPlan) -> GenSpec:
    # Tasks differ in their scale response and in which documented choices
    # matter, so trees, SHAP rankings and audit contrasts differ by task.
    if plan.metric_kind == "brier":
        coefs = (0.9 + 0.01 * k, -0.03, -0.02)
    else:
        coefs = (0.05 + 0.01 * k, 0.03 + 0.002 * (k % 3), 0.02)
    return GenSpec(
        n_models=spec.n_models,
        task_id=plan.task_id,
        metric_kind=plan.metric_kind,
        log_linear_coefs=coefs,
        feature_effects={"pct_code": 0.001 * (1 + k % 4), "entropy_mean": 0.004 * (k % 3)},
        level_effects={"positional_embeddings=rope": 0.01 * (k % 2),
                       "attention_variant=gqa": 0.005 * (1 + k % 3)},
        noise_sigma=NOISE_SIGMA,
        missing_rate=MISSING_RATE,
    )


def build(spec: InputSpec, seed: int):
    """(Registry, rows) where rows are (model_id, task_id, shots, kind, value)."""
    registry = None
    rows = []
    for k, plan in enumerate(spec.tasks):
        if not 1 <= plan.n_covered <= spec.n_models:
            raise ValueError(f"{plan.task_id}: coverage {plan.n_covered} outside 1..{spec.n_models}")
        reg, scores, task, _ = gen_registry(_gen_spec(spec, k, plan), seed)
        registry = registry or reg
        ids = sorted(s.model_id for s in scores)
        CounterRng(seed, stream=COVERAGE_STREAM + k).shuffle(ids)
        covered = set(ids[:plan.n_covered])
        rows += [(s.model_id, s.task_id, task.shots, task.metric_kind, repr(s.value))
                 for s in scores if s.model_id in covered]
    return registry, rows


def write(spec: InputSpec, seed: int, directory: str) -> tuple[str, str]:
    """Write registry.json and scores.csv into ``directory``; return their paths."""
    registry, rows = build(spec, seed)
    os.makedirs(directory, exist_ok=True)
    reg_path = os.path.join(directory, "registry.json")
    scores_path = os.path.join(directory, "scores.csv")
    write_registry(registry, reg_path)
    with open(scores_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model_id", "task_id", "shots", "metric_kind", "value"])
        writer.writerows(rows)
    return reg_path, scores_path
