"""Publication-bias audit for architectural design decisions.

Per task, a one-vs-rest contrast for a categorical level is estimated by
precision-weighted least squares with scale controls. Task-level effects
are then pooled with PET-PEESE: meta-regressions of effects on their
standard errors (PET) or squared standard errors (PEESE), whose SE -> 0
intercept is the bias-corrected pooled effect. Egger's small-study test is
the significance of the PET slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .registry import ARCH_CATEGORICAL, Dataset, ENUM_VOCAB, feature_value
from .stats import t_sf_two_sided

MIN_GROUP = 3
MIN_TASKS = 3
PET_SWITCH_ALPHA = 0.05


@dataclass(frozen=True)
class TaskEffect:
    task_id: str
    y: float
    se: float

    def __post_init__(self):
        if self.se <= 0:
            raise ValueError("standard error must be positive")


@dataclass(frozen=True)
class WlsFit:
    coef: np.ndarray
    se: np.ndarray
    t: np.ndarray
    p: np.ndarray
    df: int


def wls(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> WlsFit:
    """Weighted least squares with conventional (model-based) standard errors."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n, p = X.shape
    if n <= p:
        raise ValueError("not enough observations for the design")
    if np.linalg.matrix_rank(X) < p:
        raise ValueError("design matrix is rank deficient")
    xtw = X.T * w
    xtwx = xtw @ X
    coef = np.linalg.solve(xtwx, xtw @ y)
    resid = y - X @ coef
    sigma2 = float((w * resid * resid).sum()) / (n - p)
    cov = sigma2 * np.linalg.inv(xtwx)
    se = np.sqrt(np.diag(cov))
    # zero SE comes from an exact fit: a nonzero coefficient is then
    # unambiguously nonzero (p = 0), a zero one uninformative (p = 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, coef / se,
                     np.where(coef == 0.0, 0.0, np.sign(coef) * np.inf))
    pvals = np.array([t_sf_two_sided(float(ti), n - p) for ti in t])
    return WlsFit(coef, se, t, pvals, n - p)


def precision_weights(dataset: Dataset) -> np.ndarray:
    """Per-model precision proxies.

    For accuracy-like tasks with a known item count, w = n_items / (s(1-s))
    (inverse binomial variance of the score); otherwise uniform.
    """
    task = dataset.task
    if task.metric_kind in ("accuracy", "pass_at_1") and task.n_items:
        s = np.clip(dataset.values, 1e-3, 1.0 - 1e-3)
        return task.n_items / (s * (1.0 - s))
    return np.ones(len(dataset))


def estimate_contrast(dataset: Dataset, feature: str, level: str,
                      weights: np.ndarray | None = None) -> TaskEffect:
    """One-vs-rest WLS contrast with log-scale controls.

    Regresses score on {1, level indicator, log10 params, log10 tokens};
    the effect is the indicator coefficient and its WLS standard error.
    """
    if feature not in ARCH_CATEGORICAL:
        raise ValueError(f"{feature!r} is not a categorical architecture feature")
    if level not in ENUM_VOCAB[feature]:
        raise ValueError(f"unknown level {level!r} for {feature}")
    rows = [(i, rec) for i, rec in enumerate(dataset.records)
            if feature_value(rec, feature) is not None]
    if not rows:
        raise ValueError("no models document this feature")
    indicator = np.array([1.0 if feature_value(rec, feature) == level else 0.0
                          for _, rec in rows])
    n_level = int(indicator.sum())
    if n_level < MIN_GROUP or len(rows) - n_level < MIN_GROUP:
        raise ValueError(f"group too small for {feature}={level} "
                         f"({n_level} vs {len(rows) - n_level})")
    idx = np.array([i for i, _ in rows])
    X = np.column_stack([
        np.ones(len(rows)),
        indicator,
        np.log10([rec.arch.total_params for _, rec in rows]),
        np.log10([rec.data.total_tokens_billions for _, rec in rows]),
    ])
    y = dataset.values[idx]
    w = np.ones(len(rows)) if weights is None else np.asarray(weights, dtype=float)[idx]
    fit = wls(X, y, w)
    return TaskEffect(dataset.task.task_id, float(fit.coef[1]), float(fit.se[1]))


@dataclass(frozen=True)
class MetaRegression:
    intercept: float
    slope: float
    intercept_se: float
    slope_se: float
    intercept_p: float
    slope_p: float
    df: int


def _meta_regress(effects: list[TaskEffect], regressor: np.ndarray) -> MetaRegression:
    if len(effects) < MIN_TASKS:
        raise ValueError(f"need at least {MIN_TASKS} task effects")
    y = np.array([e.y for e in effects])
    se = np.array([e.se for e in effects])
    if np.allclose(regressor, regressor[0]):
        raise ValueError("regressor collinear with the intercept (all SEs equal)")
    X = np.column_stack([np.ones(len(effects)), regressor])
    fit = wls(X, y, 1.0 / (se * se))
    return MetaRegression(
        float(fit.coef[0]), float(fit.coef[1]),
        float(fit.se[0]), float(fit.se[1]),
        float(fit.p[0]), float(fit.p[1]), fit.df)


def pet(effects: list[TaskEffect]) -> MetaRegression:
    """Regress effects on SE with 1/SE^2 weights."""
    return _meta_regress(effects, np.array([e.se for e in effects]))


def peese(effects: list[TaskEffect]) -> MetaRegression:
    """Regress effects on SE^2 with 1/SE^2 weights."""
    return _meta_regress(effects, np.array([e.se ** 2 for e in effects]))


@dataclass(frozen=True)
class MetaResult:
    method_chosen: str  # PET or PEESE
    intercept: float
    ci95: tuple[float, float]
    slope: float
    egger_p: float
    k: int

    def to_dict(self) -> dict:
        return {
            "method_chosen": self.method_chosen,
            "intercept": self.intercept,
            "ci95": list(self.ci95),
            "slope": self.slope,
            "egger_p": self.egger_p,
            "k": self.k,
        }


def pet_peese(effects: list[TaskEffect]) -> MetaResult:
    """Conditional estimator: PEESE when the PET intercept is significant.

    The switch uses a one-tailed test at 0.05 in the direction of the PET
    estimate; the Egger p-value is the two-sided PET slope test.
    """
    pet_fit = pet(effects)
    use_peese = pet_fit.intercept_p / 2.0 < PET_SWITCH_ALPHA and pet_fit.intercept != 0.0
    chosen = peese(effects) if use_peese else pet_fit
    tcrit = float(special.stdtrit(chosen.df, 0.975))
    halfwidth = tcrit * chosen.intercept_se
    return MetaResult(
        method_chosen="PEESE" if use_peese else "PET",
        intercept=chosen.intercept,
        ci95=(chosen.intercept - halfwidth, chosen.intercept + halfwidth),
        slope=chosen.slope,
        egger_p=pet_fit.slope_p,
        k=len(effects),
    )
