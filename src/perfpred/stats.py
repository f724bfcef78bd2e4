"""Significance tests, intervals, and validation statistics."""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t.

    Computed through the regularized incomplete beta function, which keeps
    relative accuracy for p-values spanning many orders of magnitude.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    x = df / (df + t * t)
    return float(special.betainc(df / 2.0, 0.5, x))


def paired_t_test(a, b) -> tuple[float, int, float]:
    """Paired t-test on differences a - b; returns (t, df, two-sided p).

    Degenerate conventions: zero-variance differences give p = 1 when the
    mean difference is 0 and p = 0 otherwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, df, 1.0
        return math.copysign(math.inf, mean), df, 0.0
    t = mean / (sd / math.sqrt(n))
    return t, df, t_sf_two_sided(t, df)


def bh_fdr(p_values, q: float = 0.05) -> tuple[list[bool], list[float]]:
    """Benjamini-Hochberg step-up; returns (rejections, adjusted p-values).

    Output order matches input order; adjusted_i = min_{j >= rank(i)}
    m * p_(j) / j, capped at 1.
    """
    p = np.asarray(p_values, dtype=float)
    if ((p < 0) | (p > 1)).any() or np.isnan(p).any():
        raise ValueError("p-values must lie in [0, 1]")
    m = len(p)
    order = np.argsort(p, kind="mergesort")
    sorted_p = p[order]
    adjusted_sorted = np.minimum.accumulate((m * sorted_p / np.arange(1, m + 1))[::-1])[::-1]
    adjusted_sorted = np.minimum(adjusted_sorted, 1.0)

    passed = np.nonzero(sorted_p <= q * np.arange(1, m + 1) / m)[0]
    cutoff = passed[-1] + 1 if len(passed) else 0

    rejections = [False] * m
    adjusted = [0.0] * m
    for rank, i in enumerate(order):
        rejections[i] = rank < cutoff
        adjusted[i] = float(adjusted_sorted[rank])
    return rejections, adjusted


def mean_ci95(values) -> tuple[float, float]:
    """Mean and 95% confidence halfwidth (Student's t)."""
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        raise ValueError("need at least 2 values")
    sd = float(v.std(ddof=1))
    tcrit = float(special.stdtrit(len(v) - 1, 0.975))
    return float(v.mean()), tcrit * sd / math.sqrt(len(v))


def pearson(x, y) -> tuple[float, float]:
    """Product-moment correlation with two-sided p via the t transform."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 points")
    xd = x - x.mean()
    yd = y - y.mean()
    denom = math.sqrt(float((xd * xd).sum()) * float((yd * yd).sum()))
    if denom == 0.0:
        raise ValueError("constant input")
    r = float((xd * yd).sum()) / denom
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, t_sf_two_sided(t, n - 2)


def cohen_kappa(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two labelings."""
    if len(labels_a) != len(labels_b):
        raise ValueError("length mismatch")
    if len(labels_a) == 0:
        raise ValueError("empty input")
    n = len(labels_a)
    labels = sorted(set(labels_a) | set(labels_b))
    index = {v: i for i, v in enumerate(labels)}
    conf = np.zeros((len(labels), len(labels)))
    for a, b in zip(labels_a, labels_b):
        conf[index[a], index[b]] += 1
    p_o = float(np.trace(conf)) / n
    p_e = float((conf.sum(axis=1) * conf.sum(axis=0)).sum()) / (n * n)
    if p_e == 1.0:
        # both annotators constant and equal: perfect agreement by convention
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)
