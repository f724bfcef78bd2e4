import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from perfpred.metabias import TaskEffect, peese, pet, pet_peese
from perfpred.prng import CounterRng
from perfpred.stats import bh_fdr, cohen_kappa, mean_ci95, paired_t_test, pearson, t_sf_two_sided


def test_paired_t_hand_case():
    # d = [1, 2, 3]: t = 2*sqrt(3), df = 2, p from the closed-form df=2 CDF
    t, df, p = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
    assert t == pytest.approx(2.0 * math.sqrt(3.0))
    assert df == 2
    assert p == pytest.approx(0.07417990022744847, rel=1e-10)


def test_paired_t_matches_scipy():
    rng = CounterRng(17)
    a = [rng.normal() for _ in range(12)]
    b = [rng.normal() for _ in range(12)]
    t, df, p = paired_t_test(a, b)
    ref = sps.ttest_rel(a, b)
    assert t == pytest.approx(ref.statistic, rel=1e-10)
    assert p == pytest.approx(ref.pvalue, rel=1e-10)


def test_paired_t_degenerate_conventions():
    assert paired_t_test([1.0, 2.0], [1.0, 2.0]) == (0.0, 1, 1.0)
    t, df, p = paired_t_test([2.0, 3.0], [1.0, 2.0])
    assert t == math.inf and p == 0.0
    t, _, p = paired_t_test([1.0, 2.0], [2.0, 3.0])
    assert t == -math.inf and p == 0.0


def test_t_sf_extreme_tail_accuracy():
    # must retain relative accuracy far into the tail
    for t, df in [(30.0, 10), (80.0, 5), (200.0, 3)]:
        ref = 2.0 * sps.t.sf(t, df)
        assert t_sf_two_sided(t, df) == pytest.approx(ref, rel=1e-10)
        assert t_sf_two_sided(t, df) > 0.0
    assert t_sf_two_sided(0.0, 5) == pytest.approx(1.0)


@given(st.floats(-50, 50, allow_nan=False), st.integers(1, 100))
def test_t_sf_symmetry_and_range(t, df):
    p = t_sf_two_sided(t, df)
    assert 0.0 <= p <= 1.0
    assert p == t_sf_two_sided(-t, df)


def test_bh_all_rejected():
    rejections, adjusted = bh_fdr([0.01, 0.02, 0.03, 0.04], q=0.05)
    assert rejections == [True, True, True, True]
    assert adjusted == pytest.approx([0.04, 0.04, 0.04, 0.04])


def test_bh_none_rejected():
    rejections, adjusted = bh_fdr([0.03, 0.5], q=0.05)
    assert rejections == [False, False]
    assert adjusted == pytest.approx([0.06, 0.5])


def test_bh_preserves_input_order():
    p = [0.5, 0.001, 0.04, 0.2]
    rejections, adjusted = bh_fdr(p, q=0.05)
    assert rejections == [False, True, False, False]
    order = np.argsort(adjusted)
    assert list(order) == list(np.argsort(p, kind="mergesort"))


def test_bh_input_validation():
    with pytest.raises(ValueError):
        bh_fdr([0.5, 1.2])
    with pytest.raises(ValueError):
        bh_fdr([-0.1])


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30))
def test_bh_properties(p):
    rejections, adjusted = bh_fdr(p, q=0.05)
    assert all(0.0 <= a <= 1.0 for a in adjusted)
    # adjusted p-values never drop below raw ones
    assert all(a >= raw - 1e-12 for a, raw in zip(adjusted, p))
    # rejection set is a lower set of the raw p-values
    if any(rejections):
        cutoff = max(raw for raw, r in zip(p, rejections) if r)
        assert all(r for raw, r in zip(p, rejections) if raw < cutoff)


def test_mean_ci95_hand_case():
    mean, hw = mean_ci95([0.0, 1.0])
    assert mean == 0.5
    # df=1 is Cauchy: t_{0.975} = tan(0.475 pi); halfwidth = tcrit * (sd/sqrt(2)) = tcrit/2
    assert hw == pytest.approx(math.tan(0.475 * math.pi) / 2.0, rel=1e-10)


def test_mean_ci95_coverage():
    rng = CounterRng(23)
    hits = 0
    reps = 2000
    for _ in range(reps):
        sample = [rng.normal() for _ in range(5)]
        mean, hw = mean_ci95(sample)
        hits += (mean - hw) <= 0.0 <= (mean + hw)
    assert 0.93 <= hits / reps <= 0.97


def test_t_quantile_halfwidths_match_scipy_stats_bit_for_bit():
    rng = CounterRng(41)
    for df in range(1, 201):
        sample = [rng.normal() for _ in range(df + 1)]
        _, hw = mean_ci95(sample)
        sd = float(np.std(sample, ddof=1))
        assert hw == float(sps.t.ppf(0.975, df)) * sd / math.sqrt(df + 1)

        effects = [TaskEffect(f"t{k}", rng.normal(), 0.05 + rng.uniform()) for k in range(df + 2)]
        res = pet_peese(effects)
        chosen = peese(effects) if res.method_chosen == "PEESE" else pet(effects)
        assert chosen.df == df
        half = float(sps.t.ppf(0.975, df)) * chosen.intercept_se
        assert res.ci95 == (chosen.intercept - half, chosen.intercept + half)


def test_pearson_hand_cases():
    r, p = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert r == 1.0 and p == 0.0
    r, p = pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert r == -1.0 and p == 0.0
    # deviations (+-1.5, +-0.5): sum xy = 4, sum x^2 = sum y^2 = 5, r = 4/5
    r, p = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    assert r == pytest.approx(4.0 / 5.0)
    ref = sps.pearsonr([1, 2, 3, 4], [1, 3, 2, 4])
    assert p == pytest.approx(ref.pvalue, rel=1e-9)


def test_pearson_affine_invariance():
    rng = CounterRng(29)
    x = [rng.normal() for _ in range(20)]
    y = [rng.normal() for _ in range(20)]
    r0, p0 = pearson(x, y)
    r1, p1 = pearson([3.0 * v + 7.0 for v in x], [0.5 * v - 2.0 for v in y])
    assert r1 == pytest.approx(r0, abs=1e-12)
    assert p1 == pytest.approx(p0, abs=1e-12)
    r2, _ = pearson([-1.0 * v for v in x], y)
    assert r2 == pytest.approx(-r0, abs=1e-12)


def test_pearson_constant_input():
    with pytest.raises(ValueError, match="constant"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_cohen_kappa_hand_cases():
    assert cohen_kappa([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0
    # observed agreement equals chance agreement
    assert cohen_kappa([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    assert cohen_kappa([0, 0, 1], [0, 1, 1]) == pytest.approx(0.4)
    # p_o = 3/4, p_e = (3*2 + 1*2)/16 = 1/2 under the standard formula
    assert cohen_kappa(list("AAAB"), list("AABB")) == pytest.approx(0.5)
    # agreement 2/3 with symmetric marginals: p_e = 1/2, kappa = 1/3
    assert cohen_kappa(list("AAABBB"), list("AABABB")) == pytest.approx(1.0 / 3.0)
    # both constant and equal
    assert cohen_kappa([1, 1], [1, 1]) == 1.0


def test_cohen_kappa_symmetry():
    rng = CounterRng(31)
    a = [rng.randint(3) for _ in range(40)]
    b = [rng.randint(3) for _ in range(40)]
    assert cohen_kappa(a, b) == pytest.approx(cohen_kappa(b, a), abs=1e-12)


def test_cohen_kappa_validation():
    with pytest.raises(ValueError):
        cohen_kappa([], [])
    with pytest.raises(ValueError):
        cohen_kappa([1], [1, 2])
