import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

from perfpred import baselines
from perfpred.baselines import (
    PowerLawParams,
    ScalePoint,
    eval_power_law,
    fit_log_linear,
    fit_power_law,
    loss_target,
    median_predictor,
    predict_power_law_score,
    target_to_score,
)
from perfpred.metrics import r_squared
from perfpred.prng import CounterRng


def test_eval_power_law_hand_cases():
    # Nc = N and Dc = D: inner = 1 + 1 = 2, so L = 2^alphaD
    p = PowerLawParams(1e9, 1e11, 0.3, 0.25)
    assert eval_power_law(p, 1e9, 1e11) == pytest.approx(2.0 ** 0.25)
    # equal exponents, inner terms 4 and 5: L = 9^0.5 = 3
    q = PowerLawParams(4e9, 5e11, 0.5, 0.5)
    assert eval_power_law(q, 1e9, 1e11) == pytest.approx(3.0)


def test_eval_power_law_monotone_decreasing():
    p = PowerLawParams(8.8e13, 5.4e13, 0.076, 0.095)
    ns = np.logspace(7, 11, 30)
    along_n = eval_power_law(p, ns, np.full(30, 1e11))
    assert (np.diff(along_n) < 0).all()
    ds = np.logspace(9, 13, 30)
    along_d = eval_power_law(p, np.full(30, 1e9), ds)
    assert (np.diff(along_d) < 0).all()


def test_eval_power_law_rejects_nonpositive():
    p = PowerLawParams(1e9, 1e11, 0.3, 0.25)
    with pytest.raises(ValueError):
        eval_power_law(p, -1.0, 1e11)
    with pytest.raises(ValueError):
        eval_power_law(p, 1e9, 0.0)
    with pytest.raises(ValueError):
        PowerLawParams(0.0, 1e11, 0.3, 0.25)


def test_loss_target_transforms():
    assert loss_target(0.7, "higher_better") == pytest.approx(0.3)
    assert loss_target(1.4, "lower_better") == pytest.approx(0.7)
    for s, pol in [(0.37, "higher_better"), (1.11, "lower_better")]:
        assert target_to_score(loss_target(s, pol), pol) == pytest.approx(s)


def _design_points(params, polarity="higher_better"):
    pts = []
    for lN in np.linspace(7, 11, 6):
        for lD in np.linspace(9, 13, 6):
            t = eval_power_law(params, 10.0 ** lN, 10.0 ** lD)
            pts.append(ScalePoint(10.0 ** lN, 10.0 ** lD, target_to_score(t, polarity)))
    return pts


def test_fit_power_law_recovers_noiseless_parameters():
    true = PowerLawParams(8.8e13, 5.4e13, 0.076, 0.095)
    fitted, r2 = fit_power_law(_design_points(true), "higher_better")
    assert r2 > 0.999
    for got, want in [(fitted.Nc, true.Nc), (fitted.Dc, true.Dc),
                      (fitted.alphaN, true.alphaN), (fitted.alphaD, true.alphaD)]:
        assert abs(got / want - 1.0) < 1e-6


def test_fit_power_law_brier_polarity():
    true = PowerLawParams(1e12, 1e12, 0.2, 0.15)
    pts = _design_points(true, "lower_better")
    fitted, r2 = fit_power_law(pts, "lower_better")
    assert r2 > 0.999
    assert abs(fitted.alphaN / true.alphaN - 1.0) < 1e-4
    pred = predict_power_law_score(fitted, pts[0].N, pts[0].D, "lower_better")
    assert pred == pytest.approx(pts[0].target, rel=1e-6)


def test_fit_power_law_input_validation():
    true = PowerLawParams(1e12, 1e12, 0.2, 0.15)
    pts = _design_points(true)
    with pytest.raises(ValueError, match="at least 8"):
        fit_power_law(pts[:7])
    narrow = [ScalePoint(1e9 * (1 + 0.01 * i), p.D, p.target)
              for i, p in enumerate(pts[:12])]
    with pytest.raises(ValueError, match="order of magnitude"):
        fit_power_law(narrow)
    flat = [ScalePoint(p.N, p.D, 0.5) for p in pts]
    with pytest.raises(ValueError, match="degenerate"):
        fit_power_law(flat)


def test_fit_power_law_prediction_invariant_to_point_order():
    true = PowerLawParams(3e12, 2e12, 0.12, 0.2)
    pts = _design_points(true)
    rng = CounterRng(7)
    shuffled = list(pts)
    rng.shuffle(shuffled)
    f1, _ = fit_power_law(pts)
    f2, _ = fit_power_law(shuffled)
    for n, d in [(1e8, 1e10), (5e10, 5e12)]:
        assert eval_power_law(f1, n, d) == pytest.approx(eval_power_law(f2, n, d), rel=1e-8)


def _least_squares_fit(points, polarity):
    """The multi-start loop as it ran on scipy's least_squares(method="lm").

    Returns (params, R^2, alphaD of the winning start).
    """
    N = np.array([p.N for p in points])
    D = np.array([p.D for p in points])
    scores = np.array([p.target for p in points])
    t = np.array([loss_target(s, polarity) for s in scores])
    logN, logD = np.log(N), np.log(D)
    scale_starts = np.log(np.logspace(6, 15, 4))
    alpha_starts = np.log(np.array([0.05, 0.1, 0.3, 0.5]))
    starts = [np.array(s) for s in
              itertools.product(scale_starts, scale_starts, alpha_starts, alpha_starts)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        seeded = sorted(range(len(starts)), key=lambda i: (
            float(np.sum(baselines._residuals(starts[i], logN, logD, t) ** 2)), i))
        best = None
        for i in seeded[:16]:
            sol = least_squares(baselines._residuals, starts[i], args=(logN, logD, t),
                                method="lm", max_nfev=2000)
            if best is None or sol.cost < best.cost - 1e-15:
                best, winner = sol, starts[i]
    params = PowerLawParams(*(float(np.exp(v)) for v in best.x))
    pred = np.array([target_to_score(v, polarity) for v in eval_power_law(params, N, D)])
    return params, r_squared(pred, scores), float(np.exp(winner[3]))


def _oracle_points(seed):
    # truths near the start grid keep each fit short; the jitter and the noise
    # still leave every LM run several iterations from its start
    rng = CounterRng(seed)
    polarity = "higher_better" if seed % 2 else "lower_better"
    jitter = lambda: 1.1 ** rng.uniform(-1, 1)
    pick = lambda values: values[rng.randint(len(values))]
    truth = PowerLawParams(pick([1e9, 1e12]) * jitter(), pick([1e9, 1e12]) * jitter(),
                           pick([0.1, 0.3, 0.5]) * jitter(), pick([0.3, 0.5]) * jitter())
    points = []
    for _ in range(8 + seed * 84 // 59):
        n, d = 10 ** rng.uniform(7, 11), 10 ** rng.uniform(9, 13)
        loss = eval_power_law(truth, n, d) * (1 + 0.01 * rng.normal())
        points.append(ScalePoint(n, d, target_to_score(loss, polarity)))
    return points, polarity


def test_fit_power_law_is_byte_equal_to_least_squares_oracle():
    winners = set()
    for seed in range(60):
        points, polarity = _oracle_points(seed)
        params, r2, winner_alpha = _least_squares_fit(points, polarity)
        got_params, got_r2 = fit_power_law(points, polarity)
        assert (got_params, got_r2) == (params, r2), seed
        winners.add(winner_alpha)
    # exp(log(a)) == a for these two, so their first residuals raise to a
    # start's exact alpha
    assert {0.3, 0.5} <= winners
    assert {len(_oracle_points(s)[0]) for s in (0, 59)} == {8, 92}


_LOG_SCALE = st.floats(np.log(1e3), np.log(1e18))
_LOG_ALPHA = st.one_of(st.sampled_from(np.log([0.05, 0.1, 0.3, 0.5]).tolist()),
                       st.floats(np.log(0.01), np.log(3.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(_LOG_SCALE, _LOG_SCALE, _LOG_ALPHA, _LOG_ALPHA),
       st.lists(st.tuples(st.floats(np.log(1e6), np.log(1e13)), st.floats(np.log(1e8), np.log(1e14)),
                          st.floats(0.0, 1.0)), min_size=1, max_size=30))
def test_one_point_residuals_are_bit_equal_to_a_one_row_block(logp, points):
    # the fit's residuals and the Jacobian's alpha_D column take four scalars;
    # the starts and the other Jacobian columns are blocks of rows
    logp = np.array(logp)
    logN, logD, t = (np.array(c) for c in zip(*points))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scalar = baselines._residuals(logp, logN, logD, t)
        block = baselines._block_residuals(logp[None, :3], logp[3], logN, logD, t)
    assert scalar.shape == t.shape
    assert scalar.tobytes() == block[0].tobytes()


def test_fit_power_law_rejects_points_where_every_start_overflows():
    N = np.geomspace(1e7, 1e11, 20)
    D = np.geomspace(1e-318, 1e-300, 20)
    points = [ScalePoint(float(n), float(d), 0.3 + 0.01 * i)
              for i, (n, d) in enumerate(zip(N, D))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="every power-law start overflows"):
            fit_power_law(points)


def test_fit_log_linear_exact_recovery():
    a, b, c = 0.05, 0.07, 0.03
    pts = [ScalePoint(10.0 ** lN, 10.0 ** lD, a + b * lN + c * lD)
           for lN in (7, 8, 9, 10) for lD in (10, 11, 12)]
    got = fit_log_linear(pts)
    assert got == pytest.approx((a, b, c), abs=1e-9)


def test_fit_log_linear_residual_orthogonality():
    rng = CounterRng(3)
    pts = [ScalePoint(10.0 ** rng.uniform(7, 11), 10.0 ** rng.uniform(9, 13),
                      rng.uniform(0, 1)) for _ in range(40)]
    a, b, c = fit_log_linear(pts)
    X = np.column_stack([np.ones(40),
                         np.log10([p.N for p in pts]),
                         np.log10([p.D for p in pts])])
    resid = np.array([p.target for p in pts]) - X @ np.array([a, b, c])
    assert np.abs(X.T @ resid).max() < 1e-8


def test_fit_log_linear_rank_deficient():
    pts = [ScalePoint(1e9, 10.0 ** lD, 0.5) for lD in (10, 11, 12, 13)]
    with pytest.raises(ValueError, match="rank"):
        fit_log_linear(pts)


def test_median_predictor_conventions():
    assert median_predictor([3.0, 1.0, 2.0]) == 2.0
    assert median_predictor([1.0, 2.0, 3.0, 10.0]) == 2.5  # midpoint for even n
    assert median_predictor([7.0]) == 7.0
    with pytest.raises(ValueError):
        median_predictor([])
