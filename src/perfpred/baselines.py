"""Scale-only reference predictors.

Three baselines that use only parameter count N and token count D:
a Kaplan-form power law, ordinary least squares on (log10 N, log10 D),
and a constant median predictor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import leastsq

from .metrics import r_squared


@dataclass(frozen=True)
class PowerLawParams:
    Nc: float
    Dc: float
    alphaN: float
    alphaD: float

    def __post_init__(self):
        if min(self.Nc, self.Dc, self.alphaN, self.alphaD) <= 0:
            raise ValueError("power-law parameters must be positive")


@dataclass(frozen=True)
class ScalePoint:
    N: float
    D: float
    target: float

    def __post_init__(self):
        if self.N <= 0 or self.D <= 0:
            raise ValueError("N and D must be positive")


def eval_power_law(params: PowerLawParams, N, D):
    """((Nc/N)^(aN/aD) + Dc/D)^aD; strictly decreasing in N and D."""
    N = np.asarray(N, dtype=float)
    D = np.asarray(D, dtype=float)
    if (N <= 0).any() if N.ndim else N <= 0:
        raise ValueError("N must be positive")
    if (D <= 0).any() if D.ndim else D <= 0:
        raise ValueError("D must be positive")
    inner = (params.Nc / N) ** (params.alphaN / params.alphaD) + params.Dc / D
    out = inner ** params.alphaD
    return out if out.ndim else float(out)


def loss_target(score: float, polarity: str) -> float:
    """Map a score to the decreasing loss-like quantity the power law fits.

    1 - score for higher-better metrics, score/2 for Brier; both fall as
    capability rises, matching the monotone-decreasing functional form.
    """
    return 1.0 - score if polarity == "higher_better" else score / 2.0


def target_to_score(target: float, polarity: str) -> float:
    return 1.0 - target if polarity == "higher_better" else 2.0 * target


def _residuals(logp, logN: np.ndarray, logD: np.ndarray, t: np.ndarray) -> np.ndarray:
    # log-parameterization keeps Nc, Dc, alphas positive; distant starts can
    # overflow to inf, which just makes them lose the multi-start comparison
    # (fit_power_law runs this under one np.errstate for the whole fit).
    # logp is four numpy scalars, or a block's three columns and its alpha_D
    lNc, lDc, laN, laD = logp
    aD = np.exp(laD)
    inner = np.exp((lNc - logN) * (np.exp(laN) / aD)) + np.exp(lDc - logD)
    return inner ** aD - t


def _block_residuals(P: np.ndarray, laD, logN, logD, t) -> np.ndarray:
    """``_residuals`` at each row (lNc, lDc, laN) of ``P``, all with the one
    exponent ``laD``: one row of residuals per row of ``P``. numpy raises to
    a scalar 0.5 by ``sqrt`` and to an array of exponents by ``pow``, whose
    bits differ, so a block never mixes exponents."""
    return _residuals((*P.T[:, :, None], laD), logN, logD, t)


_REL_STEP = np.finfo(float).eps ** 0.5


class _LastResiduals:
    """``_residuals`` that keeps its last value, and the Jacobian from it.
    ``lmder`` asks for the Jacobian at the point it has just evaluated, so
    the forward differences start from that value when the point is
    byte-equal to it."""

    point = value = None

    def __call__(self, logp, logN, logD, t):
        self.point, self.value = logp.tobytes(), _residuals(logp, logN, logD, t)
        return self.value

    def jacobian(self, logp, logN, logD, t):
        """Forward-difference Jacobian with scipy's 2-point step rule.

        Column i holds the residuals at ``logp`` with coordinate i stepped,
        as in ``scipy.optimize.approx_derivative``, so every entry is
        bit-equal to the Jacobian ``least_squares(method="lm")`` estimates.
        The first three steps keep alpha_D, so they are one block.
        """
        f0 = self.value if logp.tobytes() == self.point else _residuals(logp, logN, logD, t)
        h = _REL_STEP * ((logp >= 0) * 2.0 - 1.0) * np.maximum(1.0, np.abs(logp))
        stepped = logp + h
        P = np.repeat(logp[None, :3], 3, axis=0)
        np.fill_diagonal(P, stepped[:3])
        J = np.empty((len(logp), len(f0)))
        np.subtract(_block_residuals(P, logp[3], logN, logD, t), f0, out=J[:3])
        np.subtract(_residuals((*logp[:3], stepped[3]), logN, logD, t), f0, out=J[3])
        J /= (stepped - logp)[:, None]
        return J.T

def fit_power_law(points: list[ScalePoint], polarity: str = "higher_better"):
    """Multi-start nonlinear least squares for the Kaplan-form law.

    The 16 best of 256 grid starts with finite residuals are refined by
    MINPACK's Levenberg-Marquardt (``lmder`` through ``scipy.optimize.leastsq``)
    with a forward-difference Jacobian that uses scipy's 2-point step rule.
    Returns (PowerLawParams, R^2), with R^2 computed on the original score
    scale after inverting the loss-target transform.
    """
    if len(points) < 8:
        raise ValueError("need at least 8 points to fit a power law")
    N = np.array([p.N for p in points])
    D = np.array([p.D for p in points])
    if np.log10(N.max() / N.min()) <= 1.0 or np.log10(D.max() / D.min()) <= 1.0:
        raise ValueError("points must span more than one order of magnitude in N and D")
    scores = np.array([p.target for p in points])
    t = np.array([loss_target(s, polarity) for s in scores])
    if np.allclose(t, t[0]):
        raise ValueError("degenerate fit: all targets identical")
    logN, logD = np.log(N), np.log(D)

    # multi-modal objective: seed from a log-spaced grid and refine the best
    scale_starts = np.log(np.logspace(6, 15, 4))
    alpha_starts = np.log(np.array([0.05, 0.1, 0.3, 0.5]))
    starts = [
        np.array(s)
        for s in itertools.product(scale_starts, scale_starts, alpha_starts, alpha_starts)
    ]
    best_x, best_cost = None, None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the starts with the j-th alpha_D are starts[j::4]: one block each
        residuals = np.empty((len(starts), len(t)))
        for j, laD in enumerate(alpha_starts):
            residuals[j::4] = _block_residuals(np.array(starts[j::4])[:, :3], laD, logN, logD, t)
        sse = np.add.reduce(residuals ** 2, axis=1).tolist()
        seeded = sorted(range(len(starts)), key=lambda i: (sse[i], i))
        refinable = [i for i in seeded if np.isfinite(residuals[i]).all()][:16]
        if not refinable:
            raise ValueError("every power-law start overflows: residuals are not finite")
        for i in refinable:
            # the arguments least_squares(method="lm") hands to lmder
            residuals_at = _LastResiduals()
            x, _, info, _, _ = leastsq(residuals_at, starts[i], args=(logN, logD, t),
                                       Dfun=residuals_at.jacobian, full_output=True,
                                       ftol=1e-8, xtol=1e-8, gtol=1e-8,
                                       maxfev=2000, factor=100, diag=None)
            cost = 0.5 * np.dot(info["fvec"], info["fvec"])
            if best_cost is None or cost < best_cost - 1e-15:
                best_x, best_cost = x, cost
    lNc, lDc, laN, laD = best_x
    params = PowerLawParams(float(np.exp(lNc)), float(np.exp(lDc)), float(np.exp(laN)), float(np.exp(laD)))
    pred_scores = np.array([target_to_score(v, polarity) for v in eval_power_law(params, N, D)])
    return params, r_squared(pred_scores, scores)


def predict_power_law_score(params: PowerLawParams, N, D, polarity: str):
    return target_to_score(eval_power_law(params, N, D), polarity)


def fit_log_linear(points: list[ScalePoint]) -> tuple[float, float, float]:
    """OLS for s = a + b log10 N + c log10 D on the raw score."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    X = np.column_stack([
        np.ones(len(points)),
        np.log10([p.N for p in points]),
        np.log10([p.D for p in points]),
    ])
    y = np.array([p.target for p in points])
    if np.linalg.matrix_rank(X) < 3:
        raise ValueError("design matrix is rank deficient")
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    a, b, c = coef
    return float(a), float(b), float(c)


def median_predictor(train_targets) -> float:
    """Constant predictor: median of the training targets (midpoint for even n)."""
    if len(train_targets) == 0:
        raise ValueError("empty input")
    return float(np.median(np.asarray(train_targets, dtype=float)))
