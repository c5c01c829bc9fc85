"""Independent brute-force oracles used only by the tests.

These deliberately avoid the recurrence/closed-form code paths they check:
explicit series sums in exact rational arithmetic, truncated Hermite-Gauss
mode sums, and dense Riemann binning.
"""
import math
from fractions import Fraction

import numpy as np


def _hermite_terms(n: int, x: float):
    xf = Fraction(x)
    for j in range(n // 2 + 1):
        yield Fraction(
            (-1) ** j * math.factorial(n), math.factorial(j) * math.factorial(n - 2 * j)
        ) * (2 * xf) ** (n - 2 * j)


def hermite_series(n: int, x: float) -> float:
    """Exact explicit sum H_n(x) = n! sum_j (-1)^j (2x)^(n-2j) / (j! (n-2j)!)."""
    return float(sum(_hermite_terms(n, x), Fraction(0)))


def hermite_series_scale(n: int, x: float) -> float:
    """Sum of absolute series terms; the attainable float accuracy scale."""
    return float(sum(abs(t) for t in _hermite_terms(n, x)))


def _laguerre_terms(m: int, alpha: int, x: float):
    xf = Fraction(x)
    for j in range(m + 1):
        yield Fraction((-1) ** j * math.comb(m + alpha, m - j), math.factorial(j)) * xf ** j


def laguerre_series(m: int, alpha: int, x: float) -> float:
    """Exact explicit sum L_m^alpha(x) = sum_j (-1)^j C(m+alpha, m-j) x^j / j!."""
    return float(sum(_laguerre_terms(m, alpha, x), Fraction(0)))


def laguerre_series_scale(m: int, alpha: int, x: float) -> float:
    """Sum of absolute series terms; the attainable float accuracy scale."""
    return float(sum(abs(t) for t in _laguerre_terms(m, alpha, x)))


def gauss_weight_moment(k: int) -> float:
    """Exact integral of x^k exp(-x^2) over the real line."""
    if k % 2 == 1:
        return 0.0
    return math.gamma((k + 1) / 2.0)


def mode_sum_intensity(x, d, model, kind):
    """Marginal intensity as the truncated mode sum sum_m w_m (hg_m(x-d)^2 + hg_m(x+d)^2)/2.

    'gaussian' keeps the fundamental mode alone; 'spdc' weights the reduced
    one-photon modes by w_m = (1-q) q^m, summed until q^m < 1e-17.
    """
    from bispade import hg1d_batch

    if kind == "gaussian":
        weights = np.ones(1)
    else:
        count = 1
        while model.q ** count >= 1e-17:
            count += 1
        weights = (1.0 - model.q) * model.q ** np.arange(count)
    xs = np.asarray(x, dtype=float)
    minus = hg1d_batch(len(weights) - 1, xs - d)
    plus = hg1d_batch(len(weights) - 1, xs + d)
    return 0.5 * (weights @ (minus * minus) + weights @ (plus * plus))


def riemann_pixel_probs(d, grid, model, kind, points: int = 10_000) -> np.ndarray:
    """Midpoint-rule binning of the mode-sum intensity on a dense uniform grid."""
    lo, hi = grid.span
    step = (hi - lo) / points
    xs = lo + (np.arange(points) + 0.5) * step
    intensity = mode_sum_intensity(xs, d, model, kind)
    per_pixel = points // grid.count
    probs = intensity.reshape(grid.count, per_pixel).sum(axis=1) * step
    return np.append(probs, 1.0 - probs.sum())
