"""Overlaps between Hermite-Gauss modes and laterally displaced copies.

_overlap_amplitudes is the one overlap kernel, read by the forward maps and by
displaced_overlap; quad_overlap integrates the same overlap as a check.

Convention: d is the adimensional per-arm shift (each incoherent component of
the mixture sits at +d or -d), and the estimand is the total separation
delta = 2*d. A physical shift converts as d = sqrt(2) * d_phys / sigma_s.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .source import _mode_indices

__all__ = ["displaced_overlap", "quad_overlap"]

_MAX_QUADRATURE_ORDER = 512
# largest table whose layout is cached: a larger layout costs tens of megabytes,
# and its table overflows near this order anyway
_MAX_CACHED_ORDER = 1000


@lru_cache(maxsize=32)
def _overlap_layout(n: int):
    # everything in _overlap_amplitudes that depends on the table size alone:
    # Laguerre recurrence coefficients per degree, the (min, |difference|)
    # index of each table cell, 0.5*log(min!/max!) per cell, and the cells with
    # an odd difference and with the row index above the column index (the sign
    # pattern of the amplitudes)
    order = np.arange(n + 1.0)
    steps = tuple(
        ((2.0 * m + 1.0 + order[: n - m]) / (m + 1.0), (m + order[: n - m]) / (m + 1.0))
        for m in range(1, n)
    )
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(order[1:]))))
    index = np.arange(n + 1)
    lo = np.minimum.outer(index, index)
    gap = np.abs(np.subtract.outer(index, index))
    half_log_ratio = 0.5 * (log_fact[lo] - log_fact[lo + gap])
    odd = gap % 2 == 1
    below = np.greater.outer(index, index)
    for array in (order, lo, gap, half_log_ratio, odd, below, *(c for st in steps for c in st)):
        array.flags.writeable = False
    return order, steps, lo, gap, half_log_ratio, odd, below


def _overlap_amplitudes(n: int, d: np.ndarray) -> np.ndarray:
    """Signed amplitudes <m|n',d> for m, n' <= n, one table per separation in d.

    For m <= n' the amplitude is sqrt(m!/n'!) alpha^(n'-m) exp(-alpha^2/2)
    L_m^(n'-m)(alpha^2) with alpha = d/sqrt(2) (Cahill & Glauber, Phys. Rev. 177,
    1857 (1969)); exchanging m and n' flips the sign of d. The Laguerre values
    come from their upward recurrence in m, run for every order n'-m and every
    separation at once. The displaced-number-state recurrence in n' is not used:
    its rounding errors grow with n'*d (1e-2 in the square at n' = 100, d = 3).
    Returns shape (len(d), n+1, n+1); raises NumericalError where the table
    overflows (mode orders above about 1000) or cannot be allocated.
    """
    x = 0.5 * d * d
    # the table before its layout: an order within rounding of 2**63 has an empty
    # float64 order range, and its layout would loop over range(1, n)
    try:
        lag = np.zeros((len(d), n + 1, n + 1))
    except (ValueError, MemoryError) as exc:
        raise NumericalError(f"overlap table for mode orders up to {n} is too large") from exc
    layout = _overlap_layout if n <= _MAX_CACHED_ORDER else _overlap_layout.__wrapped__
    order, steps, lo, gap, half_log_ratio, odd, below = layout(n)
    lag[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if n:
            lag[:, 1, :n] = 1.0 + order[:n] - x[:, None]
        for m, (slope, lag_weight) in enumerate(steps, start=1):
            w = n - m
            lag[:, m + 1, :w] = (
                (slope - (x / (m + 1.0))[:, None]) * lag[:, m, :w] - lag_weight * lag[:, m - 1, :w]
            )
        # x^(gap/2) in log space; at x = 0 the table is the identity, set below
        half_log_x = 0.5 * np.log(np.where(x > 0.0, x, 1.0))
        amp = np.exp(half_log_ratio + half_log_x[:, None, None] * gap - 0.5 * x[:, None, None])
        amp *= lag[:, lo, gap]
    amp[x == 0.0] = np.eye(n + 1)
    if not np.all(np.isfinite(amp)):
        raise NumericalError(f"overlap table overflows for mode orders up to {n}")
    flip = odd & (below != (d < 0.0)[:, None, None])
    return np.where(flip, -amp, amp)


def displaced_overlap(m: int, n: int, d: float, sign: int = 1) -> float:
    """Exact inner product of mode m with mode n displaced by sign*d.

    One cell of the _overlap_amplitudes table: for n >= m it is
    sqrt(m!/n!) 2^((m-n)/2) (sign*d)^(n-m) exp(-d^2/4) L_m^(n-m)(d^2/2), and m > n
    swaps the modes and flips the sign. Raises NumericalError where the table
    overflows (mode orders above about 1000).
    """
    _mode_indices(m=m, n=n)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return float(_overlap_amplitudes(max(m, n), np.array([sign * d], dtype=float))[0, m, n])


@lru_cache(maxsize=64)
def _gauss_hermite(order: int):
    # Gauss-Hermite nodes and weights for integrals against exp(-x^2)
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _hermite_rows(max_m: int, x: np.ndarray) -> np.ndarray:
    # (2^m m! sqrt(pi))^(-1/2) H_m(x) for m = 0..max_m, by the normalized
    # three-term recurrence; raw factorials and H_m overflow past m ~ 20
    out = np.empty((max_m + 1,) + x.shape)
    out[0] = math.pi ** -0.25
    if max_m >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for m in range(1, max_m):
        out[m + 1] = math.sqrt(2.0 / (m + 1)) * x * out[m] - math.sqrt(m / (m + 1)) * out[m - 1]
    return out


def quad_overlap(m: int, n: int, shift: float) -> float:
    """Brute-force overlap integral of Hermite-Gauss modes m at x and n at x - shift.

    The centered substitution u = x - shift/2 factors the joint Gaussian
    envelope into exp(-u^2) exp(-shift^2/4) exactly, leaving a polynomial of
    degree m+n that Gauss-Hermite quadrature of 2(m+n)+20 nodes integrates
    without truncation error. It shares no code with displaced_overlap and
    serves as its check.

    Sign bookkeeping: the mode n at x - shift is centered at +shift, so this
    integral equals displaced_overlap(m, n, shift, sign=-1).
    """
    _mode_indices(m=m, n=n)
    order = 2 * (int(m) + int(n)) + 20  # Python ints: an int64 sum can wrap
    if order > _MAX_QUADRATURE_ORDER:
        raise ValueError(
            f"modes ({m}, {n}) need quadrature order {order}, "
            f"above the supported {_MAX_QUADRATURE_ORDER}"
        )
    nodes, weights = _gauss_hermite(order)
    left = _hermite_rows(m, nodes + 0.5 * shift)[m]
    right = _hermite_rows(n, nodes - 0.5 * shift)[n]
    return math.exp(-0.25 * shift * shift) * float(np.dot(weights, left * right))
