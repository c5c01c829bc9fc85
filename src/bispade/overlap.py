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

from .source import NumericalError, _mode_indices

__all__ = ["displaced_overlap", "quad_overlap"]

# largest Gauss-Hermite rule whose numpy weights are all finite and nonzero: from 371
# nodes on, the smallest weights underflow to 0, and from 372 on they are nan
_MAX_QUADRATURE_ORDER = 370
# largest table whose layout is cached: a larger layout costs tens of megabytes,
# and its table overflows near this order anyway
_MAX_CACHED_ORDER = 1000
# Laguerre degrees whose recurrence factors an overlap table computes in one pass:
# all of them up to this order, and for a larger order a buffer of a few table rows
_DEGREES = 32


@lru_cache(maxsize=32)
def _overlap_layout(n: int):
    # everything in _overlap_amplitudes that depends on the table size alone: the
    # degree-1 Laguerre values 1 + order at x = 0, the recurrence coefficients of each
    # degree m = 1 .. n-1 over every order 0 .. n (the weight of L_(m-1), the slope,
    # and m + 1, which divides x), the flat (min, |difference|) index of each table
    # cell and its |difference| as a float, 0.5*log(min!/max!) per cell, and the sign
    # of each amplitude at d >= 0: -1 at the cells with an odd difference and the row
    # index above the column index
    order = np.arange(n + 1.0)
    degree = np.arange(1.0, max(n, 1))[:, None]
    divisor = degree + 1.0
    lag_weight = ((degree + order) / divisor)[:, :, None]
    slope = ((2.0 * degree + 1.0 + order) / divisor)[:, :, None]
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(order[1:]))))
    index = np.arange(n + 1)
    lo = np.minimum.outer(index, index)
    gap = np.abs(np.subtract.outer(index, index))
    cells = lo * (n + 1) + gap
    half_log_ratio = 0.5 * (log_fact[lo] - log_fact[lo + gap])
    sign = np.where((gap % 2 == 1) & np.greater.outer(index, index), -1.0, 1.0)
    gap = gap.astype(float)
    one_plus_order = (1.0 + order)[:, None]
    for array in (one_plus_order, lag_weight, slope, divisor, cells, gap, half_log_ratio, sign):
        array.flags.writeable = False
    return one_plus_order, lag_weight, slope, divisor, cells, gap, half_log_ratio, sign


def _overlap_amplitudes(n: int, d: np.ndarray) -> np.ndarray:
    """Signed amplitudes <m|n',d> for m, n' <= n, one table per separation in d.

    For m <= n' the amplitude is sqrt(m!/n'!) alpha^(n'-m) exp(-alpha^2/2)
    L_m^(n'-m)(alpha^2) with alpha = d/sqrt(2) (Cahill & Glauber, Phys. Rev. 177,
    1857 (1969)); exchanging m and n' flips the sign of d. The Laguerre values
    come from their upward recurrence in m, run for every order n'-m and every
    separation at once. The displaced-number-state recurrence in n' is not used:
    its rounding errors grow with n'*d (1e-2 in the square at n' = 100, d = 3).
    Returns shape (len(d), n+1, n+1); raises NumericalError where the table
    overflows (mode orders above about 1000) or it or its layout cannot be allocated.
    """
    x = 0.5 * d * d
    # the table before its layout: an order within rounding of 2**63 has an empty
    # float64 order range, and its layout would loop over range(1, n)
    try:
        lag = np.empty((n + 1, n + 1, len(d)))
        layout = _overlap_layout if n <= _MAX_CACHED_ORDER else _overlap_layout.__wrapped__
        one_plus_order, lag_weight, slope, divisor, cells, gap, half_log_ratio, sign = layout(n)
        # per degree m, the factors [lag_weight; slope - x / (m + 1)] of L_(m-1) and L_m,
        # for up to _DEGREES degrees at a time
        factors = np.empty((min(len(slope), _DEGREES), 2, n + 1, len(d)))
    except (ValueError, MemoryError) as exc:
        raise NumericalError(f"overlap table for mode orders up to {n} is too large") from exc
    zero = not x.all()
    lag[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if n:
            np.subtract(one_plus_order, x, out=lag[1])
        # L_(m+1) = (slope - x / (m + 1)) L_m - lag_weight L_(m-1) at every order, each
        # degree one product of contiguous blocks and one difference; the cells of order
        # above n - m are never read
        for first in range(0, len(slope), _DEGREES):
            degrees = slice(first, first + _DEGREES)
            block = factors[: len(slope[degrees])]
            block[:, 0] = lag_weight[degrees]
            np.subtract(slope[degrees], (x / divisor[degrees])[:, None], out=block[:, 1])
            for m, pair in enumerate(block, start=first + 1):
                np.multiply(pair, lag[m - 1 : m + 1], out=pair)
                np.subtract(pair[1], pair[0], out=lag[m + 1])
        # x^(gap/2) in log space; at x = 0 the table is the identity, set below
        half_log_x = 0.5 * np.log(np.where(x > 0.0, x, 1.0) if zero else x)
        amp = half_log_x[:, None, None] * gap
        amp += half_log_ratio
        amp -= 0.5 * x[:, None, None]
        np.exp(amp, out=amp)
        amp *= lag.reshape((n + 1) ** 2, len(d))[cells].transpose(2, 0, 1)
    if zero:
        amp[x == 0.0] = np.eye(n + 1)
    if not np.isfinite(amp).all():
        raise NumericalError(f"overlap table overflows for mode orders up to {n}")
    amp *= sign
    negative = d < 0.0
    if negative.any():
        # the table at -d is the transpose of the table at d
        amp[negative] = amp[negative].transpose(0, 2, 1)
    return amp


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
