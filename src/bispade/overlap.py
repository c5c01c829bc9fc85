"""Overlaps between Hermite-Gauss modes and laterally displaced copies.

Convention: d is the adimensional per-arm shift (each incoherent component of
the mixture sits at +d or -d), and the estimand is the total separation
delta = 2*d. A physical shift converts as d = sqrt(2) * d_phys / sigma_s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .specfun import laguerre

__all__ = [
    "Displacement",
    "adimensional_shift",
    "physical_shift",
    "displaced_overlap",
    "overlap_first_order",
]


def adimensional_shift(d_phys: float, sigma_s: float) -> float:
    """Per-arm shift in envelope units from a physical shift sharing sigma_s's units."""
    if not sigma_s > 0:
        raise ValueError("sigma_s must be positive")
    return math.sqrt(2.0) * d_phys / sigma_s


def physical_shift(d: float, sigma_s: float) -> float:
    """Inverse of adimensional_shift."""
    if not sigma_s > 0:
        raise ValueError("sigma_s must be positive")
    return d * sigma_s / math.sqrt(2.0)


@dataclass(frozen=True)
class Displacement:
    """Per-arm lateral shift; the +- component signs are handled at call sites."""

    d: float

    def __post_init__(self):
        if not self.d >= 0:
            raise ValueError("stored shift must be non-negative; use the sign argument")

    @property
    def delta(self) -> float:
        """Total separation between the two displaced components."""
        return 2.0 * self.d


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def displaced_overlap(m: int, n: int, d: float, sign: int = 1) -> float:
    """Exact inner product of mode m with mode n displaced by sign*d.

    For n >= m:
        sqrt(m!/n!) 2^((m-n)/2) (sign*d)^(n-m) exp(-d^2/4) L_m^(n-m)(d^2/2)
    with the prefactor kept in log space. The m > n case uses the exchange
    symmetry: swap the modes and flip the sign (one code path, no second
    formula branch). Raises NumericalError where the evaluation overflows:
    mode orders above about 1000, or d^(n-m) past the float range.
    """
    if m < 0 or n < 0:
        raise ValueError("mode indices must be non-negative")
    _check_sign(sign)
    if m > n:
        return displaced_overlap(n, m, d, -sign)
    log_pref = 0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)) + 0.5 * (m - n) * math.log(2.0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = (
                (sign * d) ** (n - m)
                * math.exp(log_pref - 0.25 * d * d)
                * laguerre(m, n - m, 0.5 * d * d)
            )
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NumericalError(f"overlap overflows for mode orders up to {n}")
    return value


def overlap_first_order(m: int, n: int, d: float, sign: int = 1) -> float:
    """First-order (in d) approximation of displaced_overlap, for |d| << 1.

    The displaced mode expands as
        |n +- d> = |n> + sign*d*(sqrt(n/2)|n-1> - sqrt((n+1)/2)|n+1>) + O(d^2),
    so only the diagonal and the two neighbouring modes survive.
    """
    if m < 0 or n < 0:
        raise ValueError("mode indices must be non-negative")
    _check_sign(sign)
    if m == n:
        return 1.0
    if m == n - 1:
        return sign * d * math.sqrt(0.5 * n)
    if m == n + 1:
        return -sign * d * math.sqrt(0.5 * (n + 1))
    return 0.0
