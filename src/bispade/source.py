"""Two-photon source model.

The dimensionless parameter gamma fixes the whole mode decomposition: the
coefficients C_mn and the Schmidt number K. gamma can be given directly or
derived from pump/crystal parameters. The module also holds the failure type
every other module raises, NumericalError.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "SchmidtModel",
    "gamma_from_physical",
    "schmidt_coeff",
    "schmidt_number",
]

_MAX_MODE_ORDER = 2**63 - 1  # an int64 holds it, and a float64 sum of two cannot wrap


class NumericalError(RuntimeError):
    """A computation degenerated numerically (vanishing mass, cap hit, non-finite value)."""


def gamma_from_physical(pump_waist: float, crystal_length: float, pump_wavelength: float) -> float:
    """gamma = sqrt(L * lambda_p / (2 pi)) / sigma_p; all lengths in meters."""
    for name, value in (("pump_waist", pump_waist), ("crystal_length", crystal_length),
                        ("pump_wavelength", pump_wavelength)):
        if not _finite_positive(value):
            raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return math.sqrt(crystal_length * pump_wavelength / (2.0 * math.pi)) / pump_waist


def _finite_positive(value) -> bool:
    # any real number but a bool: Python and numpy ints and floats alike
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _is_integer(value) -> bool:
    # a Python or numpy integer, but not a bool; a plain int skips the slower ABC check
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _checked_gamma(gamma) -> float:
    # gamma as a Python float, so that a numpy float32 argument computes in float64
    if not _finite_positive(gamma):
        raise ValueError(f"gamma must be a finite positive number, got {gamma!r}")
    return float(gamma)


def _coefficient_ratio(gamma) -> float:
    # amplitude decay r = |1-gamma| / (1+gamma) per unit of total mode order
    gamma = _checked_gamma(gamma)
    return abs(1.0 - gamma) / (1.0 + gamma)


def _mode_indices(**indices) -> tuple[np.ndarray, ...]:
    # the one mode-order rule: each named index is a Python or numpy integer, not a bool,
    # or an array of integer dtype, from 0 to _MAX_MODE_ORDER; returned as float64 arrays.
    # A sequence that is no array is checked item by item: numpy reads [True, 2] as int64
    arrays = {name: np.asarray(value) for name, value in indices.items() if not _is_integer(value)}
    if not all(np.issubdtype(a.dtype, np.integer) and (a is indices[name] or all(
            map(_is_integer, np.asarray(indices[name], dtype=object).flat)))
               for name, a in arrays.items()):
        named = ", ".join(f"{name}={value!r}" for name, value in indices.items())
        raise ValueError(f"mode indices must be integers, got {named}")
    for name, value in indices.items():
        # a scalar as a Python int, so that one past 2**64 compares by value
        a = arrays.get(name)
        low, high = (int(value),) * 2 if a is None else (a.min(initial=0), a.max(initial=0))
        if low < 0:
            raise ValueError(f"mode indices must be non-negative, got {name}={int(low)!r}")
        if high > _MAX_MODE_ORDER:
            raise ValueError(f"mode indices must be at most 2**63 - 1, got {name}={int(high)!r}")
    return tuple(np.asarray(value).astype(float) for value in indices.values())


def schmidt_coeff(m, n, gamma):
    """Mode coefficient C_mn = (4 gamma / (1+gamma)^2) * r^(m+n).

    Evaluated in log space so large m+n underflows gracefully. Accepts scalar
    indices or arrays of integer dtype; with gamma = 1 only C_00 survives.
    """
    ma, na = _mode_indices(m=m, n=n)
    out = _coefficient(ma + na, gamma)
    return float(out) if ma.ndim == 0 and na.ndim == 0 else out


def _coefficient(order: np.ndarray, gamma) -> np.ndarray:
    # C_mn of total order m + n (a float64 array)
    gamma = _checked_gamma(gamma)
    r = _coefficient_ratio(gamma)
    if r == 0.0:
        return np.where(order == 0.0, 1.0, 0.0)
    log_c00 = math.log(4.0 * gamma) - 2.0 * math.log1p(gamma)
    return np.exp(log_c00 + order * math.log(r))


def schmidt_number(gamma: float) -> float:
    """Effective number of entangled mode pairs, K = (gamma + 1/gamma)^2 / 4."""
    gamma = _checked_gamma(gamma)
    half = 0.5 * (gamma + 1.0 / gamma)
    return half * half


@dataclass(frozen=True)
class SchmidtModel:
    """Immutable source description consumed by the probability models."""

    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _checked_gamma(self.gamma))

    @classmethod
    def from_gamma(cls, gamma: float) -> "SchmidtModel":
        return cls(gamma)
