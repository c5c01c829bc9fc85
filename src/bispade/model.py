"""Forward probability models.

Joint mode-projection coincidence probabilities over a detection space, their
small-separation approximations, the affine detector calibration, and the
direct-imaging intensity/pixel baselines used for benchmarking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .overlap import displaced_overlap
from .source import SchmidtModel, schmidt_coeff

__all__ = [
    "ModeSpace",
    "ProbabilityMatrix",
    "CalibrationModel",
    "PixelGrid",
    "coincidence_prob",
    "small_sep_prob",
    "prob_matrix",
    "apply_calibration",
    "marginal_intensity",
    "pixel_probs",
]

_MIN_IN_SPACE_MASS = 1e-9


def _check_pairs(pairs, label):
    clean = tuple((int(k), int(l)) for k, l in pairs)
    if not clean:
        raise ValueError(f"{label} mode list is empty")
    if any(k < 0 or l < 0 for k, l in clean):
        raise ValueError(f"{label} mode indices must be non-negative")
    if len(set(clean)) != len(clean):
        raise ValueError(f"duplicate {label} mode pairs")
    return clean


@dataclass(frozen=True)
class ModeSpace:
    """Joint detection set: idler (k, l) pairs crossed with signal (k', l') pairs."""

    idler: tuple
    signal: tuple

    def __post_init__(self):
        object.__setattr__(self, "idler", _check_pairs(self.idler, "idler"))
        object.__setattr__(self, "signal", _check_pairs(self.signal, "signal"))

    @classmethod
    def grid(cls, max_k: int = 6, max_l: int = 0) -> "ModeSpace":
        """Rectangular k=0..max_k, l=0..max_l set on both arms (default 7x7, l=0)."""
        if max_k < 0 or max_l < 0:
            raise ValueError("max indices must be non-negative")
        pairs = tuple((k, l) for l in range(max_l + 1) for k in range(max_k + 1))
        return cls(idler=pairs, signal=pairs)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.idler), len(self.signal)


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Outcome probabilities over a ModeSpace at one separation."""

    space: ModeSpace
    entries: np.ndarray
    d: float
    renormalized: bool
    in_space_mass: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != self.space.shape:
            raise ValueError("entries shape does not match the mode space")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class CalibrationModel:
    """Per-outcome affine detector correction: observed ~ alpha * model + beta."""

    alpha: np.ndarray
    beta: np.ndarray
    degenerate: np.ndarray | None = None

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.shape != beta.shape:
            raise ValueError("alpha and beta must share a shape")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise ValueError("calibration entries must be finite")
        if np.any(alpha < 0.0):
            raise ValueError("alpha entries must be non-negative")
        if np.any(beta < 0.0) or np.any(beta > 1.0):
            raise ValueError("beta entries must lie in [0, 1]")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def identity(cls, shape) -> "CalibrationModel":
        return cls(alpha=np.ones(shape), beta=np.zeros(shape))


@dataclass(frozen=True)
class PixelGrid:
    """Uniform pixel array for the direct-imaging baseline."""

    count: int = 50
    span: tuple[float, float] = (-4.0, 4.0)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("pixel count must be at least 1")
        if not self.span[1] > self.span[0]:
            raise ValueError("span must be increasing")
        object.__setattr__(self, "span", (float(self.span[0]), float(self.span[1])))

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.span[0], self.span[1], self.count + 1)


def coincidence_prob(k: int, l: int, kp: int, lp: int, d: float, model: SchmidtModel) -> float:
    """Joint projection probability: idler on (k, l), signal on (kp, lp).

    C_{kp,l}^2 * delta_{l,lp} * |<k|kp,d>|^2, the +-d average of the mixture
    reduced to one term because |<k|kp,+d>|^2 = |<k|kp,-d>|^2 exactly; the l
    indices obey a strict selection rule because only the x axis is displaced.
    """
    if min(k, l, kp, lp) < 0:
        raise ValueError("mode indices must be non-negative")
    if l != lp:
        return 0.0
    c = schmidt_coeff(kp, l, model.gamma)
    overlap = displaced_overlap(k, kp, d)
    return c * c * overlap * overlap


def small_sep_prob(k: int, l: int, kp: int, lp: int, d: float, model: SchmidtModel) -> float:
    """Quadratic-in-d approximation of coincidence_prob.

    Only the diagonal and first-neighbour k terms survive at this order; the
    absolute error against the exact probability is O(d^4).
    """
    if min(k, l, kp, lp) < 0:
        raise ValueError("mode indices must be non-negative")
    if l != lp:
        return 0.0
    c = schmidt_coeff(kp, l, model.gamma)
    c2 = c * c
    if k == kp:
        return c2 * (1.0 - 0.5 * d * d * (2 * kp + 1))
    if k == kp - 1:
        return c2 * 0.5 * d * d * kp
    if k == kp + 1:
        return c2 * 0.5 * d * d * (kp + 1)
    return 0.0


@lru_cache(maxsize=32)
def _overlap_layout(n: int):
    # everything in _squared_overlaps that depends on the table size alone:
    # Laguerre recurrence coefficients per degree, the (min, |difference|)
    # index of each table cell, and 0.5*log(min!/max!) per cell
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
    for array in (order, lo, gap, half_log_ratio, *(c for step in steps for c in step)):
        array.flags.writeable = False
    return order, steps, lo, gap, half_log_ratio


def _squared_overlaps(n: int, d: float) -> np.ndarray:
    """Table |<m|n',d>|^2 for m, n' <= n in one vectorized pass.

    For m <= n' the amplitude is sqrt(m!/n'!) alpha^(n'-m) exp(-alpha^2/2)
    L_m^(n'-m)(alpha^2) with alpha = d/sqrt(2) (Cahill & Glauber, Phys. Rev. 177,
    1857 (1969)); the square is symmetric in (m, n') and even in d, so one sign
    serves both components of the +-d mixture. The Laguerre values come from their
    upward recurrence in m, run for every order n'-m at once. The displaced-number-
    state recurrence in n' is not used: its rounding errors grow with n'*d (1e-2 in
    the square at n' = 100, d = 3).
    """
    x = 0.5 * d * d
    if x == 0.0:
        return np.eye(n + 1)
    order, steps, lo, gap, half_log_ratio = _overlap_layout(n)
    lag = np.zeros((n + 1, n + 1))
    lag[0] = 1.0
    if n:
        lag[1, :n] = 1.0 + order[:n] - x
    for m, (slope, lag_weight) in enumerate(steps, start=1):
        w = n - m
        lag[m + 1, :w] = (slope - x / (m + 1.0)) * lag[m, :w] - lag_weight * lag[m - 1, :w]
    amp = np.exp(half_log_ratio + 0.5 * math.log(x) * gap - 0.5 * x) * lag[lo, gap]
    return amp * amp


def prob_matrix(
    d: float, space: ModeSpace, model: SchmidtModel, renormalize: bool = True
) -> ProbabilityMatrix:
    """Assemble coincidence probabilities over the detection space.

    Entry (i, j) is C_{k',l}^2 * delta_{l,l'} * |<k|k',d>|^2, the value of
    coincidence_prob, built from one squared-overlap table for the whole space.
    With renormalize=True the matrix conditions on detection inside the space
    (entries divided by the in-space total), matching how measured matrices
    are normalized.
    """
    k, l = np.array(space.idler).T
    kp, lp = np.array(space.signal).T
    overlaps = _squared_overlaps(int(max(k.max(), kp.max())), float(d))
    c = schmidt_coeff(kp, lp, model.gamma)
    entries = np.where(
        l[:, None] == lp[None, :], (c * c)[None, :] * overlaps[k[:, None], kp[None, :]], 0.0
    )
    total = float(entries.sum())
    if renormalize:
        if total < _MIN_IN_SPACE_MASS:
            raise NumericalError(
                f"in-space probability mass {total:.3e} below {_MIN_IN_SPACE_MASS:.0e}"
            )
        entries = entries / total
    return ProbabilityMatrix(
        space=space, entries=entries, d=float(d), renormalized=renormalize, in_space_mass=total
    )


def apply_calibration(matrix: ProbabilityMatrix, cal: CalibrationModel) -> ProbabilityMatrix:
    """Entrywise alpha*P + beta, floored at zero, then renormalized."""
    if cal.alpha.shape != matrix.entries.shape:
        raise ValueError("calibration shape does not match the probability matrix")
    raw = np.clip(cal.alpha * matrix.entries + cal.beta, 0.0, None)
    total = float(raw.sum())
    if total <= 0.0:
        raise NumericalError("calibration maps every entry to zero")
    return ProbabilityMatrix(
        space=matrix.space,
        entries=raw / total,
        d=matrix.d,
        renormalized=True,
        in_space_mass=total,
    )


def _psf_scale(model: SchmidtModel, kind: str) -> float:
    # each +-d component of the intensity is the Gaussian s/sqrt(pi) exp(-s^2 (x-+d)^2).
    # 'spdc' sums (1-q) q^m hg_m^2 over the reduced one-photon modes; by the diagonal
    # of Mehler's kernel (DLMF 18.18.28) that is s^2 = (1-q)/(1+q) = 2 gamma/(1+gamma^2),
    # written in gamma to avoid the cancellation in 1-q as gamma -> 0 or infinity
    if kind == "gaussian":
        return 1.0
    if kind == "spdc":
        return math.sqrt(2.0 * model.gamma / (1.0 + model.gamma * model.gamma))
    raise ValueError(f"unknown PSF kind {kind!r}; expected 'gaussian' or 'spdc'")


def marginal_intensity(x, d: float, model: SchmidtModel, kind: str = "spdc"):
    """Image-plane intensity of the incoherent +-d mixture seen by one detector.

    kind 'gaussian' is a fundamental-mode point source; 'spdc' images the
    reduced single-arm state of the two-photon source, a Gaussian widened by
    K^(1/4). With gamma = 1 the two coincide.
    """
    s = _psf_scale(model, kind)
    xa = np.asarray(x, dtype=float)
    out = 0.5 * s / math.sqrt(math.pi) * (
        np.exp(-((s * (xa - d)) ** 2)) + np.exp(-((s * (xa + d)) ** 2))
    )
    return float(out) if xa.ndim == 0 else out


def pixel_probs(d: float, grid: PixelGrid, model: SchmidtModel, kind: str = "spdc") -> np.ndarray:
    """Exact pixel masses of the marginal intensity, plus an out-of-span residual bucket.

    A component's mass between edges u_a < u_b (in units of 1/s from its centre)
    is (erf(u_b) - erf(u_a))/2. Each difference is taken from erfc on the side
    of the edges away from zero, so tail pixels keep their relative accuracy and
    the d = 0 vector stays mirror-symmetric. The returned vector sums to one.
    """
    s = _psf_scale(model, kind)
    u = s * (grid.edges[None, :] - np.array([[d], [-d]]))
    tails = np.array([math.erfc(v) for v in np.abs(u).ravel().tolist()]).reshape(u.shape)
    lo, hi = u[:, :-1], u[:, 1:]
    t_lo, t_hi = tails[:, :-1], tails[:, 1:]
    masses = np.where(
        lo >= 0.0, t_lo - t_hi, np.where(hi <= 0.0, t_hi - t_lo, 2.0 - t_lo - t_hi)
    )
    probs = 0.25 * (masses[0] + masses[1])
    total = float(probs.sum())
    if total > 1.0:
        probs = probs / total
        residual = 0.0
    else:
        residual = 1.0 - total
    return np.append(probs, residual)
