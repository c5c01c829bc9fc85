"""Forward probability models.

Joint mode-projection coincidence probabilities over a detection space, their
small-separation approximations, the affine detector calibration, and the
direct-imaging pixel baselines used for benchmarking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .overlap import _overlap_amplitudes
from .source import _MAX_MODE_ORDER, SchmidtModel, _coefficient, _is_integer, _mode_indices

__all__ = [
    "ModeSpace",
    "ProbabilityMatrix",
    "CalibrationModel",
    "PixelGrid",
    "coincidence_prob",
    "small_sep_prob",
    "prob_matrix",
    "apply_calibration",
    "pixel_probs",
]

_MIN_IN_SPACE_MASS = 1e-9
_BLOCK_CELLS = 1 << 14
# the step h at which p'(h) / h of a map even in d stands for p''(0)
_CURVE_STEP = 1e-5


def _check_pairs(pairs, label):
    pairs = tuple(pairs)
    for pair in pairs:
        # source._mode_indices's rule in plain Python: numpy reads (True, 0) as integers
        if not all(map(_is_integer, pair)):
            raise ValueError(f"{label} mode indices must be integers, got {pair!r}")
        if not 0 <= min(pair) <= max(pair) <= _MAX_MODE_ORDER:
            raise ValueError(f"{label} mode indices must be in [0, 2**63 - 1], got {pair!r}")
    clean = tuple((int(k), int(l)) for k, l in pairs)
    if not clean:
        raise ValueError(f"{label} mode list is empty")
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
        _mode_indices(max_k=max_k, max_l=max_l)
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


@dataclass(frozen=True)
class PixelGrid:
    """Uniform pixel array for the direct-imaging baseline."""

    count: int = 50
    span: tuple[float, float] = (-4.0, 4.0)

    def __post_init__(self):
        if not (_is_integer(self.count) and self.count >= 1):
            raise ValueError(f"pixel count must be an integer of at least 1, got {self.count!r}")
        lo, hi = map(float, self.span)
        if not math.isfinite(hi - lo):
            raise ValueError(f"span ends and width must be finite, got {self.span!r}")
        if not hi > lo:
            raise ValueError(f"span must be increasing, got {self.span!r}")
        object.__setattr__(self, "span", (lo, hi))

    @cached_property
    def edges(self) -> np.ndarray:
        edges = np.linspace(self.span[0], self.span[1], self.count + 1)
        edges.flags.writeable = False
        return edges


def coincidence_prob(k: int, l: int, kp: int, lp: int, d: float, model: SchmidtModel) -> float:
    """Joint projection probability: idler on (k, l), signal on (kp, lp).

    The single entry of the unrenormalized prob_matrix over that one pair of
    modes, C_{kp,l}^2 * delta_{l,lp} * |<k|kp,d>|^2.
    """
    space = ModeSpace(idler=((k, l),), signal=((kp, lp),))
    return float(prob_matrix(d, space, model, renormalize=False).entries[0, 0])


def small_sep_prob(k: int, l: int, kp: int, lp: int, d: float, model: SchmidtModel) -> float:
    """Quadratic-in-d approximation of coincidence_prob: p(0) + d^2 p''(0) / 2.

    Only the diagonal and first-neighbour k terms survive at this order; the
    absolute error against the exact probability is O(d^4). The map is even in
    d, so p''(0) is read as p'(h) / h at h = _CURVE_STEP, good to O(h^2).
    """
    space = ModeSpace(idler=((k, l),), signal=((kp, lp),))
    entries, slopes, _ = _spade_probs(np.array([0.0, _CURVE_STEP]), space, model, False, True)
    return float(entries[0, 0, 0] + 0.5 * d * d * slopes[1, 0, 0] / _CURVE_STEP)


def _in_blocks(evaluate, d: np.ndarray, row_cells: int):
    # evaluate(block) over consecutive blocks of d, each holding at most
    # _BLOCK_CELLS table cells, so temporaries stay small for long d or large tables
    rows = max(1, _BLOCK_CELLS // row_cells)
    if len(d) <= rows:
        return evaluate(d)
    parts = [evaluate(d[i : i + rows]) for i in range(0, len(d), rows)]
    return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))


def _check_separations(d: np.ndarray) -> None:
    # the separations every forward map takes: finite ones
    infinite = d[~np.isfinite(d)]
    if len(infinite):
        raise ValueError(f"separations must be finite, got {float(infinite[0])!r}")


def _spade_probs(d: np.ndarray, space: ModeSpace, model: SchmidtModel, renormalize: bool,
                 derivative: bool):
    """Probability matrices (and their d-derivatives) at each separation of the 1-D array d.

    Returns (entries, slopes, totals): entries and slopes of shape
    (len(d),) + space.shape, and the in-space mass per separation. slopes is
    the first d-derivative when derivative is true, else None. The slope of an
    amplitude is d<m|n',d>/dd = sqrt(n'/2) <m|n'-1,d> - sqrt((n'+1)/2) <m|n'+1,d>,
    which needs one table column past the largest index of the space.
    """
    _check_separations(d)
    k, l = np.array(space.idler).T
    kp, lp = np.array(space.signal).T
    size = int(max(k.max(), kp.max())) + int(derivative)
    return _in_blocks(
        lambda block: _spade_block(block, k, l, kp, lp, size, model, renormalize, derivative),
        d,
        (size + 1) ** 2,
    )


def _spade_block(d, k, l, kp, lp, size, model, renormalize, derivative):
    amps = _overlap_amplitudes(size, d)
    c = _coefficient(kp + lp.astype(float), model.gamma)
    weight = np.where(l[:, None] == lp[None, :], (c * c)[None, :], 0.0)

    def cells(columns):
        # contiguous, so that each row sums in the same order whatever len(d) is
        return np.ascontiguousarray(amps[:, k[:, None], columns[None, :]])

    a = cells(kp)
    entries = weight * (a * a)
    totals = entries.reshape(len(d), -1).sum(axis=1)
    slopes = None
    if derivative:
        down = np.sqrt(0.5 * kp) * cells(np.maximum(kp - 1, 0))
        up = np.sqrt(0.5 * (kp + 1.0)) * cells(kp + 1)
        slopes = 2.0 * weight * a * (down - up)
    if renormalize:
        if np.any(totals < _MIN_IN_SPACE_MASS):
            raise NumericalError(
                f"in-space probability mass {totals.min():.3e} below {_MIN_IN_SPACE_MASS:.0e}"
            )
        entries = entries / totals[:, None, None]
        if slopes is not None:
            slope_totals = slopes.reshape(len(d), -1).sum(axis=1)
            slopes = (slopes - entries * slope_totals[:, None, None]) / totals[:, None, None]
    return entries, slopes, totals


def prob_matrix(
    d: float, space: ModeSpace, model: SchmidtModel, renormalize: bool = True
) -> ProbabilityMatrix:
    """Assemble coincidence probabilities over the detection space.

    Entry (i, j) is C_{k',l}^2 * delta_{l,l'} * |<k|k',d>|^2, the +-d average
    of the mixture reduced to one term because |<k|k',+d>|^2 = |<k|k',-d>|^2
    exactly; the l indices obey a strict selection rule because only the x axis
    is displaced. The entries come from one overlap table for the whole space.
    With renormalize=True the matrix conditions on detection inside the space
    (entries divided by the in-space total), matching how measured matrices
    are normalized.
    """
    entries, _, totals = _spade_probs(np.array([float(d)]), space, model, renormalize, False)
    return ProbabilityMatrix(
        space=space,
        entries=entries[0],
        d=float(d),
        in_space_mass=float(totals[0]),
    )


def apply_calibration(matrix: ProbabilityMatrix, cal: CalibrationModel) -> ProbabilityMatrix:
    """Entrywise alpha*P + beta, floored at zero, then renormalized; in_space_mass is kept."""
    if cal.alpha.shape != matrix.entries.shape:
        raise ValueError("calibration shape does not match the probability matrix")
    entries, _ = _calibrate_rows(matrix.entries.reshape(1, -1), None, cal)
    return replace(matrix, entries=entries.reshape(matrix.entries.shape))


def _calibrate_rows(probs: np.ndarray, slopes: np.ndarray | None, cal: CalibrationModel):
    """The affine detector map on (rows x outcomes) probabilities and their d-derivatives.

    Each row becomes alpha*p + beta, floored at zero and divided by its total.
    Returns (probs, slopes), slopes by the quotient rule (None when slopes is
    None). Raises NumericalError when a row maps to zero everywhere.
    """
    alpha = cal.alpha.ravel()
    raw = alpha * probs + cal.beta.ravel()
    live = raw > 0.0
    raw = np.where(live, raw, 0.0)
    totals = raw.sum(axis=1)
    if np.any(totals <= 0.0):
        raise NumericalError("calibrated probabilities vanish everywhere")
    probs = raw / totals[:, None]
    if slopes is not None:
        raw_slopes = np.where(live, alpha * slopes, 0.0)
        slopes = (raw_slopes - probs * raw_slopes.sum(axis=1)[:, None]) / totals[:, None]
    return probs, slopes


def _psf_scale(model: SchmidtModel, kind: str) -> float:
    # each +-d component of the intensity is the Gaussian s/sqrt(pi) exp(-s^2 (x-+d)^2).
    # 'gaussian' images a fundamental-mode point source; 'spdc' images the reduced
    # single-arm state, (1-q) q^m hg_m^2 summed over its modes; by the diagonal
    # of Mehler's kernel (DLMF 18.18.28) that is s^2 = (1-q)/(1+q) = 2 gamma/(1+gamma^2),
    # written in gamma to avoid the cancellation in 1-q as gamma -> 0 or infinity
    if kind == "gaussian":
        return 1.0
    if kind == "spdc":
        return math.sqrt(2.0 * model.gamma / (1.0 + model.gamma * model.gamma))
    raise ValueError(f"unknown PSF kind {kind!r}; expected 'gaussian' or 'spdc'")


def _pixel_probs(d: np.ndarray, grid: PixelGrid, model: SchmidtModel, kind: str,
                 derivative: bool):
    """Pixel vectors (and their d-derivatives) at each separation in d.

    Returns (probs, slopes), each of shape (len(d), grid.count + 1). slopes
    is the first d-derivative when derivative is true, else None. The slope
    of a component's pixel mass is a difference of Gaussian values at the
    pixel edges.
    """
    _check_separations(d)
    s = _psf_scale(model, kind)
    return _in_blocks(
        lambda block: _pixel_block(block, grid, s, derivative), d, 2 * (grid.count + 1)
    )


def _pixel_block(d, grid, s, derivative):
    u = s * (grid.edges[None, None, :] - np.stack([d, -d], axis=1)[:, :, None])
    flat = np.abs(u).ravel()
    tails = np.fromiter(map(math.erfc, memoryview(flat)), float, flat.size).reshape(u.shape)
    lo, hi = u[..., :-1], u[..., 1:]
    t_lo, t_hi = tails[..., :-1], tails[..., 1:]
    masses = np.where(
        lo >= 0.0, t_lo - t_hi, np.where(hi <= 0.0, t_hi - t_lo, 2.0 - t_lo - t_hi)
    )
    probs = 0.25 * (masses[:, 0] + masses[:, 1])
    totals = probs.sum(axis=1)
    # a total above one is rounding: renormalize and leave no residual
    over = totals > 1.0
    scale = np.where(over, totals, 1.0)[:, None]
    probs = probs / scale
    residual = np.where(over, 0.0, 1.0 - totals)
    slopes = None
    if derivative:
        edge = np.exp(-u * u)
        falls = edge[..., :-1] - edge[..., 1:]
        # the -d component moves against the +d one
        raw = 0.5 * s / math.sqrt(math.pi) * (falls[:, 0] - falls[:, 1])
        raw_totals = raw.sum(axis=1)
        slopes = np.where(over[:, None], raw - probs * raw_totals[:, None], raw) / scale
        slopes = np.concatenate((slopes, np.where(over, 0.0, -raw_totals)[:, None]), axis=1)
    return np.concatenate((probs, residual[:, None]), axis=1), slopes


def pixel_probs(d: float, grid: PixelGrid, model: SchmidtModel, kind: str = "spdc") -> np.ndarray:
    """Exact pixel masses of the marginal intensity, plus an out-of-span residual bucket.

    A component's mass between edges u_a < u_b (in units of 1/s from its centre)
    is (erf(u_b) - erf(u_a))/2. Each difference is taken from erfc on the side
    of the edges away from zero, so tail pixels keep their relative accuracy and
    the d = 0 vector stays mirror-symmetric. The returned vector sums to one.
    """
    return _pixel_probs(np.array([float(d)]), grid, model, kind, False)[0][0]
