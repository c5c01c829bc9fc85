"""Forward probability models.

Joint mode-projection coincidence probabilities over a detection space, their
small-separation approximations, the affine detector calibration, and the
direct-imaging pixel baselines used for benchmarking.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np

from .overlap import _overlap_amplitudes
from .source import (_MAX_MODE_ORDER, NumericalError, SchmidtModel, _coefficient, _is_integer,
                     _mode_indices)

__all__ = [
    "ModeSpace",
    "ProbabilityMatrix",
    "CalibrationModel",
    "PixelGrid",
    "coincidence_prob",
    "small_sep_prob",
    "prob_matrix",
    "apply_calibration",
]

_MIN_IN_SPACE_MASS = 1e-9
# the centres of the two components of a pixel intensity, in units of d
_COMPONENTS = np.array([1.0, -1.0])
_COMPONENTS.flags.writeable = False
_BLOCK_CELLS = 1 << 14
# the step h at which p'(h) / h of a map even in d stands for p''(0)
_CURVE_STEP = 1e-5


def _two_items(value, label):
    # value as a tuple of exactly two items, before any rule reads them
    items = tuple(value) if np.iterable(value) else ()
    if len(items) != 2:
        raise ValueError(f"{label} must have two items, got {value!r}")
    return items


def _check_pairs(pairs, label):
    if not np.iterable(pairs):
        raise ValueError(f"{label} must be a sequence of mode pairs, got {pairs!r}")
    pairs = tuple(_two_items(pair, f"{label} mode pair") for pair in pairs)
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
        # sized before any pair is listed: listing 2**62 + 1 of them would run without end
        if ((int(max_k) + 1) * (int(max_l) + 1)) ** 2 > np.iinfo(np.intp).max:
            raise ValueError(
                "mode indices must be small enough that numpy can index the grid's "
                f"((max_k + 1) * (max_l + 1))**2 outcomes, got max_k={max_k}, max_l={max_l}"
            )
        # and sized by memory: the plan of a spade map over the grid takes _PLAN_BYTES per outcome
        outcomes = ((int(max_k) + 1) * (int(max_l) + 1)) ** 2
        memory = _physical_memory()
        if memory is not None and outcomes * _PLAN_BYTES > memory:
            raise ValueError(
                f"a grid of max_k={max_k}, max_l={max_l} has {outcomes} outcomes, whose spade "
                f"plan of {_PLAN_BYTES} bytes each takes {outcomes * _PLAN_BYTES} bytes, above "
                f"the {memory} bytes of physical memory"
            )
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
        ends = _two_items(self.span, "span")
        try:
            lo, hi = map(float, ends)
        except (TypeError, ValueError):
            raise ValueError(f"span ends must be real numbers, got {self.span!r}") from None
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

    @cached_property
    def _tail_layout(self) -> tuple[np.ndarray, np.ndarray]:
        # where _pixel_block takes math.erfc in a row of both components' edges (+d first):
        # at every +d edge and at the -d edges not mirrored (e_j != -e_(count-j)); and where
        # each edge of that row finds its tail among them, a mirrored -d edge at its mirror
        width = self.count + 1
        own = np.flatnonzero(self.edges != -self.edges[::-1])
        places = np.concatenate((np.arange(width), np.arange(width)[::-1]))
        places[width + own] = width + np.arange(len(own))
        picks = np.concatenate((np.arange(width), width + own))
        for array in (picks, places):
            array.flags.writeable = False
        return picks, places


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
    entries, slopes, _ = _spade_probs(np.array([0.0, _CURVE_STEP]),
                                      *_spade_setup(space, model.gamma), False, True)
    return float(entries[0, 0] + 0.5 * d * d * slopes[1, 0] / _CURVE_STEP)


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
    finite = np.isfinite(d)
    if not finite.all():
        raise ValueError(f"separations must be finite, got {float(d[~finite][0])!r}")


class _SpadePlan(NamedTuple):
    """Everything in _spade_block that depends on the space and gamma alone.

    Arrays are flat over the space's outcomes, read-only, and index the table
    one column past the space's largest mode order, which the slopes need: the
    cell after each cell holds <k|k'+1,d>.
    """

    cells: np.ndarray         # flat table index of each outcome's <k|k',d>
    weight: np.ndarray        # C_{k',l}^2 delta_{l,l'}
    down_cells: np.ndarray    # the cell of <k|k'-1,d> (of <k|0,d> at k' = 0)
    # twice the ladder scales sqrt(k'/2) and sqrt((k'+1)/2): the 2 of d(a^2)/dd = 2 a da/dd
    down_scale: np.ndarray    # sqrt(2 k')
    up_scale: np.ndarray      # sqrt(2 (k'+1))


# one float64 or int64 array entry per outcome for each field of the plan
_PLAN_BYTES = 8 * len(_SpadePlan._fields)


def _physical_memory() -> int | None:
    # bytes of physical memory, or None where os.sysconf does not report them
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _spade_plan(space: ModeSpace, gamma: float, size: int) -> _SpadePlan:
    # size is that of the overlap table the plan indexes
    k, l = np.array(space.idler).T
    kp, lp = np.array(space.signal).T

    def flat(columns):
        return (k[:, None] * (size + 1) + columns[None, :]).ravel()

    def per_outcome(column_values):
        return np.tile(column_values, len(k))

    c = _coefficient(kp + lp.astype(float), gamma)
    weight = np.where(l[:, None] == lp[None, :], (c * c)[None, :], 0.0).ravel()
    plan = _SpadePlan(flat(kp), weight, flat(np.maximum(kp - 1, 0)),
                      per_outcome(np.sqrt(2.0 * kp)), per_outcome(np.sqrt(2.0 * (kp + 1.0))))
    for array in plan:
        array.flags.writeable = False
    return plan


def _spade_setup(space: ModeSpace, gamma: float):
    # (the size of the space's overlap table, one past its largest mode order, and a
    # function that builds its plan on its first call)
    size = max(k for k, _ in space.idler + space.signal) + 1
    return size, cache(partial(_spade_plan, space, gamma, size))


def _spade_probs(d: np.ndarray, size: int, plan, renormalize: bool, derivative: bool):
    """Probability matrices (and their d-derivatives) at each separation of the 1-D array d.

    size and plan() are the space's overlap table size and _SpadePlan (see
    _spade_setup). Returns (entries, slopes, totals): entries and slopes as
    (separations x outcomes) rows, each row a flattened matrix, and the in-space
    mass per separation. slopes is the first d-derivative when derivative is
    true, else None. The slope of an amplitude is d<m|n',d>/dd = sqrt(n'/2)
    <m|n'-1,d> - sqrt((n'+1)/2) <m|n'+1,d>, which needs one table column past
    the largest index of the space; probabilities read the same table. plan is
    called after the first overlap table, so a table that cannot be allocated
    or overflows fails before the plan takes memory.
    """
    _check_separations(d)
    return _in_blocks(
        lambda block: _spade_block(_overlap_amplitudes(size, block), plan(), renormalize,
                                   derivative),
        d,
        (size + 1) ** 2,
    )


def _spade_block(amps, plan, renormalize, derivative):
    amps = amps.reshape(len(amps), amps.shape[1] * amps.shape[2])
    # take gives contiguous rows, so that each row sums in the same order whatever len(d) is
    a = amps.take(plan.cells, axis=1)
    entries = plan.weight * (a * a)
    totals = entries.sum(axis=1)
    slopes = None
    if derivative:
        down = plan.down_scale * amps.take(plan.down_cells, axis=1)
        up = plan.up_scale * amps[:, 1:].take(plan.cells, axis=1)
        slopes = plan.weight * a * (down - up)
    if renormalize:
        if (totals < _MIN_IN_SPACE_MASS).any():
            raise NumericalError(
                f"in-space probability mass {totals.min():.3e} below {_MIN_IN_SPACE_MASS:.0e}"
            )
        entries, slopes = _renormalized(entries, slopes, totals)
    return entries, slopes, totals


def _renormalized(rows: np.ndarray, slopes: np.ndarray | None, totals: np.ndarray):
    # (rows x outcomes) rows divided by their totals, and their d-derivatives by the
    # quotient rule (p' - p sum(p')) / total, p the divided rows; slopes None stays None
    rows = rows / totals[:, None]
    if slopes is not None:
        slopes = (slopes - rows * slopes.sum(axis=1)[:, None]) / totals[:, None]
    return rows, slopes


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
    are normalized. The Schmidt weight sits on the signal index k', so the idler
    index k (a table's k_idler column) is the detection mode of the displaced photon.
    """
    entries, _, totals = _spade_probs(np.array([float(d)]), *_spade_setup(space, model.gamma),
                                      renormalize, False)
    return ProbabilityMatrix(
        space=space,
        entries=entries[0].reshape(space.shape),
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
    None). Raises ValueError when the calibration has another number of outcomes,
    and NumericalError when a row maps to zero everywhere.
    """
    if cal.alpha.size != probs.shape[1]:
        raise ValueError("calibration shape does not match the counts")
    alpha = cal.alpha.ravel()
    raw = alpha * probs + cal.beta.ravel()
    if slopes is not None:
        slopes = alpha * slopes
    live = raw > 0.0
    if not live.all():  # the floor, where any entry needs it
        raw = np.where(live, raw, 0.0)
        if slopes is not None:
            slopes = np.where(live, slopes, 0.0)
    totals = raw.sum(axis=1)
    if (totals <= 0.0).any():
        raise NumericalError("calibrated probabilities vanish everywhere")
    return _renormalized(raw, slopes, totals)


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


def _pixel_probs(d: np.ndarray, grid: PixelGrid, s: float, derivative: bool):
    """Pixel vectors (and their d-derivatives) at each separation in d, PSF scale s.

    Returns (probs, slopes), each of shape (len(d), grid.count + 1). slopes
    is the first d-derivative when derivative is true, else None. The slope
    of a component's pixel mass is a difference of Gaussian values at the
    pixel edges.
    """
    _check_separations(d)
    return _in_blocks(
        lambda block: _pixel_block(block, grid, s, derivative), d, 2 * (grid.count + 1)
    )


def _pixel_block(d, grid, s, derivative):
    rows, width = len(d), grid.count + 1
    size = rows * 2 * width
    # u[:, 0] holds the edges seen from the +d component, u[:, 1] from the -d one; u and
    # its tails sit in flat arrays with one more entry, so that each difference of
    # neighbouring edges is one contiguous pass (those across two rows of edges are not read)
    flat_u, flat_tails = np.empty(size + 1), np.empty(size + 1)
    flat_u[-1] = flat_tails[-1] = 0.0
    u = flat_u[:-1].reshape(rows, 2, width)
    np.subtract(grid.edges, (d[:, None] * _COMPONENTS)[:, :, None], out=u)
    flat_u *= s
    # math.erfc at every +d edge and at the -d edges that are not mirrored, in one pass;
    # at a mirrored edge, |u| of the -d component is bit for bit the +d component's |u|
    # at the mirror image (IEEE rounding is symmetric), and so is its tail
    picks, places = grid._tail_layout
    at = np.abs(u.reshape(rows, 2 * width).take(picks, axis=1)).ravel()
    tails = np.fromiter(map(math.erfc, memoryview(at)), float, at.size)
    tails.reshape(rows, len(picks)).take(places, axis=1,
                                         out=flat_tails[:-1].reshape(rows, 2 * width))
    lo, hi = flat_u[:-1], flat_u[1:]
    t_lo, t_hi = flat_tails[:-1], flat_tails[1:]
    masses = np.where(
        lo >= 0.0, t_lo - t_hi, np.where(hi <= 0.0, t_hi - t_lo, 2.0 - t_lo - t_hi)
    ).reshape(rows, 2, width)[..., :-1]
    # pixel probabilities, then the residual bucket
    out = np.empty((rows, width))
    probs = out[:, :-1]
    np.add(masses[:, 0], masses[:, 1], out=probs)
    probs *= 0.25
    totals = probs.sum(axis=1)
    np.subtract(1.0, totals, out=out[:, -1])
    slopes = None
    if derivative:
        edge = flat_u * flat_u
        np.negative(edge, out=edge)
        np.exp(edge, out=edge)
        falls = (edge[:-1] - edge[1:]).reshape(rows, 2, width)[..., :-1]
        slopes = np.empty((rows, width))
        raw = slopes[:, :-1]
        # the -d component moves against the +d one
        np.subtract(falls[:, 0], falls[:, 1], out=raw)
        raw *= 0.5 * s / math.sqrt(math.pi)
        np.negative(raw.sum(axis=1), out=slopes[:, -1])
    # a total above one is rounding: renormalize that row and leave it no residual; a
    # row at or below one is divided by nothing (its division by 1.0 would be exact)
    over = totals > 1.0
    if over.any():
        rescaled = _renormalized(probs[over], None if slopes is None else slopes[over, :-1],
                                 totals[over])
        for whole, part in zip((out, slopes), rescaled):
            if whole is not None:
                whole[over, :-1], whole[over, -1] = part, 0.0
    return out, slopes
