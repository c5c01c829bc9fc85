"""Estimation theory for the separation parameter.

Fisher information (numeric and closed form), Cramer-Rao bounds, multinomial
count sampling, maximum-likelihood estimation, detector-calibration fitting,
and Monte-Carlo standard-error studies.

Every Fisher information and CRLB in this module is parameterized by the
total separation delta = 2*d; reports and results carry the tag explicitly
to rule out silent factor-of-4 mistakes.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (
    CalibrationModel,
    ModeSpace,
    PixelGrid,
    ProbabilityMatrix,
    _CURVE_STEP,
    _calibrate_rows,
    _check_separations,
    _pixel_probs,
    _psf_scale,
    _spade_probs,
    _spade_setup,
)
from .source import (NumericalError, SchmidtModel, _checked_gamma, _coefficient,
                     _coefficient_ratio, _is_integer, _finite_positive, _mode_indices)

__all__ = [
    "PARAMETERIZATION",
    "LIKELIHOOD_FLOOR",
    "METHODS",
    "CountMatrix",
    "FisherReport",
    "EstimationResult",
    "MonteCarloResult",
    "fisher_numeric",
    "fi_closed_form",
    "fi_total_1d",
    "fi_branch_totals_2d",
    "fi_total_2d",
    "crlb",
    "gaussian_hg1_prob",
    "sample_counts",
    "mle_estimate",
    "fit_calibration",
    "mc_standard_error",
    "spade_forward",
    "direct_forward",
    "trial_seed",
]

PARAMETERIZATION = "delta = 2*d"
LIKELIHOOD_FLOOR = 1e-15
METHODS = ("spade", "direct_gaussian", "direct_spdc")

# the d search of every fit: a grid over [0, 2] scored first, then Fisher scoring
# from the best grid point until the step is below 1e-3 * _REFINE_TOL
_GRID = np.linspace(0.0, 2.0, 200)
# the bracket of each grid point: its neighbours, or itself at an end
_BELOW = _GRID[np.maximum(np.arange(len(_GRID)) - 1, 0)]
_ABOVE = _GRID[np.minimum(np.arange(len(_GRID)) + 1, len(_GRID) - 1)]
for _array in (_GRID, _BELOW, _ABOVE):
    _array.flags.writeable = False
# the points whose rows a forward map keeps: the grid, then the step of the d = 0 stop
_KEPT = np.append(_GRID, _CURVE_STEP)
_KEPT.flags.writeable = False
_REFINE_TOL = 1e-5
_MAX_REFINE_STEPS = 100
# row budget of one _fit call in a Monte-Carlo sweep: consecutive whole cells
# are fitted together up to this many trials
_FIT_ROWS = 512
# step of the fourth-order central difference that gives the derivative of a
# forward map that has no exact one; at d = _CURVE_STEP, where the d = 0 stop
# reads p'(h) / h, it keeps p''(0) within about 2e-7 of the largest |p''(0)|
_DIFF_STEP = 1e-3
# refinement must beat the best grid point's log-likelihood by more than this
# relative amount, a few ulps of the sum of count * log p terms; a point within
# rounding of the grid optimum (a maximum within about 1e-7 of a grid point,
# as in one row of the default compare) does not displace it
_TIE = 1e-15


@dataclass(frozen=True)
class CountMatrix:
    """Observed or simulated photon counts over a mode space or pixel grid; total is their sum."""

    counts: np.ndarray
    separation: float | None = None
    total: int = field(init=False)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        kind = counts.dtype.kind
        # numpy reads [True, 2] as int64: a sequence that is no array is checked item by item
        items = () if counts is self.counts else np.asarray(self.counts, dtype=object).flat
        if any(isinstance(item, (bool, np.bool_)) for item in items) or not (
                kind == "i" or kind == "u" and int(counts.max(initial=0)) < 2**63
                or kind == "f" and np.all(np.isfinite(counts) & (counts == np.floor(counts))
                                          & (np.abs(counts) < 2.0**63))):
            raise ValueError("counts must be finite integers within the int64 range")
        counts = counts.astype(np.int64) if kind == "f" else counts
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        # a Python sum: an int64 sum wraps past 2**63
        object.__setattr__(self, "total", sum(counts.ravel().tolist()))

    @classmethod
    def _proved(cls, counts: np.ndarray, separation: float | None, total: int) -> CountMatrix:
        # int64 counts already proved non-negative, with their exact sum: no checks, no sum
        matrix = object.__new__(cls)
        vars(matrix).update(counts=counts, separation=separation, total=total)
        return matrix


@dataclass(frozen=True)
class FisherReport:
    """Per-outcome Fisher information contributions about delta = 2*d."""

    contributions: np.ndarray
    total: float
    skipped: tuple[int, ...] = ()
    parameterization: str = PARAMETERIZATION


@dataclass(frozen=True)
class EstimationResult:
    """Maximum-likelihood separation estimate plus search diagnostics."""

    d_hat: float
    delta_hat: float
    log_likelihood: float
    refine_iterations: int
    converged: bool
    flags: tuple[str, ...]
    parameterization: str = PARAMETERIZATION


@dataclass(frozen=True)
class MonteCarloResult:
    """Trial statistics for one (method, separation) cell; estimates are delta_hat."""

    method: str
    d: float
    n_photons: int
    trials: int
    mean: float
    std_err: float
    boundary_fraction: float
    flat_fraction: float
    estimates: np.ndarray


def fisher_numeric(
    prob_fn: Callable[[float], np.ndarray],
    d: float,
    step: float = 1e-4,
    floor: float = LIKELIHOOD_FLOOR,
) -> FisherReport:
    """Fisher information of the outcome vector prob_fn(d).

    prob_fn maps a per-arm shift to outcome probabilities; derivatives are
    taken with respect to delta = 2*d (delta moves twice as fast as d). The
    maps of spade_forward and direct_forward, calibrated or not, supply the
    exact derivative; for any other callable it is a fourth-order central
    difference at `step`. Outcomes below `floor` are skipped and reported
    instead of dividing by nearly zero. Every built-in map is even in d, so at d = 0
    the informative outcomes read 0/0: they are skipped and the total is exactly 0.0.
    The bound at a fitted d = 0 is the d -> 0 limit, the total at a small d.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    probs, slopes = _as_map(prob_fn, step).batch(np.array([float(d)]), True)
    p0, deriv = probs[0], 0.5 * slopes[0]
    if not (np.all(np.isfinite(deriv)) and np.all(np.isfinite(p0))):
        raise NumericalError("non-finite probability or derivative in Fisher evaluation")
    keep = p0 >= floor
    contributions = np.zeros_like(p0)
    contributions[keep] = deriv[keep] ** 2 / p0[keep]
    return FisherReport(
        contributions=contributions,
        total=float(contributions.sum()),
        skipped=tuple(int(i) for i in np.flatnonzero(~keep)),
    )


def fi_closed_form(k, l, gamma: float, branch: str):
    """Small-separation Fisher information of one joint projection.

    branch 'diag' is the vanishing k = k' limit; 'up' pairs idler k with
    signal k+1 and contributes (k+1)/2 * C_{k+1,l}^2; 'down' pairs idler k
    with signal k-1 and contributes k/2 * C_{k-1,l}^2. Accepts array indices of
    integer dtype.
    """
    ka, la = _mode_indices(k=k, l=l)
    gamma = _checked_gamma(gamma)
    if branch == "diag":
        out = np.zeros(np.broadcast(ka, la).shape)
    elif branch == "up":
        c = _coefficient(ka + 1.0 + la, gamma)
        out = 0.5 * (ka + 1.0) * c * c
    elif branch == "down":
        c = _coefficient(np.maximum(ka - 1.0, 0.0) + la, gamma)
        out = np.where(ka > 0, 0.5 * ka * c * c, 0.0)
    else:
        raise ValueError(f"unknown branch {branch!r}; expected 'diag', 'up' or 'down'")
    return float(out) if ka.ndim == 0 and la.ndim == 0 else out


def fi_total_1d(gamma: float) -> float:
    """Total small-separation FI of the full l = 0 projection set: 1/2 + r^2/2."""
    r = _coefficient_ratio(gamma)
    return 0.5 + 0.5 * r * r


def fi_branch_totals_2d(gamma: float) -> tuple[float, float]:
    """(up, down) subtotals over all modes: (1-g)^2/(8g) and (1+g)^2/(8g)."""
    gamma = _checked_gamma(gamma)
    return (1.0 - gamma) ** 2 / (8.0 * gamma), (1.0 + gamma) ** 2 / (8.0 * gamma)


def fi_total_2d(gamma: float) -> float:
    """Total small-separation FI over all modes: (gamma + 1/gamma)/4 = sqrt(K)/2.

    It is the quantum Fisher information of the bi-photon state, the quantum limit: at
    gamma = 0.15 the configured 7x7 measurement reaches 1.558 of its 1.704.
    """
    gamma = _checked_gamma(gamma)
    return 0.25 * (gamma + 1.0 / gamma)


def crlb(schmidt_k: float, n_photons: int) -> float:
    """Variance bound 2 / (n sqrt(K)) on separation estimates from n photon pairs.

    It is 1 / (n QFI), sqrt(K)/2 the quantum Fisher information of the bi-photon state, the
    quantum limit: at gamma = 0.15 the configured 7x7 measurement reaches 1.558 of its 1.704.
    """
    if not (_finite_positive(schmidt_k) and schmidt_k >= 1.0):
        raise ValueError(f"Schmidt number must be finite and >= 1, got {schmidt_k!r}")
    _check_natural(n_photons, "n_photons")
    if n_photons < 1:
        raise ValueError(f"photon count must be >= 1, got {n_photons!r}")
    return 2.0 / (n_photons * math.sqrt(schmidt_k))


def gaussian_hg1_prob(d: float) -> float:
    """First-mode projection probability for the separable source: d^2 exp(-d^2/2) / 2."""
    return 0.5 * d * d * math.exp(-0.5 * d * d)


def sample_counts(probabilities, n_photons: int, seed) -> CountMatrix:
    """Multinomial draw over a probability matrix or vector.

    Bit-reproducible for a given seed; the input must already be normalized
    (sum within 1e-9 of one).
    """
    matrix = isinstance(probabilities, ProbabilityMatrix)
    p = probabilities.entries if matrix else np.asarray(probabilities, dtype=float)
    _check_natural(n_photons, "n_photons")
    if isinstance(seed, (bool, np.bool_)):
        raise ValueError(f"seed must not be a bool, got {seed!r}")
    rng = np.random.default_rng(seed)
    draw = _checked_draws(rng.multinomial(n_photons, _normalized(p.ravel())), n_photons)
    return CountMatrix(draw.reshape(p.shape), probabilities.d if matrix else None)


def _check_natural(value, name: str) -> None:
    # the rule of photon numbers and integer seeds: a Python or numpy integer, not a bool
    if not (_is_integer(value) and value >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _normalized(p: np.ndarray) -> np.ndarray:
    # the multinomial weights of a flat probability vector, or of each row of a matrix of
    # them, after the checks of sample_counts (the message names the first row that fails)
    if (p < -1e-12).any():
        raise ValueError("probabilities must be non-negative")
    totals = p.sum(axis=-1, keepdims=True)
    off = np.abs(totals - 1.0) > 1e-9
    if off.any():
        raise ValueError(
            f"probabilities must sum to 1 (got {float(totals[off][0])!r}); renormalize first"
        )
    return np.maximum(p, 0.0) / totals


def _checked_draws(draws: np.ndarray, n_photons: int) -> np.ndarray:
    # draws itself, once every row holds n_photons non-negative counts
    if (draws < 0).any() or (draws.sum(axis=-1) != n_photons).any():
        raise NumericalError(f"multinomial draw does not hold {n_photons} non-negative counts")
    return draws


def mle_estimate(
    counts: CountMatrix,
    forward: Callable[[float], np.ndarray],
    calibration: CalibrationModel | None = None,
) -> EstimationResult:
    """Maximize the multinomial log-likelihood of `counts` under `forward`.

    forward(d) returns outcome probabilities at per-arm shift d (any shape,
    flattened against the counts). A calibration, when given, applies the
    per-outcome affine map to the model and renormalizes before the
    likelihood, mirroring apply_calibration. The search over d in [0, 2] is
    fixed: it scores a 200-point grid, then refines by safeguarded Fisher
    scoring inside the bracket of the best grid point's neighbours. The model
    is even in d, so score and information vanish at d = 0: a fit whose best
    grid point is 0 stops there when the log-likelihood curves down at 0, and
    otherwise falls back to bisection, the grid point kept unless refinement
    beats it. The maps of spade_forward and direct_forward supply the exact
    d-derivative; for any other callable it is a central difference. The
    multinomial coefficient is separation independent and dropped.
    """
    obs = counts.counts.ravel()[None, :].astype(float)
    fits = _fit(obs, _as_map(forward).calibrated(calibration))
    d_hat = float(fits.d_hat[0])
    return EstimationResult(
        d_hat=d_hat,
        delta_hat=2.0 * d_hat,
        log_likelihood=float(fits.log_likelihood[0]),
        refine_iterations=int(fits.iterations[0]),
        converged=bool(fits.converged[0]),
        flags=fits.flags(0),
    )


class _Fits(NamedTuple):
    """Per-row outcome of _fit."""

    d_hat: np.ndarray
    log_likelihood: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    flat: np.ndarray
    boundary: np.ndarray

    def flags(self, row: int) -> tuple[str, ...]:
        named = (("flat-likelihood", self.flat[row]), ("boundary", self.boundary[row]))
        return tuple(name for name, hit in named if hit)


def _fit(obs: np.ndarray, forward: _ForwardMap) -> _Fits:
    """Maximum-likelihood separations of every row of the (rows x outcomes) count matrix.

    One matmul scores all rows on the grid table of forward. Every row then refines in
    lockstep by Fisher scoring, d += score / information, started at its best
    grid point and kept inside the bracket of that point's grid neighbours;
    the bracket shrinks to the side the score points to. A step that would
    leave the bracket, that would not halve the previous step, or that has no
    information behind it (at d = 0 the model is even in d, so score and
    information vanish) is replaced by bisection. A row stops once its step
    is below 1e-3 * _REFINE_TOL. Refinement that does not beat the best grid
    point by more than rounding keeps the grid point. A row whose best grid
    point is d = 0, whose log-likelihood curves down there,
    sum_i n_i p_i''(0) / p_i(0) < 0, and that has no count on an outcome
    dead at 0 has its maximum at 0 and stops before the first pass. The map
    is even in d, so p_i''(0) is read as p_i'(h) / h at h = _CURVE_STEP.
    The first pass and the d = 0 stop read rows the map keeps (kept_rows): a
    forward row does not depend on the batch it is evaluated in, so they are the
    rows a batch pass would give. A pass carries only the rows still refining,
    and a row's log-likelihood is taken at the pass it ends in: the pass its
    step falls below the tolerance, or the last of _MAX_REFINE_STEPS.
    """
    if forward.log_probs.shape[1] != obs.shape[1]:
        raise ValueError("forward model size does not match the counts")
    scores = obs @ forward.log_probs.T
    if not np.isfinite(scores).all():
        raise NumericalError("non-finite log-likelihood on the search grid")
    rows = np.arange(len(obs))
    best = np.argmax(scores, axis=1)
    top = scores[rows, best]
    flat = top - scores.min(axis=1) < 1e-9 * (np.abs(top) + 1.0)

    d_hat = _GRID[best]
    loglik = top.copy()
    iterations = np.zeros(len(obs), dtype=int)
    converged = np.zeros(len(obs), dtype=bool)
    peaked = best == 0
    if peaked.any():
        probs, slopes = forward.kept_rows(np.array([0, len(_GRID)]))
        live = probs[0] > LIKELIHOOD_FLOOR
        ratio = np.divide(slopes[1] / _CURVE_STEP, probs[0], out=np.zeros(live.shape),
                          where=live)
        # a count on an outcome dead at 0 (such as an off-diagonal spade cell)
        # puts the maximum off 0 however the live outcomes curve
        peaked &= (obs @ ratio < 0.0) & (obs[:, ~live].sum(axis=1) == 0.0)
    converged[peaked] = True
    # the rows still refining, and each one's point, bracket, last step size, counts and photons
    active = rows[~peaked]
    index = best[active]
    at = _GRID[index]
    lo, hi = _BELOW[index], _ABOVE[index]
    last_size = hi - lo
    counts = obs[active]
    photons = counts.sum(axis=1)
    # the rows that ended, pass by pass, each with its counts and probabilities
    finished = []
    for pass_no in range(_MAX_REFINE_STEPS):
        if not active.size:
            break
        if pass_no == 0:
            # every row starts at its best grid point, whose rows the map keeps
            probs, slopes = forward.kept_rows(index)
        else:
            probs, slopes = forward.batch(at, True)
        live = probs > LIKELIHOOD_FLOOR
        if live.all():
            ratio = slopes / probs
        else:
            ratio = np.divide(slopes, probs, out=np.zeros(probs.shape), where=live)
        score = (counts * ratio).sum(axis=1)
        information = photons * (slopes * ratio).sum(axis=1)
        lo = np.where(score > 0.0, at, lo)
        hi = np.where(score < 0.0, at, hi)
        informed = information > 0.0
        if informed.all():
            step = score / information
        else:
            step = np.divide(score, information, out=np.zeros(score.shape), where=informed)
        moved = at + step
        size = np.abs(step)
        newton = (moved > lo) & (moved < hi)
        newton &= size <= 0.5 * last_size
        newton &= informed
        if not newton.all():
            step = np.where(newton, step, 0.5 * (lo + hi) - at)
            moved = at + step
            size = np.abs(step)
        done = size < 1e-3 * _REFINE_TOL
        # a row ends at this pass's point once it is done or out of passes
        ends = done if pass_no < _MAX_REFINE_STEPS - 1 else np.ones(done.shape, dtype=bool)
        if ends.any():
            ended = active[ends]
            d_hat[ended] = at[ends]
            iterations[ended] = pass_no + 1
            converged[active[done]] = True
            finished.append((ended, counts[ends], probs[ends]))
            keep = ~ends
            active, moved, lo, hi, size = active[keep], moved[keep], lo[keep], hi[keep], size[keep]
            counts, photons = counts[keep], photons[keep]
        at, last_size = moved, size
    if finished:
        # the log-likelihood of each row at the point it ended at, all rows in one pass
        ended, counts, probs = (np.concatenate(part) for part in zip(*finished))
        loglik[ended] = (counts * np.log(np.maximum(probs, LIKELIHOOD_FLOOR))).sum(axis=1)

    keep_grid = loglik - top <= _TIE * (np.abs(top) + 1.0)
    d_hat = np.where(keep_grid, _GRID[best], d_hat)
    loglik = np.where(keep_grid, top, loglik)
    boundary = (d_hat <= _GRID[0] + _REFINE_TOL) | (d_hat >= _GRID[-1] - _REFINE_TOL)
    return _Fits(d_hat, loglik, iterations, converged, flat, boundary)


def fit_calibration(
    datasets: Sequence[tuple[float, CountMatrix]],
    forward: Callable[[float], np.ndarray],
) -> CalibrationModel:
    """Per-outcome least squares of normalized counts against model probabilities.

    datasets pairs known separations with their counts. Outcomes whose model
    probability never varies across the separations are rank deficient; they
    get alpha = 1, beta = mean residual, and a mark in the degenerate mask.
    alpha is clipped at 0 and beta to [0, 1].
    """
    if len(datasets) < 2:
        raise ValueError("need at least two labeled datasets")
    seps = [float(s) for s, _ in datasets]
    if len(set(seps)) < 2:
        raise ValueError("need at least two distinct separations")
    if any(cm.total < 1 for _, cm in datasets):
        raise ValueError("every dataset needs at least one count")
    shape = datasets[0][1].counts.shape
    if any(cm.counts.shape != shape for _, cm in datasets):
        raise ValueError("datasets must share a counts shape")
    x, _ = _as_map(forward).batch(np.array(seps), False)
    if x.shape[1] != math.prod(shape):
        raise ValueError("forward model size does not match the counts")
    totals = np.array([cm.total for _, cm in datasets], dtype=float)
    y = np.stack([cm.counts.ravel() for _, cm in datasets]) / totals[:, None]
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    sxx = ((x - x_mean) ** 2).sum(axis=0)
    degenerate = sxx < 1e-18
    sxy = ((x - x_mean) * (y - y_mean)).sum(axis=0)
    alpha = np.where(degenerate, 1.0, sxy / np.where(degenerate, 1.0, sxx))
    beta = np.where(degenerate, (y - x).mean(axis=0), y_mean - alpha * x_mean)
    alpha = np.clip(alpha, 0.0, None)
    beta = np.clip(beta, 0.0, 1.0)
    return CalibrationModel(
        alpha=alpha.reshape(shape), beta=beta.reshape(shape), degenerate=degenerate.reshape(shape)
    )


@dataclass(frozen=True)
class _ForwardMap:
    """d -> outcome probabilities, at one separation or at an array of them.

    The one model object a fit reads. Called with separations of any shape, it
    returns the stacked arrays of one vectorized pass, of shape
    np.shape(d) + shape. batch(d, derivative) takes a 1-D array of separations
    and returns (probabilities, d-derivatives) as (separations x outcomes)
    rows, the d-derivatives None unless derivative is true. The map keeps, for
    its lifetime, one table over the points _KEPT (the grid, then _CURVE_STEP):
    the probabilities at every point, built on first use, and the d-derivatives
    at the points a fit has asked for (kept_rows); calling it builds none of them.
    A view (calibrated) holds its base map and one function rows(probs, slopes)
    -> (probs, slopes) on (separations x outcomes) rows: its rows, of a batch
    pass or kept, are the base map's rows passed through it, and its
    derivatives stay in the base map's table.
    """

    batch: Callable
    shape: tuple
    base: _ForwardMap | None = None
    # compared by identity, as batch is, so a map stays hashable
    rows: Callable | None = None

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        probs, _ = self.batch(d.ravel(), False)
        return probs.reshape(d.shape + self.shape)

    @cached_property
    def _kept(self) -> np.ndarray:
        # (kept points, outcomes) probabilities at _KEPT, read-only
        if self.base is None:
            probs = self.batch(_KEPT, False)[0]
        else:
            probs = self.rows(self.base._kept, None)[0]
        probs.flags.writeable = False
        return probs

    @cached_property
    def log_probs(self) -> np.ndarray:
        """(grid points, outcomes) log-probabilities on the search grid, floored, read-only."""
        table = np.log(np.maximum(self._kept[:len(_GRID)], LIKELIHOOD_FLOOR))
        table.flags.writeable = False
        return table

    @cached_property
    def _kept_slopes(self) -> tuple[np.ndarray, np.ndarray]:
        # (kept points, outcomes) d-derivatives and the mask of the points filled in
        return np.empty_like(self._kept), np.zeros(len(_KEPT), dtype=bool)

    def kept_rows(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(probabilities, d-derivatives) at the kept points _KEPT[index], one row per index.

        Only the derivatives no earlier call asked for are evaluated, in one batch pass.
        """
        if self.base is not None:
            return self.rows(*self.base.kept_rows(index))
        table, known = self._kept_slopes
        if not known[index].all():
            # a mask, not np.unique: that would import numpy.ma
            want = np.zeros(len(_KEPT), dtype=bool)
            want[index] = True
            new = np.flatnonzero(want & ~known)
            table[new] = self.batch(_KEPT[new], True)[1]
            known[new] = True
        return self._kept[index], table[index]

    def calibrated(self, calibration: CalibrationModel | None) -> _ForwardMap:
        """This map followed by apply_calibration's map (this map itself for None)."""
        if calibration is None:
            return self
        rows = partial(_calibrate_rows, cal=calibration)
        return _ForwardMap(lambda d, derivative: rows(*self.batch(d, derivative)),
                           self.shape, self, rows)


def _as_map(forward, step: float = _DIFF_STEP) -> _ForwardMap:
    # forward itself if it is a map; a plain callable becomes a map of one scalar call
    # per separation, its outcomes flattened (shape (-1,)), with fourth-order
    # central-difference derivatives at this step
    if isinstance(forward, _ForwardMap):
        return forward

    def at(d):
        return np.stack([np.asarray(forward(float(x)), dtype=float).ravel() for x in d])

    def batch(d, derivative):
        probs = at(d)
        if not derivative:
            return probs, None

        def rise(h):
            return at(d + h) - at(d - h)

        return probs, (8.0 * rise(step) - rise(2.0 * step)) / (12.0 * step)

    return _ForwardMap(batch, (-1,))


# One map per measurement and process, so its kept tables and its spade plan are
# built once: equal arguments, passed the same way, return the same map. Once fits
# have read them, a map holds up to three tables of 201 x outcomes floats
# (probabilities, their logs, the slopes filled so far) and its plan of 40 bytes
# per outcome, 6.7 MB for a 37x37 space; a full cache of eight such maps holds up
# to 53 MB.
@lru_cache(maxsize=8)
def spade_forward(
    model: SchmidtModel, space: ModeSpace, renormalize: bool = True
) -> Callable[[float], np.ndarray]:
    """Forward map d -> coincidence probability matrix entries (d scalar or array).

    Equal arguments return the same map, shared by every caller in the process.
    """
    size, plan = _spade_setup(space, model.gamma)
    return _ForwardMap(
        lambda d, derivative: _spade_probs(d, size, plan, renormalize, derivative)[:2],
        space.shape,
    )


@lru_cache(maxsize=8)
def direct_forward(
    model: SchmidtModel, grid: PixelGrid, kind: str
) -> Callable[[float], np.ndarray]:
    """Forward map d -> pixel probability vector with residual bucket (d scalar or array).

    The vector holds the exact pixel masses of the marginal intensity, plus an
    out-of-span residual bucket. A component's mass between edges u_a < u_b
    (in units of 1/s from its centre) is (erf(u_b) - erf(u_a))/2. Each
    difference is taken from erfc on the side of the edges away from zero, so
    tail pixels keep their relative accuracy and the d = 0 vector stays
    mirror-symmetric. Each vector sums to one. Equal arguments return the same
    map, shared by every caller in the process.
    """
    s = _psf_scale(model, kind)
    return _ForwardMap(lambda d, derivative: _pixel_probs(d, grid, s, derivative),
                       (grid.count + 1,))


def _method_forward(method: str, model: SchmidtModel, space: ModeSpace, grid: PixelGrid):
    # the forward map each method of METHODS fits: spade over the mode space,
    # direct_<kind> over the pixel grid
    if method == "spade":
        return spade_forward(model, space)
    return direct_forward(model, grid, method.removeprefix("direct_"))


def trial_seed(master_seed: int, trial: int) -> int:
    """Deterministic per-trial sub-seed derived from the master seed and trial index."""
    _check_natural(master_seed, "master_seed")
    _check_natural(trial, "trial")
    # the one sub-seed rule, also of the compare cells' masters: the first 32-bit word
    # of numpy's SeedSequence of the entropy; _seed_states is it over many entropies at once
    return int(np.random.SeedSequence((master_seed, trial)).generate_state(1)[0])


# numpy's SeedSequence hash and PCG64 seeding, fixed by NEP 19: the hash constants,
# the 4-word pool and the 128-bit PCG64 multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_POOL = 4
_OTHERS = [np.array([row for row in range(_POOL) if row != src]) for src in range(_POOL)]
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


@lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    # the xor and multiplier constants of count successive hashmix calls, as one
    # (2 x count x 1) uint32 table: each call multiplies by the next call's xor
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    table = np.array([chain[:-1], chain[1:]], dtype=np.uint32).reshape(2, count, 1)
    table.flags.writeable = False
    return table


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    # hashmix of values (one row, or one row per call) under each call of a constants table
    v = (values ^ constants[0]) * constants[1]
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _XSHIFT)


def _seed_states(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(e).generate_state(n_words) of each column e of a (words x seeds) uint32 array.

    numpy's mix_entropy and generate_state loop for loop, each step on every column at once.
    """
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL * max(_POOL, len(entropy)))
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL]  # zeros past the last entropy word
    pool = _hashmix(pool, constants[:, :_POOL])
    call = _POOL
    for src in range(_POOL):  # each pool word into the other three
        others = _OTHERS[src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], constants[:, call:call + 3]))
        call += 3
    for src in range(_POOL, len(entropy)):  # each further entropy word into all four
        pool = _mix(pool, _hashmix(entropy[src], constants[:, call:call + _POOL]))
        call += _POOL
    cycled = pool[np.arange(n_words) % _POOL]  # generate_state reads the pool cyclically
    return _hashmix(cycled, _hash_constants(_INIT_B, _MULT_B, n_words))


def _seed_words(seed) -> list[int]:
    # the 32-bit words, least significant first, that SeedSequence reads from a
    # non-negative integer (the public entries refuse any other seed by _check_natural)
    seed = operator.index(seed)
    return [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]


def _cell_masters(seed: int, methods: int, seps: int) -> list[int]:
    """Master seeds of the compare cells, trial_seed's rule on (seed, m, c).

    The cell of method m at separation c, for every m < methods and c < seps,
    method-major, in one vectorized pass.
    """
    index = np.indices((methods, seps), dtype=np.uint32).reshape(2, -1)
    words = np.array(_seed_words(seed), dtype=np.uint32)[:, None].repeat(index.shape[1], axis=1)
    return _seed_states(np.vstack([words, index]), 1)[0].tolist()


def _check_trials(trials) -> None:
    if not (_is_integer(trials) and trials >= 2):
        raise ValueError(f"need an integer number of at least 2 trials, got {trials!r}")


def _trial_states(masters: Sequence[int], trials: int) -> np.ndarray:
    """PCG64 seed words of default_rng(trial_seed(m, t)) for each master m and t < trials.

    A (masters x trials x 4) uint64 array: default_rng hashes each sub-seed again,
    and PCG64 reads 8 words of it as 4 little-endian uint64 q0..q3, which _pcg64_state
    turns into the generator's state. The masters share a number of 32-bit words
    (a compare job's cell masters are one word each) and hash in one vectorized pass.
    """
    words = np.array([_seed_words(m) for m in masters], dtype=np.uint32).T.repeat(trials, axis=1)
    index = np.tile(np.arange(trials, dtype=np.uint32), len(masters))
    halves = _seed_states(_seed_states(np.vstack([words, index]), 1), 8).astype(np.uint64)
    return (halves[0::2] | halves[1::2] << 32).T.reshape(len(masters), trials, 4)


def _pcg64_state(q0: int, q1: int, q2: int, q3: int) -> tuple[int, int]:
    # PCG64's (state, inc) after seeding with initstate = q0 << 64 | q1, initseq = q2 << 64 | q3
    inc = ((q2 << 64 | q3) << 1 | 1) & _MASK128
    return (((q0 << 64 | q1) + inc) * _PCG_MULT + inc) & _MASK128, inc


def mc_standard_error(
    method: str,
    gamma: float,
    n_photons: int,
    d: float,
    trials: int,
    seed: int,
    *,
    forward: Callable[[float], np.ndarray] | None = None,
    model: SchmidtModel | None = None,
) -> MonteCarloResult:
    """Independent sample-and-estimate cycles at one true separation.

    Returns the sample standard deviation and mean of the delta_hat estimates,
    with the fraction of boundary and flat-likelihood trials. Deterministic
    for a given seed: each trial uses a sub-seed derived from its index, and
    results are reduced in trial order. Without a forward map the method fits
    the default 7x7 mode space or 50-pixel grid. d must lie in [0, 2], the
    interval every fit searches.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if model is None:
        model = SchmidtModel.from_gamma(gamma)
    elif model.gamma != gamma:
        raise ValueError(f"model gamma {model.gamma!r} differs from gamma {gamma!r}")
    if forward is None:
        forward = _method_forward(method, model, ModeSpace.grid(), PixelGrid())
    _check_natural(n_photons, "n_photons")
    _check_trials(trials)
    _check_natural(seed, "seed")
    return _mc_cells(method, n_photons, [d], _trial_states([seed], trials), _as_map(forward))[0]


def _mc_cells(method, n_photons, seps, states, forward) -> list[MonteCarloResult]:
    """Monte-Carlo cells of one method at each separation of seps, in order.

    states holds, for the cell at seps[i], the _trial_states row of its master seed:
    its trial t draws exactly sample_counts(truth, n_photons, trial_seed(master, t)),
    on one Generator set to the PCG64 state default_rng of that sub-seed starts from.
    The cells share one grid table of forward. Every cell's truth vector comes
    from one batched forward evaluation and all are checked at once, as
    sample_counts checks one. Consecutive whole cells share one _fit call of at
    most _FIT_ROWS rows (a cell with more trials is fitted alone); rows fit
    independently, so the grouping changes no result. The cells' statistics
    are reduced along the trials of one (cells x trials) array (_cell_results).
    """
    seps = np.asarray(seps, dtype=float)
    _check_separations(seps)
    # every fit searches d in [0, 2]: a truth past 2 is fitted short of itself,
    # often with no boundary flag
    outside = (seps < _GRID[0]) | (seps > _GRID[-1])
    if outside.any():
        raise ValueError(f"true separation d must be in [0, 2], the interval every fit "
                         f"searches, got {float(seps[outside][0])!r}")
    trials = states.shape[1]
    truths, _ = forward.batch(seps, False)
    weights = _normalized(truths)
    # made here, not at import: numpy.random loads on first use
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    setting = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}

    d_hat = np.empty((len(seps), trials))
    boundary = np.empty((len(seps), trials), dtype=bool)
    flat = np.empty((len(seps), trials), dtype=bool)
    cells_per_fit = max(1, _FIT_ROWS // trials)
    for first in range(0, len(seps), cells_per_fit):
        cells = range(first, min(first + cells_per_fit, len(seps)))
        draws = []
        for c in cells:
            truth = weights[c]
            for words in states[c].tolist():
                pcg["state"], pcg["inc"] = _pcg64_state(*words)
                bit_generator.state = setting
                draws.append(rng.multinomial(n_photons, truth))
        obs = _checked_draws(np.array(draws, dtype=float), n_photons)
        fits = _fit(obs, forward)
        fitted = slice(first, cells.stop)
        d_hat[fitted] = fits.d_hat.reshape(-1, trials)
        boundary[fitted] = fits.boundary.reshape(-1, trials)
        flat[fitted] = fits.flat.reshape(-1, trials)
    return _cell_results(method, n_photons, seps, 2.0 * d_hat, boundary, flat)


def _cell_results(method, n_photons, seps, estimates, boundary, flat) -> list[MonteCarloResult]:
    # the cells at seps from their (cells x trials) delta_hat estimates and boundary and
    # flat-likelihood flags, each statistic one reduction along the trials: per row, the
    # same arithmetic as the reduction of that cell's 1-D array
    trials = estimates.shape[1]
    stats = zip(seps.tolist(), estimates, estimates.mean(axis=1).tolist(),
                estimates.std(axis=1, ddof=1).tolist(), boundary.sum(axis=1).tolist(),
                flat.sum(axis=1).tolist())
    return [
        MonteCarloResult(method=method, d=d, n_photons=int(n_photons), trials=trials,
                         mean=mean, std_err=std_err, boundary_fraction=hits / trials,
                         flat_fraction=flats / trials, estimates=cell_estimates)
        for d, cell_estimates, mean, std_err, hits, flats in stats
    ]
