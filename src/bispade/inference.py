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
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NumericalError
from .model import (
    CalibrationModel,
    ModeSpace,
    PixelGrid,
    ProbabilityMatrix,
    _pixel_probs,
    _spade_probs,
    pixel_probs,
    prob_matrix,
)
from .source import SchmidtModel, coefficient_ratio, schmidt_coeff

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

_MAX_REFINE_STEPS = 100
# central-difference step for the derivative of a forward map that has no exact one
_DIFF_STEP = 1e-6
# refinement must beat the best grid point's log-likelihood by more than this
# relative amount, a few ulps of the sum of count * log p terms; a point within
# rounding of the grid optimum (as near d = 0, where the model is even in d)
# does not displace it
_TIE = 1e-15


@dataclass(frozen=True)
class CountMatrix:
    """Observed or simulated photon counts over a mode space or pixel grid."""

    counts: np.ndarray
    total: int
    separation: float | None = None
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise ValueError("counts must be integers")
            counts = counts.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if int(counts.sum()) != int(self.total):
            raise ValueError(
                f"counts sum {int(counts.sum())} does not match declared total {self.total}"
            )
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))

    @classmethod
    def from_counts(cls, counts, separation: float | None = None, **meta) -> "CountMatrix":
        counts = np.asarray(counts)
        return cls(counts=counts, total=int(counts.sum()), separation=separation, meta=dict(meta))


@dataclass(frozen=True)
class FisherReport:
    """Per-outcome Fisher information contributions about delta = 2*d."""

    contributions: np.ndarray
    total: float
    d: float
    step: float
    skipped: tuple[int, ...] = ()
    parameterization: str = PARAMETERIZATION


@dataclass(frozen=True)
class EstimationResult:
    """Maximum-likelihood separation estimate plus search diagnostics."""

    d_hat: float
    delta_hat: float
    log_likelihood: float
    crlb_variance: float | None
    bounds: tuple[float, float]
    grid_points: int
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
    crlb_variance: float | None
    estimates: np.ndarray


def fisher_numeric(
    prob_fn: Callable[[float], np.ndarray],
    d: float,
    step: float = 1e-4,
    floor: float = LIKELIHOOD_FLOOR,
) -> FisherReport:
    """Central-difference Fisher information of the outcome vector prob_fn(d).

    prob_fn maps a per-arm shift to outcome probabilities; derivatives are
    taken with respect to delta = 2*d (delta moves twice as fast as d).
    Outcomes below `floor` are skipped and reported instead of dividing by
    nearly zero.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    p0 = np.asarray(prob_fn(d), dtype=float).ravel()
    p_hi = np.asarray(prob_fn(d + step), dtype=float).ravel()
    p_lo = np.asarray(prob_fn(d - step), dtype=float).ravel()
    deriv = (p_hi - p_lo) / (4.0 * step)
    if not (np.all(np.isfinite(deriv)) and np.all(np.isfinite(p0))):
        raise NumericalError("non-finite probability or derivative in Fisher evaluation")
    keep = p0 >= floor
    contributions = np.zeros_like(p0)
    contributions[keep] = deriv[keep] ** 2 / p0[keep]
    return FisherReport(
        contributions=contributions,
        total=float(contributions.sum()),
        d=float(d),
        step=float(step),
        skipped=tuple(int(i) for i in np.flatnonzero(~keep)),
    )


def fi_closed_form(k, l, gamma: float, branch: str):
    """Small-separation Fisher information of one joint projection.

    branch 'diag' is the vanishing k = k' limit; 'up' pairs idler k with
    signal k+1 and contributes (k+1)/2 * C_{k+1,l}^2; 'down' pairs idler k
    with signal k-1 and contributes k/2 * C_{k-1,l}^2. Accepts array indices.
    """
    ka = np.asarray(k)
    la = np.asarray(l)
    if np.any(ka < 0) or np.any(la < 0):
        raise ValueError("mode indices must be non-negative")
    scalar = ka.ndim == 0 and la.ndim == 0
    if branch == "diag":
        out = np.zeros(np.broadcast(ka, la).shape)
    elif branch == "up":
        c = schmidt_coeff(ka + 1, la, gamma)
        out = 0.5 * (ka + 1) * c * c
    elif branch == "down":
        c = schmidt_coeff(np.maximum(ka - 1, 0), la, gamma)
        out = np.where(ka > 0, 0.5 * ka * c * c, 0.0)
    else:
        raise ValueError(f"unknown branch {branch!r}; expected 'diag', 'up' or 'down'")
    return float(out) if scalar else out


def fi_total_1d(gamma: float) -> float:
    """Total small-separation FI of the full l = 0 projection set: 1/2 + r^2/2."""
    r = coefficient_ratio(gamma)
    return 0.5 + 0.5 * r * r


def fi_branch_totals_2d(gamma: float) -> tuple[float, float]:
    """(up, down) subtotals over all modes: (1-g)^2/(8g) and (1+g)^2/(8g)."""
    coefficient_ratio(gamma)
    return (1.0 - gamma) ** 2 / (8.0 * gamma), (1.0 + gamma) ** 2 / (8.0 * gamma)


def fi_total_2d(gamma: float) -> float:
    """Total small-separation FI over all modes: (gamma + 1/gamma)/4 = sqrt(K)/2."""
    coefficient_ratio(gamma)
    return 0.25 * (gamma + 1.0 / gamma)


def crlb(schmidt_k: float, n_photons: int) -> float:
    """Variance bound 2 / (n sqrt(K)) on separation estimates from n photon pairs."""
    if not schmidt_k >= 1.0:
        raise ValueError(f"Schmidt number must be >= 1, got {schmidt_k!r}")
    if not n_photons >= 1:
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
    if isinstance(probabilities, ProbabilityMatrix):
        p = probabilities.entries
        separation = probabilities.d
    else:
        p = np.asarray(probabilities, dtype=float)
        separation = None
    if n_photons < 0:
        raise ValueError("n_photons must be non-negative")
    flat = p.ravel()
    if np.any(flat < -1e-12):
        raise ValueError("probabilities must be non-negative")
    total = float(flat.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1 (got {total!r}); renormalize first")
    rng = np.random.default_rng(seed)
    draw = rng.multinomial(int(n_photons), np.clip(flat, 0.0, None) / total)
    return CountMatrix(
        counts=draw.reshape(p.shape), total=int(n_photons), separation=separation
    )


def mle_estimate(
    counts: CountMatrix,
    forward: Callable[[float], np.ndarray],
    calibration: CalibrationModel | None = None,
    bounds: tuple[float, float] = (0.0, 2.0),
    grid_points: int = 200,
    refine_tol: float = 1e-5,
    crlb_variance: float | None = None,
    floor: float = LIKELIHOOD_FLOOR,
) -> EstimationResult:
    """Maximize the multinomial log-likelihood of `counts` under `forward`.

    forward(d) returns outcome probabilities at per-arm shift d (any shape,
    flattened against the counts). A calibration, when given, applies the
    per-outcome affine map to the model and renormalizes before the
    likelihood, mirroring apply_calibration. The search scores a coarse grid,
    then refines by safeguarded Fisher scoring inside the bracket of the best
    grid point's neighbours; the model is even in d, so d = 0 can sit on a
    plateau, where scoring falls back to bisection and the grid point is kept
    unless refinement beats it. The maps of spade_forward and direct_forward
    supply the exact d-derivative; for any other callable it is a central
    difference. The multinomial coefficient is separation independent and
    dropped.
    """
    obs = counts.counts.ravel()[None, :].astype(float)
    table = _GridTable.build(forward, calibration, bounds, grid_points, floor)
    fits = _fit(obs, forward, table, refine_tol)
    d_hat = float(fits.d_hat[0])
    return EstimationResult(
        d_hat=d_hat,
        delta_hat=2.0 * d_hat,
        log_likelihood=float(fits.log_likelihood[0]),
        crlb_variance=crlb_variance,
        bounds=(float(table.grid[0]), float(table.grid[-1])),
        grid_points=grid_points,
        refine_iterations=int(fits.iterations[0]),
        converged=bool(fits.converged[0]),
        flags=fits.flags(0),
    )


class _GridTable(NamedTuple):
    """Log-probabilities of one forward map (with its calibration) on the search grid."""

    grid: np.ndarray
    log_probs: np.ndarray  # (grid points, outcomes)
    calibration: CalibrationModel | None
    floor: float

    @classmethod
    def build(
        cls, forward, calibration, bounds, grid_points=200, floor=LIKELIHOOD_FLOOR
    ) -> "_GridTable":
        lo, hi = float(bounds[0]), float(bounds[1])
        if not hi > lo:
            raise ValueError("bounds must satisfy lo < hi")
        if grid_points < 2:
            raise ValueError("need at least 2 grid points")
        grid = np.linspace(lo, hi, grid_points)
        probs, _ = _calibrated(_evaluate(forward, grid, derivative=False), calibration)
        return cls(grid, np.log(np.maximum(probs, floor)), calibration, floor)


def _evaluate(forward, d: np.ndarray, derivative: bool):
    # (probabilities, d-derivatives or None) at each separation of d, outcomes flattened
    if isinstance(forward, _ForwardMap):
        probs, slopes = forward.batch(d, derivative)
        return probs.reshape(len(d), -1), None if slopes is None else slopes.reshape(len(d), -1)

    def at(shift):
        return np.stack([np.asarray(forward(float(x)), dtype=float).ravel() for x in d + shift])

    probs = at(0.0)
    if not derivative:
        return probs, None
    return probs, (at(_DIFF_STEP) - at(-_DIFF_STEP)) / (2.0 * _DIFF_STEP)


def _calibrated(evaluated, calibration: CalibrationModel | None):
    # the affine detector map of apply_calibration, floored at zero and
    # renormalized, applied to (probabilities, derivatives) rows
    probs, slopes = evaluated
    if calibration is None:
        return probs, slopes
    alpha = calibration.alpha.ravel()
    if alpha.size != probs.shape[1]:
        raise ValueError("calibration shape does not match the counts")
    raw = alpha * probs + calibration.beta.ravel()
    live = raw > 0.0
    raw = np.where(live, raw, 0.0)
    totals = raw.sum(axis=1)
    if np.any(totals <= 0.0):
        raise NumericalError("calibrated probabilities vanish everywhere")
    probs = raw / totals[:, None]
    if slopes is None:
        return probs, None
    raw_slopes = np.where(live, alpha * slopes, 0.0)
    slopes = (raw_slopes - probs * raw_slopes.sum(axis=1)[:, None]) / totals[:, None]
    return probs, slopes


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


def _fit(obs: np.ndarray, forward, table: _GridTable, refine_tol: float = 1e-5) -> _Fits:
    """Maximum-likelihood separations of every row of the (rows x outcomes) count matrix.

    One matmul scores all rows on the grid table. Every row then refines in
    lockstep by Fisher scoring, d += score / information, started at its best
    grid point and kept inside the bracket of that point's grid neighbours;
    the bracket shrinks to the side the score points to. A step that would
    leave the bracket, that would not halve the previous step, or that has no
    information behind it (at d = 0 the model is even in d, so score and
    information vanish) is replaced by bisection. A row stops once its step
    is below 1e-3 * refine_tol. Refinement that does not beat the best grid
    point by more than rounding keeps the grid point.
    """
    grid, floor = table.grid, table.floor
    if table.log_probs.shape[1] != obs.shape[1]:
        raise ValueError("forward model size does not match the counts")
    scores = obs @ table.log_probs.T
    if not np.all(np.isfinite(scores)):
        raise NumericalError("non-finite log-likelihood on the search grid")
    rows = np.arange(len(obs))
    best = np.argmax(scores, axis=1)
    top = scores[rows, best]
    flat = top - scores.min(axis=1) < 1e-9 * (np.abs(top) + 1.0)

    lower = grid[np.maximum(best - 1, 0)]
    upper = grid[np.minimum(best + 1, len(grid) - 1)]
    x = grid[best]
    last_step = upper - lower
    d_hat = x.copy()
    loglik = top.copy()
    iterations = np.zeros(len(obs), dtype=int)
    converged = np.zeros(len(obs), dtype=bool)
    photons = obs.sum(axis=1)
    active = rows
    for _ in range(_MAX_REFINE_STEPS):
        if not active.size:
            break
        at = x[active]
        probs, slopes = _calibrated(_evaluate(forward, at, derivative=True), table.calibration)
        counts = obs[active]
        live = probs > floor
        ratio = np.divide(slopes, probs, out=np.zeros_like(probs), where=live)
        score = (counts * ratio).sum(axis=1)
        information = photons[active] * (slopes * ratio).sum(axis=1)
        d_hat[active] = at
        loglik[active] = (counts * np.log(np.maximum(probs, floor))).sum(axis=1)
        iterations[active] += 1
        lo = lower[active] = np.where(score > 0.0, at, lower[active])
        hi = upper[active] = np.where(score < 0.0, at, upper[active])
        step = np.divide(score, information, out=np.zeros_like(score), where=information > 0.0)
        newton = (
            (information > 0.0)
            & (at + step > lo)
            & (at + step < hi)
            & (np.abs(step) <= 0.5 * last_step[active])
        )
        step = np.where(newton, step, 0.5 * (lo + hi) - at)
        done = np.abs(step) < 1e-3 * refine_tol
        converged[active[done]] = True
        active, step = active[~done], step[~done]
        x[active] += step
        last_step[active] = np.abs(step)

    keep_grid = loglik - top <= _TIE * (np.abs(top) + 1.0)
    d_hat = np.where(keep_grid, grid[best], d_hat)
    loglik = np.where(keep_grid, top, loglik)
    boundary = (d_hat <= grid[0] + refine_tol) | (d_hat >= grid[-1] - refine_tol)
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
    x, _ = _evaluate(forward, np.array(seps), derivative=False)
    y = np.stack([cm.counts.ravel() / cm.total for _, cm in datasets])
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


class _ForwardMap:
    """d -> outcome probabilities, at one separation or at an array of them.

    Called with a scalar, it returns the array of the single-separation model
    function; called with an array of separations, the stacked arrays from
    one vectorized pass. batch(d, derivative) takes a 1-D array of separations
    and returns (probabilities, exact d-derivatives or None), stacked alike.
    """

    __slots__ = ("_single", "batch", "shape")

    def __init__(self, single, batch, shape):
        self._single = single
        self.batch = batch
        self.shape = shape

    def __call__(self, d):
        if np.ndim(d) == 0:
            return self._single(float(d))
        d = np.asarray(d, dtype=float)
        probs, _ = self.batch(d.ravel(), False)
        return probs.reshape(d.shape + self.shape)


def spade_forward(
    model: SchmidtModel, space: ModeSpace, renormalize: bool = True
) -> Callable[[float], np.ndarray]:
    """Forward map d -> coincidence probability matrix entries (d scalar or array)."""
    return _ForwardMap(
        lambda d: prob_matrix(d, space, model, renormalize=renormalize).entries,
        lambda d, derivative: _spade_probs(d, space, model, renormalize, derivative)[:2],
        space.shape,
    )


def direct_forward(
    model: SchmidtModel, grid: PixelGrid, kind: str
) -> Callable[[float], np.ndarray]:
    """Forward map d -> pixel probability vector with residual bucket (d scalar or array)."""
    return _ForwardMap(
        lambda d: pixel_probs(d, grid, model, kind),
        lambda d, derivative: _pixel_probs(d, grid, model, kind, derivative),
        (grid.count + 1,),
    )


def trial_seed(master_seed: int, trial: int) -> int:
    """Deterministic per-trial sub-seed derived from the master seed and trial index."""
    return int(np.random.SeedSequence((master_seed, trial)).generate_state(1)[0])


def mc_standard_error(
    method: str,
    gamma: float,
    n_photons: int,
    d: float,
    trials: int,
    seed: int,
    *,
    space: ModeSpace | None = None,
    grid: PixelGrid | None = None,
    bounds: tuple[float, float] = (0.0, 2.0),
    forward: Callable[[float], np.ndarray] | None = None,
    model: SchmidtModel | None = None,
) -> MonteCarloResult:
    """Independent sample-and-estimate cycles at one true separation.

    Returns the sample standard deviation and mean of the delta_hat estimates,
    with the fraction of boundary and flat-likelihood trials. Deterministic
    for a given seed: each trial uses a sub-seed derived from its index, and
    results are reduced in trial order.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if model is None:
        model = SchmidtModel.from_gamma(gamma)
    if forward is None:
        if method == "spade":
            forward = spade_forward(model, space if space is not None else ModeSpace.grid())
        else:
            kind = "gaussian" if method == "direct_gaussian" else "spdc"
            forward = direct_forward(model, grid if grid is not None else PixelGrid(), kind)
    table = _GridTable.build(forward, None, bounds)
    return _mc_cell(method, model, n_photons, d, trials, seed, forward, table)


def _mc_cell(method, model, n_photons, d, trials, seed, forward, table) -> MonteCarloResult:
    # the trials of one cell: counts drawn per trial sub-seed, all fitted in one _fit call
    bound_var = crlb(model.schmidt_number, n_photons) if n_photons >= 1 else None
    truth = np.asarray(forward(float(d)), dtype=float)
    obs = np.stack([
        sample_counts(truth, n_photons, trial_seed(seed, t)).counts.ravel() for t in range(trials)
    ]).astype(float)
    fits = _fit(obs, forward, table)
    estimates = 2.0 * fits.d_hat
    return MonteCarloResult(
        method=method,
        d=float(d),
        n_photons=int(n_photons),
        trials=int(trials),
        mean=float(estimates.mean()),
        std_err=float(estimates.std(ddof=1)),
        boundary_fraction=int(fits.boundary.sum()) / trials,
        flat_fraction=int(fits.flat.sum()) / trials,
        crlb_variance=bound_var,
        estimates=estimates,
    )
