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
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericalError
from .model import (
    CalibrationModel,
    ModeSpace,
    PixelGrid,
    ProbabilityMatrix,
    _CURVE_STEP,
    _calibrate_rows,
    _pixel_probs,
    _spade_probs,
)
from .source import (SchmidtModel, _checked_gamma, _coefficient, _is_integer, _mode_indices,
                     coefficient_ratio)

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
_GRID.flags.writeable = False
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
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(np.isfinite(counts) & (counts == np.floor(counts))):
                raise ValueError("counts must be finite integers")
            counts = counts.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        # a Python sum: an int64 sum wraps past 2**63
        object.__setattr__(self, "total", sum(counts.ravel().tolist()))


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
    instead of dividing by nearly zero.
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
    r = coefficient_ratio(gamma)
    return 0.5 + 0.5 * r * r


def fi_branch_totals_2d(gamma: float) -> tuple[float, float]:
    """(up, down) subtotals over all modes: (1-g)^2/(8g) and (1+g)^2/(8g)."""
    gamma = _checked_gamma(gamma)
    return (1.0 - gamma) ** 2 / (8.0 * gamma), (1.0 + gamma) ** 2 / (8.0 * gamma)


def fi_total_2d(gamma: float) -> float:
    """Total small-separation FI over all modes: (gamma + 1/gamma)/4 = sqrt(K)/2."""
    gamma = _checked_gamma(gamma)
    return 0.25 * (gamma + 1.0 / gamma)


def crlb(schmidt_k: float, n_photons: int) -> float:
    """Variance bound 2 / (n sqrt(K)) on separation estimates from n photon pairs."""
    if not (math.isfinite(schmidt_k) and schmidt_k >= 1.0):
        raise ValueError(f"Schmidt number must be finite and >= 1, got {schmidt_k!r}")
    _check_photons(n_photons)
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
    _check_photons(n_photons)
    draw = _checked_draws(_draw(_normalized(p.ravel()), n_photons, seed), n_photons)
    return CountMatrix(draw.reshape(p.shape), probabilities.d if matrix else None)


def _check_photons(n_photons) -> None:
    if not (_is_integer(n_photons) and n_photons >= 0):
        raise ValueError(f"n_photons must be a non-negative integer, got {n_photons!r}")


def _normalized(flat: np.ndarray) -> np.ndarray:
    # the multinomial weights of a flat probability vector, after the checks of sample_counts
    if np.any(flat < -1e-12):
        raise ValueError("probabilities must be non-negative")
    total = float(flat.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1 (got {total!r}); renormalize first")
    return np.clip(flat, 0.0, None) / total


def _draw(weights: np.ndarray, n_photons: int, seed) -> np.ndarray:
    # the one multinomial draw behind sample_counts and the Monte-Carlo cells
    return np.random.default_rng(seed).multinomial(int(n_photons), weights)


def _checked_draws(draws: np.ndarray, n_photons: int) -> np.ndarray:
    # draws itself, once every row holds n_photons non-negative counts
    if np.any(draws < 0) or np.any(draws.sum(axis=-1) != n_photons):
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
    """
    if forward.log_probs.shape[1] != obs.shape[1]:
        raise ValueError("forward model size does not match the counts")
    scores = obs @ forward.log_probs.T
    if not np.all(np.isfinite(scores)):
        raise NumericalError("non-finite log-likelihood on the search grid")
    rows = np.arange(len(obs))
    best = np.argmax(scores, axis=1)
    top = scores[rows, best]
    flat = top - scores.min(axis=1) < 1e-9 * (np.abs(top) + 1.0)

    lower = _GRID[np.maximum(best - 1, 0)]
    upper = _GRID[np.minimum(best + 1, len(_GRID) - 1)]
    x = _GRID[best]
    last_step = upper - lower
    d_hat = x.copy()
    loglik = top.copy()
    iterations = np.zeros(len(obs), dtype=int)
    converged = np.zeros(len(obs), dtype=bool)
    photons = obs.sum(axis=1)
    peaked = best == 0
    if np.any(peaked):
        probs, slopes = forward.batch(np.array([0.0, _CURVE_STEP]), True)
        live = probs[0] > LIKELIHOOD_FLOOR
        ratio = np.divide(slopes[1] / _CURVE_STEP, probs[0], out=np.zeros_like(probs[0]),
                          where=live)
        # a count on an outcome dead at 0 (such as an off-diagonal spade cell)
        # puts the maximum off 0 however the live outcomes curve
        peaked &= (obs @ ratio < 0.0) & (obs[:, ~live].sum(axis=1) == 0.0)
    converged[peaked] = True
    active = rows[~peaked]
    for _ in range(_MAX_REFINE_STEPS):
        if not active.size:
            break
        at = x[active]
        probs, slopes = forward.batch(at, True)
        counts = obs[active]
        live = probs > LIKELIHOOD_FLOOR
        ratio = np.divide(slopes, probs, out=np.zeros_like(probs), where=live)
        score = (counts * ratio).sum(axis=1)
        information = photons[active] * (slopes * ratio).sum(axis=1)
        d_hat[active] = at
        loglik[active] = (counts * np.log(np.maximum(probs, LIKELIHOOD_FLOOR))).sum(axis=1)
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
        done = np.abs(step) < 1e-3 * _REFINE_TOL
        converged[active[done]] = True
        active, step = active[~done], step[~done]
        x[active] += step
        last_step[active] = np.abs(step)

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


@dataclass(frozen=True)
class _ForwardMap:
    """d -> outcome probabilities, at one separation or at an array of them.

    The one model object a fit reads. Called with separations of any shape, it
    returns the stacked arrays of one vectorized pass, of shape
    np.shape(d) + shape. batch(d, derivative) takes a 1-D array of separations
    and returns (probabilities, d-derivatives) as (separations x outcomes)
    rows, the d-derivatives None unless derivative is true. grid_rows, when
    given, returns the rows on the search grid from a table another map
    already holds; without it they are one batch pass.
    """

    batch: Callable
    shape: tuple
    grid_rows: Callable | None = None

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        probs, _ = self.batch(d.ravel(), False)
        return probs.reshape(d.shape + self.shape)

    @cached_property
    def grid_probs(self) -> np.ndarray:
        """(grid points, outcomes) probabilities on the search grid, read-only."""
        probs = self.batch(_GRID, False)[0] if self.grid_rows is None else self.grid_rows()
        probs.flags.writeable = False
        return probs

    @cached_property
    def log_probs(self) -> np.ndarray:
        """(grid points, outcomes) log-probabilities on the search grid, floored, read-only."""
        table = np.log(np.maximum(self.grid_probs, LIKELIHOOD_FLOOR))
        table.flags.writeable = False
        return table

    def calibrated(self, calibration: CalibrationModel | None) -> _ForwardMap:
        """This map followed by apply_calibration's map (this map itself for None).

        The grid rows are this map's, calibrated.
        """
        if calibration is None:
            return self

        def calibrate(probs, slopes):
            if calibration.alpha.size != probs.shape[1]:
                raise ValueError("calibration shape does not match the counts")
            return _calibrate_rows(probs, slopes, calibration)

        return _ForwardMap(
            lambda d, derivative: calibrate(*self.batch(d, derivative)),
            self.shape,
            lambda: calibrate(self.grid_probs, None)[0],
        )


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


# One map per measurement and process, so its grid tables are built once: equal
# arguments, passed the same way, return the same map. Once a fit has read them,
# a map holds two read-only tables of 200 x outcomes floats, 4.4 MB for a 37x37
# space; a full cache of eight such maps holds 35 MB.
@lru_cache(maxsize=8)
def spade_forward(
    model: SchmidtModel, space: ModeSpace, renormalize: bool = True
) -> Callable[[float], np.ndarray]:
    """Forward map d -> coincidence probability matrix entries (d scalar or array).

    Equal arguments return the same map, shared by every caller in the process.
    """

    def batch(d, derivative):
        entries, slopes, _ = _spade_probs(d, space, model, renormalize, derivative)
        return entries.reshape(len(d), -1), None if slopes is None else slopes.reshape(len(d), -1)

    return _ForwardMap(batch, space.shape)


@lru_cache(maxsize=8)
def direct_forward(
    model: SchmidtModel, grid: PixelGrid, kind: str
) -> Callable[[float], np.ndarray]:
    """Forward map d -> pixel probability vector with residual bucket (d scalar or array).

    Equal arguments return the same map, shared by every caller in the process.
    """
    return _ForwardMap(
        lambda d, derivative: _pixel_probs(d, grid, model, kind, derivative),
        (grid.count + 1,),
    )


def _method_forward(method: str, model: SchmidtModel, space: ModeSpace, grid: PixelGrid):
    # the forward map each method of METHODS fits: spade over the mode space,
    # direct_<kind> over the pixel grid
    if method == "spade":
        return spade_forward(model, space)
    return direct_forward(model, grid, method.removeprefix("direct_"))


def trial_seed(master_seed: int, trial: int) -> int:
    """Deterministic per-trial sub-seed derived from the master seed and trial index."""
    return _sub_seed(master_seed, trial)


def _sub_seed(*entropy: int) -> int:
    # the one sub-seed rule: the first 32-bit word of numpy's SeedSequence of entropy
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


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
    the default 7x7 mode space or 50-pixel grid.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if model is None:
        model = SchmidtModel.from_gamma(gamma)
    elif model.gamma != gamma:
        raise ValueError(f"model gamma {model.gamma!r} differs from gamma {gamma!r}")
    if forward is None:
        forward = _method_forward(method, model, ModeSpace.grid(), PixelGrid())
    return _mc_cells(method, n_photons, [d], trials, [seed], _as_map(forward))[0]


def _mc_cells(method, n_photons, seps, trials, cell_seeds, forward) -> list[MonteCarloResult]:
    """Monte-Carlo cells of one method at each separation of seps, in order.

    The cells share one grid table of forward. Every cell's truth vector comes
    from one batched forward evaluation and is checked once, as sample_counts
    checks it. Trial t of the cell at seps[i] draws its counts with sub-seed
    trial_seed(cell_seeds[i], t), the draw of sample_counts. Consecutive whole
    cells share one _fit call of at most _FIT_ROWS rows (a cell with more
    trials is fitted alone); rows fit independently, so the grouping changes
    no result.
    """
    _check_photons(n_photons)
    if not (_is_integer(trials) and trials >= 2):
        raise ValueError(f"need an integer number of at least 2 trials, got {trials!r}")
    seps = np.asarray(seps, dtype=float)
    truths, _ = forward.batch(seps, False)
    weights = [_normalized(truth) for truth in truths]
    cells_per_fit = max(1, _FIT_ROWS // trials)
    results = []
    for first in range(0, len(seps), cells_per_fit):
        cells = range(first, min(first + cells_per_fit, len(seps)))
        obs = _checked_draws(np.array(
            [_draw(weights[c], n_photons, trial_seed(cell_seeds[c], t))
             for c in cells for t in range(trials)],
            dtype=float,
        ), n_photons)
        fits = _fit(obs, forward)
        for i, c in enumerate(cells):
            trial_rows = slice(i * trials, (i + 1) * trials)
            estimates = 2.0 * fits.d_hat[trial_rows]
            results.append(MonteCarloResult(
                method=method,
                d=float(seps[c]),
                n_photons=int(n_photons),
                trials=int(trials),
                mean=float(estimates.mean()),
                std_err=float(estimates.std(ddof=1)),
                boundary_fraction=int(fits.boundary[trial_rows].sum()) / trials,
                flat_fraction=int(fits.flat[trial_rows].sum()) / trials,
                estimates=estimates,
            ))
    return results
