"""Independent brute-force oracles used only by the tests.

These deliberately avoid the recurrence/closed-form code paths they check:
explicit series sums in exact rational arithmetic, scalar recurrences,
truncated Hermite-Gauss mode sums, dense Riemann binning, and mode
projections of the two-photon wavefunction.
"""
import math
from fractions import Fraction

import numpy as np


def _hermite_terms(n: int, x: float):
    xf = Fraction(x)
    for j in range(n // 2 + 1):
        yield Fraction(
            (-1) ** j * math.factorial(n), math.factorial(j) * math.factorial(n - 2 * j)
        ) * (2 * xf) ** (n - 2 * j)


def hermite_series(n: int, x: float) -> float:
    """Exact explicit sum H_n(x) = n! sum_j (-1)^j (2x)^(n-2j) / (j! (n-2j)!)."""
    return float(sum(_hermite_terms(n, x), Fraction(0)))


def hermite_series_scale(n: int, x: float) -> float:
    """Sum of absolute series terms; the attainable float accuracy scale."""
    return float(sum(abs(t) for t in _hermite_terms(n, x)))


def _laguerre_terms(m: int, alpha: int, x: float):
    xf = Fraction(x)
    for j in range(m + 1):
        yield Fraction((-1) ** j * math.comb(m + alpha, m - j), math.factorial(j)) * xf ** j


def laguerre_series(m: int, alpha: int, x: float) -> float:
    """Exact explicit sum L_m^alpha(x) = sum_j (-1)^j C(m+alpha, m-j) x^j / j!."""
    return float(sum(_laguerre_terms(m, alpha, x), Fraction(0)))


def laguerre_series_scale(m: int, alpha: int, x: float) -> float:
    """Sum of absolute series terms; the attainable float accuracy scale."""
    return float(sum(abs(t) for t in _laguerre_terms(m, alpha, x)))


def laguerre(m: int, alpha: int, x):
    """Generalized Laguerre polynomial L_m^alpha(x) by the stable upward recurrence."""
    if m < 0:
        raise ValueError(f"Laguerre order must be non-negative, got {m}")
    if alpha < -m:
        raise ValueError(f"alpha must satisfy alpha >= -m, got alpha={alpha}, m={m}")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    l_prev = np.ones_like(xa)
    if m == 0:
        return float(l_prev) if scalar else l_prev
    l_cur = 1.0 + alpha - xa
    for k in range(1, m):
        l_cur, l_prev = (
            ((2.0 * k + 1.0 + alpha - xa) * l_cur - (k + alpha) * l_prev) / (k + 1.0),
            l_cur,
        )
    return float(l_cur) if scalar else l_cur


def scalar_overlap(m: int, n: int, d: float, sign: int = 1) -> float:
    """<m|n, sign*d> from the scalar Cahill-Glauber formula, one cell at a time.

    For n >= m:
        sqrt(m!/n!) 2^((m-n)/2) (sign*d)^(n-m) exp(-d^2/4) L_m^(n-m)(d^2/2)
    with the prefactor in log space; m > n swaps the modes and flips the sign.
    """
    if m > n:
        return scalar_overlap(n, m, d, -sign)
    log_pref = 0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)) + 0.5 * (m - n) * math.log(2.0)
    return (
        (sign * d) ** (n - m) * math.exp(log_pref - 0.25 * d * d) * laguerre(m, n - m, 0.5 * d * d)
    )


def hg1d_batch(max_m: int, x) -> np.ndarray:
    """Hermite-Gauss amplitudes (2^m m! sqrt(pi))^(-1/2) H_m(x) exp(-x^2/2), m = 0..max_m.

    One pass of the normalized three-term recurrence; returns shape
    (max_m+1,) + shape(x), with scalar x treated as shape (1,).
    """
    if max_m < 0:
        raise ValueError(f"mode index must be non-negative, got {max_m}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((max_m + 1,) + xa.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    if max_m >= 1:
        out[1] = math.sqrt(2.0) * xa * out[0]
    for m in range(1, max_m):
        out[m + 1] = math.sqrt(2.0 / (m + 1)) * xa * out[m] - math.sqrt(m / (m + 1)) * out[m - 1]
    return out


def mode_sum_intensity(x, d, model, kind):
    """Marginal intensity as the truncated mode sum sum_m w_m (hg_m(x-d)^2 + hg_m(x+d)^2)/2.

    'gaussian' keeps the fundamental mode alone; 'spdc' weights the reduced
    one-photon modes by w_m = (1-q) q^m with q = ((1-gamma)/(1+gamma))^2,
    summed until q^m < 1e-17.
    """
    if kind == "gaussian":
        weights = np.ones(1)
    else:
        q = ((1.0 - model.gamma) / (1.0 + model.gamma)) ** 2
        count = 1
        while q ** count >= 1e-17:
            count += 1
        weights = (1.0 - q) * q ** np.arange(count)
    xs = np.asarray(x, dtype=float)
    minus = hg1d_batch(len(weights) - 1, xs - d)
    plus = hg1d_batch(len(weights) - 1, xs + d)
    return 0.5 * (weights @ (minus * minus) + weights @ (plus * plus))


def riemann_pixel_probs(d, grid, model, kind, points: int = 10_000) -> np.ndarray:
    """Midpoint-rule binning of the mode-sum intensity on a dense uniform grid."""
    lo, hi = grid.span
    step = (hi - lo) / points
    xs = lo + (np.arange(points) + 0.5) * step
    intensity = mode_sum_intensity(xs, d, model, kind)
    per_pixel = points // grid.count
    probs = intensity.reshape(grid.count, per_pixel).sum(axis=1) * step
    return np.append(probs, 1.0 - probs.sum())


def spade_curvature_at_zero(space, gamma: float, renormalize: bool = True) -> np.ndarray:
    """p''(0) of every prob_matrix entry, from the small-d expansion of the overlaps.

    To order d^2, |<k|k',d>|^2 is 1 - (2k'+1) d^2/2 on the diagonal, k' d^2/2
    for k = k'-1 and (k'+1) d^2/2 for k = k'+1, and 0 elsewhere; entry (i, j)
    carries the weight C_{k',l}^2 delta_{l,l'}. Renormalized entries
    p = q / sum(q) have p''(0) = (q'' - p sum(q'')) / sum(q), since q'(0) = 0.
    """
    r = abs(1.0 - gamma) / (1.0 + gamma)
    c00 = 4.0 * gamma / (1.0 + gamma) ** 2
    q = np.zeros((len(space.idler), len(space.signal)))
    curvature = np.zeros_like(q)
    for i, (k, l) in enumerate(space.idler):
        for j, (kp, lp) in enumerate(space.signal):
            if l == lp:
                weight = (c00 * r ** (kp + l)) ** 2
                q[i, j] = weight * (k == kp)
                curvature[i, j] = weight * {0: -2 * kp - 1, -1: kp, 1: kp + 1}.get(k - kp, 0)
    if not renormalize:
        return curvature
    total = q.sum()
    return (curvature - q / total * curvature.sum()) / total


def second_difference_at_zero(fn, h: float) -> np.ndarray:
    """(fn(h) - 2 fn(0) + fn(-h)) / h^2: the second derivative of fn at 0 to O(h^2)."""
    return (np.asarray(fn(h)) - 2.0 * np.asarray(fn(0.0)) + np.asarray(fn(-h))) / (h * h)


def biphoton_probs(d: float, gamma: float, max_k: int, points: int = 201,
                   span: float = 14.0) -> np.ndarray:
    """Coincidence probabilities from the two-photon wavefunction, idler mode k by row.

    The 1-D double-Gaussian state in momentum space,
    Phi(p_s, p_i) = exp(-u^2/(4 gamma)) exp(-gamma v^2/4) with u = p_s + p_i and
    v = p_s - p_i, its signal displaced to +-d by the phase exp(-+i p_s d). Both
    photons are projected on the unit-width modes hg1d_batch(max_k, p) by sums
    over an even points x points grid on [-span, span]^2; the +-d mixture is
    renormalized over the (max_k + 1)^2 outcomes. The Fourier phases (-i)^k of
    the modes drop out of every probability.
    """
    p = np.linspace(-span, span, points)
    p_s, p_i = np.meshgrid(p, p, indexing="ij")
    phi = np.exp(-(p_s + p_i) ** 2 / (4.0 * gamma) - gamma * (p_s - p_i) ** 2 / 4.0)
    modes = hg1d_batch(max_k, p)
    probs = np.zeros((max_k + 1, max_k + 1))
    for sign in (1.0, -1.0):
        shifted = phi * np.exp(-1j * sign * d * p)[:, None]
        amplitudes = modes @ shifted.T @ modes.T  # [idler k, signal k']
        probs += 0.5 * np.abs(amplitudes) ** 2
    return probs / probs.sum()


def configured_fi_at_zero(gamma: float, max_k: int) -> float:
    """FI about delta = 2d, as d -> 0, of the renormalized k = 0..max_k, l = 0 space.

    With C_k^2 = (4 gamma / (1+gamma)^2)^2 r^(2k), r = |1-gamma| / (1+gamma), only
    the first-neighbour cells carry information at d -> 0: each contributes
    (k+1)/2 C_(k+1)^2 (signal k+1, k + 1 <= max_k) or k/2 C_(k-1)^2 (signal
    k-1, k >= 1), and renormalizing divides their sum by the d = 0 in-space
    mass sum_(k <= max_k) C_k^2.
    """
    r = abs(1.0 - gamma) / (1.0 + gamma)
    c2 = [(4.0 * gamma / (1.0 + gamma) ** 2) ** 2 * r ** (2 * k) for k in range(max_k + 1)]
    up = sum((k + 1) / 2 * c2[k + 1] for k in range(max_k))
    down = sum(k / 2 * c2[k - 1] for k in range(1, max_k + 1))
    return (up + down) / sum(c2)


def overlap_table_masked(n: int, d: np.ndarray) -> np.ndarray:
    """The overlap table of overlap._overlap_amplitudes in its former form, for bit-for-bit checks.

    Four ufunc calls per Laguerre degree, L_(m+1) = (slope - x/(m+1)) L_m - lag_weight
    L_(m-1) written into a zeroed table, and the sign of the odd cells below the
    diagonal applied by a masked np.negative after the finiteness check. Returns
    shape (len(d), n+1, n+1), nan or inf where the table overflows.
    """
    x = 0.5 * d * d
    order = np.arange(n + 1.0)
    index = np.arange(n + 1)
    lo = np.minimum.outer(index, index)
    gap = np.abs(np.subtract.outer(index, index))
    cells = lo * (n + 1) + gap
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(order[1:]))))
    half_log_ratio = 0.5 * (log_fact[lo] - log_fact[lo + gap])
    odd_below = (gap % 2 == 1) & np.greater.outer(index, index)
    gap = gap.astype(float)
    lag = np.zeros((n + 1, n + 1, len(d)))
    lag[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if n:
            lag[1, :n] = 1.0 + order[:n, None] - x
        shifts = x / order[2:, None]
        for m in range(1, n):
            w = n - m
            slope = ((2.0 * m + 1.0 + order[:w]) / (m + 1.0))[:, None]
            lag_weight = ((m + order[:w]) / (m + 1.0))[:, None]
            out = lag[m + 1, :w]
            np.subtract(slope, shifts[m - 1], out=out)
            out *= lag[m, :w]
            out -= lag_weight * lag[m - 1, :w]
        half_log_x = 0.5 * np.log(np.where(x > 0.0, x, 1.0))
        amp = half_log_x[:, None, None] * gap
        amp += half_log_ratio
        amp -= 0.5 * x[:, None, None]
        np.exp(amp, out=amp)
        amp *= lag.reshape((n + 1) ** 2, len(d))[cells].transpose(2, 0, 1)
    if not x.all():
        amp[x == 0.0] = np.eye(n + 1)
    np.negative(amp, out=amp, where=odd_below)
    negative = d < 0.0
    if negative.any():
        amp[negative] = amp[negative].transpose(0, 2, 1)
    return amp


def pixel_block_concatenated(d: np.ndarray, grid, s: float, derivative: bool):
    """model._pixel_block in its former form, for bit-for-bit checks.

    Two math.erfc passes (every +d edge, then the -d edges whose mirror image is not
    exactly an edge, a mask taken here from grid.edges alone), the division by a row
    scale of 1.0 where no total exceeds one, and the residual bucket appended by
    concatenate.
    """
    def erfc(x):
        flat = x.ravel()
        return np.fromiter(map(math.erfc, memoryview(flat)), float, flat.size).reshape(x.shape)

    u = s * (grid.edges[None, None, :] - np.stack([d, -d], axis=1)[:, :, None])
    tails = np.empty_like(u)
    tails[:, 0] = erfc(np.abs(u[:, 0]))
    tails[:, 1] = tails[:, 0, ::-1]
    own = grid.edges != -grid.edges[::-1]
    tails[:, 1, own] = erfc(np.abs(u[:, 1, own]))
    lo, hi = u[..., :-1], u[..., 1:]
    t_lo, t_hi = tails[..., :-1], tails[..., 1:]
    masses = np.where(
        lo >= 0.0, t_lo - t_hi, np.where(hi <= 0.0, t_hi - t_lo, 2.0 - t_lo - t_hi)
    )
    probs = 0.25 * (masses[:, 0] + masses[:, 1])
    totals = probs.sum(axis=1)
    over = totals > 1.0
    scale = np.where(over, totals, 1.0)[:, None]
    probs = probs / scale
    residual = np.where(over, 0.0, 1.0 - totals)
    slopes = None
    if derivative:
        edge = np.exp(-u * u)
        falls = edge[..., :-1] - edge[..., 1:]
        raw = 0.5 * s / math.sqrt(math.pi) * (falls[:, 0] - falls[:, 1])
        raw_totals = raw.sum(axis=1)
        slopes = np.where(over[:, None], raw - probs * raw_totals[:, None], raw) / scale
        slopes = np.concatenate((slopes, np.where(over, 0.0, -raw_totals)[:, None]), axis=1)
    return np.concatenate((probs, residual[:, None]), axis=1), slopes


def biphoton_qfi(d: float, gamma: float, max_n: int) -> float:
    """Quantum Fisher information about delta = 2d of the bi-photon state, n <= max_n.

    The state is rho = (|psi_+><psi_+| + |psi_-><psi_-|) / 2 with
    psi_+- = sum_n c_n |n>_idler (x) D(+-d)|n>_signal, c_n^2 = (1 - r^2) r^(2n) (the 1-D
    x reading), r = |1 - gamma| / (1 + gamma), and D(s) the shift f(x) -> f(x - s). Every
    inner product of psi_+-, d psi_+- / dd comes from oracles.scalar_overlap cells at the
    shifts 0 and +-2d, with d D(s)/ds = D(s) T and T = -d/dx, which takes |n> to
    sqrt((n+1)/2) |n+1> - sqrt(n/2) |n-1>. The QFI is taken on the span of those four
    vectors, which holds the range of d rho / dd (Braunstein & Caves, PRL 72, 3439
    (1994)): 2 sum_ij <i|d rho|j>^2 / (p_i + p_j) over the eigenvectors of rho.
    """
    r = abs(1.0 - gamma) / (1.0 + gamma)
    weights = (1.0 - r * r) * r ** (2.0 * np.arange(max_n + 1))

    def shift(m, n, s):
        # <m| D(s) |n>, the integral of hg_m(x) hg_n(x - s)
        return scalar_overlap(m, n, s, -1)

    def generator(k, n):
        # <k| T |n>
        return {n + 1: math.sqrt((n + 1) / 2), n - 1: -math.sqrt(n / 2)}.get(k, 0.0)

    def moments(s):
        # sum_n c_n^2 of <n|D(s)|n>, <n|D(s) T|n> and <n|T^T D(s) T|n>
        rows = []
        for n in range(max_n + 1):
            near = [k for k in (n - 1, n + 1) if k >= 0]
            rows.append((shift(n, n, s),
                         sum(shift(n, k, s) * generator(k, n) for k in near),
                         sum(generator(j, n) * shift(j, k, s) * generator(k, n)
                             for j in near for k in near)))
        return weights @ np.array(rows)

    signs = (1.0, -1.0)
    table = {b - a: moments((b - a) * d) for a in signs for b in signs}
    # Gram matrix of psi_+, psi_-, d psi_+, d psi_-: D(a d)^T D(b d) = D((b - a) d)
    gram = np.empty((4, 4))
    for i, a in enumerate(signs):
        for j, b in enumerate(signs):
            plain, once, twice = table[b - a]
            gram[i, j] = plain
            gram[i, 2 + j] = b * once
            gram[2 + j, i] = b * once
            gram[2 + i, 2 + j] = a * b * twice
    # coordinates of the four vectors in an orthonormal basis of their span
    values, vectors = np.linalg.eigh(gram)
    kept = values > 1e-13 * values.max()
    coords = np.sqrt(values[kept])[:, None] * vectors[:, kept].T
    plus, minus, d_plus, d_minus = coords.T
    rho = 0.5 * (np.outer(plus, plus) + np.outer(minus, minus))
    d_rho = 0.5 * (np.outer(d_plus, plus) + np.outer(plus, d_plus)
                   + np.outer(d_minus, minus) + np.outer(minus, d_minus))
    p, basis = np.linalg.eigh(rho)
    m = basis.T @ d_rho @ basis
    total = p[:, None] + p[None, :]
    support = total > 1e-14
    # about delta = 2d, a quarter of the QFI about d
    return 0.5 * float((m[support] ** 2 / total[support]).sum())
