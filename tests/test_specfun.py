"""The special functions of the test oracles in `tests/oracles.py`.

`oracles.laguerre` is the recurrence behind `oracles.scalar_overlap`, the
reference for the overlap table; `oracles.hg1d_batch` is the mode basis of
`oracles.mode_sum_intensity`, the reference for the direct-imaging model.
Both are checked against their exact series, and the mode basis is also
orthonormal under `bispade.quad_overlap`. The package has no special-function
module of its own (`specfun.py` was folded into the overlap kernel); the
file keeps its name so that its test ids stay stable.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bispade import quad_overlap
from oracles import (
    hermite_series,
    hermite_series_scale,
    hg1d_batch,
    laguerre,
    laguerre_series,
    laguerre_series_scale,
)


def _hg1d(m, x):
    return hg1d_batch(m, x)[m]


class TestLaguerre:
    def test_zeroth_order_is_one(self):
        assert laguerre(0, 5, 2.3) == 1.0

    def test_first_order_at_origin(self):
        assert laguerre(1, 1, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_matches_series_oracle_frozen(self):
        assert laguerre(3, 2, 1.5) == pytest.approx(0.0625, rel=1e-12)

    @given(m=st.integers(0, 20), alpha=st.integers(0, 8), x=st.floats(-5.0, 5.0))
    @settings(max_examples=80)
    def test_recurrence_matches_series(self, m, alpha, x):
        expected = laguerre_series(m, alpha, x)
        tol = 1e-12 * max(1.0, laguerre_series_scale(m, alpha, x))
        assert abs(laguerre(m, alpha, x) - expected) <= tol

    def test_negative_alpha_allowed_down_to_minus_m(self):
        assert math.isfinite(laguerre(3, -3, 0.7))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            laguerre(-2, 0, 1.0)

    def test_rejects_alpha_below_minus_m(self):
        with pytest.raises(ValueError):
            laguerre(2, -3, 1.0)


class TestHg1d:
    def test_gaussian_peak(self):
        assert _hg1d(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)

    def test_odd_mode_vanishes_at_origin(self):
        assert _hg1d(1, 0.0) == 0.0

    @given(m=st.integers(0, 12), x=st.floats(-6.0, 6.0))
    @settings(max_examples=60)
    def test_parity(self, m, x):
        assert _hg1d(m, -x) == pytest.approx((-1.0) ** m * _hg1d(m, x), rel=1e-12, abs=1e-14)

    def test_orthonormal_under_quadrature_oracle(self):
        for m in range(11):
            for n in range(11):
                value = quad_overlap(m, n, 0.0)
                assert abs(value - (1.0 if m == n else 0.0)) < 1e-10

    def test_batch_matches_scalar(self):
        # every row of the recurrence against the normalized exact Hermite series,
        # to 1e-12 of the series' summation scale
        xs = np.linspace(-4.0, 4.0, 17)
        batch = hg1d_batch(10, xs)
        for m in range(11):
            norm = (2.0 ** m * math.factorial(m) * math.sqrt(math.pi)) ** -0.5
            for x, value in zip(xs, batch[m]):
                envelope = norm * math.exp(-0.5 * x * x)
                tol = 1e-12 * envelope * max(1.0, hermite_series_scale(m, x)) + 1e-14
                assert abs(value - envelope * hermite_series(m, x)) <= tol

    def test_rejects_negative_mode(self):
        with pytest.raises(ValueError):
            hg1d_batch(-1, 0.0)
