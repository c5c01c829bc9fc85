import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bispade import NumericalError, displaced_overlap, quad_overlap
from bispade import overlap

modes = st.integers(0, 12)
shifts = st.floats(0.0, 3.0)


class TestDisplacedOverlap:
    @given(m=modes, n=modes)
    @settings(max_examples=40)
    def test_zero_shift_is_identity(self, m, n):
        assert displaced_overlap(m, n, 0.0, 1) == (1.0 if m == n else 0.0)

    def test_first_mode_value(self):
        # <1|0,+d> = -d/sqrt(2) * exp(-d^2/4)
        assert displaced_overlap(1, 0, 0.3, 1) == pytest.approx(-0.20741235903988336, rel=1e-12)
        assert displaced_overlap(1, 0, 0.3, -1) == pytest.approx(0.20741235903988336, rel=1e-12)

    def test_matches_quadrature_oracle(self):
        # quad_overlap's shift convention corresponds to sign = -1
        for m in range(7):
            for n in range(7):
                for d in (0.2, 0.8, 1.6, 3.0):
                    for sign in (1, -1):
                        closed = displaced_overlap(m, n, d, sign)
                        brute = quad_overlap(m, n, -sign * d)
                        assert abs(closed - brute) < 1e-10

    def test_high_low_pair_matches_oracle(self):
        assert displaced_overlap(3, 5, 0.8, -1) == pytest.approx(
            quad_overlap(3, 5, 0.8), abs=1e-10
        )

    @given(m=modes, n=modes, d=st.sampled_from([0.1, 0.5, 1.0, 2.0]))
    @settings(max_examples=80)
    def test_parity(self, m, n, d):
        minus = displaced_overlap(m, n, d, -1)
        plus = displaced_overlap(m, n, d, 1)
        assert minus == pytest.approx((-1.0) ** (m + n) * plus, rel=1e-12, abs=1e-15)

    @given(m=modes, n=modes, d=shifts)
    @settings(max_examples=80)
    def test_bounded_by_one(self, m, n, d):
        assert abs(displaced_overlap(m, n, d, 1)) <= 1.0 + 1e-12

    @given(m=modes, n=modes, d=st.floats(0.05, 2.0))
    @settings(max_examples=60)
    def test_square_even_in_shift(self, m, n, d):
        forward = displaced_overlap(m, n, d, 1) ** 2
        backward = displaced_overlap(m, n, -d, 1) ** 2
        assert forward == pytest.approx(backward, rel=1e-12, abs=1e-20)

    def test_completeness(self):
        for n in range(7):
            for d in (0.5, 1.0, 2.0):
                total = sum(displaced_overlap(m, n, d, 1) ** 2 for m in range(n + 41))
                assert abs(total - 1.0) < 1e-8

    def test_exchange_symmetry(self):
        assert displaced_overlap(5, 2, 0.7, 1) == displaced_overlap(2, 5, 0.7, -1)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            displaced_overlap(0, 0, 0.5, 2)

    def test_rejects_negative_modes(self):
        with pytest.raises(ValueError):
            displaced_overlap(-1, 0, 0.5, 1)

    @pytest.mark.parametrize("m, n", [(1.5, 0), (True, 1), (2, 2.0)])
    def test_rejects_non_integer_modes_by_value(self, m, n):
        with pytest.raises(ValueError, match=f"integers, got m={m!r}, n={n!r}"):
            displaced_overlap(m, n, 0.3)

    def test_accepts_numpy_integers(self):
        assert displaced_overlap(np.int64(2), np.int32(1), 0.3) == displaced_overlap(2, 1, 0.3)

    @pytest.mark.parametrize("m, n, named", [
        (2**63, 0, "at most 2\\*\\*63 - 1, got m=9223372036854775808"),
        (0, 2**70, "at most 2\\*\\*63 - 1, got n=1180591620717411303424"),
        (0, -1, "non-negative, got n=-1"),
    ], ids=["2**63", "2**70", "negative"])
    def test_rejects_orders_out_of_range_before_any_table(self, no_overlap_table, m, n, named):
        with pytest.raises(ValueError, match=f"^mode indices must be {named}$"):
            displaced_overlap(m, n, 0.1)

    def test_order_within_rounding_of_2_63_fails_before_any_layout(self, no_overlap_layout):
        # 2**63 - 1 passes the order bound, but its float64 order range is empty
        with pytest.raises(NumericalError, match=f"mode orders up to {2**63 - 1} is too large"):
            displaced_overlap(2**63 - 1, 0, 0.1)

    @pytest.mark.parametrize("m, n, d", [(550, 1100, 1.0), (1100, 550, 1.0)])
    def test_overflow_signals(self, m, n, d):
        # Laguerre values of order ~1000 overflow float64; the failure must
        # be an error, not nan
        with pytest.raises(NumericalError, match="overflows"):
            displaced_overlap(m, n, d, 1)

    def test_overflowing_table_leaves_no_cached_layout(self):
        # the layout of an 1101 x 1101 table holds about 41 MB of index arrays
        overlap._overlap_layout.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="overflows"):
                overlap._overlap_amplitudes(1100, np.array([1.0]))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert overlap._overlap_layout.cache_info().currsize == 0
        assert retained < 1_000_000

    def test_zero_shift_is_identity_past_the_cache(self):
        table = overlap._overlap_amplitudes(1100, np.array([0.0]))[0]
        assert np.array_equal(table, np.eye(1101))

    def test_large_power_stays_finite(self):
        # d^(n-m) = 40^400 overflows float64, but the overlap is finite:
        # alpha^400 exp(-alpha^2/2) / sqrt(400!) with alpha = 40/sqrt(2)
        alpha = 40.0 / math.sqrt(2.0)
        expected = math.exp(400 * math.log(alpha) - 0.5 * alpha * alpha - 0.5 * math.lgamma(401))
        assert displaced_overlap(0, 400, 40.0, 1) == pytest.approx(expected, rel=1e-12)


class TestQuadOverlap:
    def test_normalization(self):
        assert quad_overlap(0, 0, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_orthonormality_at_zero_shift(self):
        for m in range(8):
            for n in range(8):
                assert abs(quad_overlap(m, n, 0.0) - (m == n)) < 1e-12

    def test_matches_closed_form(self):
        # the mode n at x - shift is the mode displaced by -shift in the +- convention
        assert quad_overlap(1, 0, 0.6) == pytest.approx(
            displaced_overlap(1, 0, 0.6, -1), abs=1e-10
        )

    def test_rejects_unavailable_order(self):
        # 2(m+n)+20 nodes: m+n = 247 needs 514, past the supported 512
        with pytest.raises(ValueError, match=r"^modes \(200, 47\) need quadrature order 514"):
            quad_overlap(200, 47, 0.5)
        # an int64 sum of these wraps negative
        with pytest.raises(ValueError, match=f"need quadrature order {2**64 + 20}"):
            quad_overlap(np.int64(2**62), np.int64(2**62), 0.5)

    def test_rejects_negative_modes(self):
        with pytest.raises(ValueError):
            quad_overlap(-1, 0, 0.5)

    @pytest.mark.parametrize("m, n", [(1.5, 0), (True, 1), (2, 2.0)])
    def test_rejects_non_integer_modes_by_value(self, m, n):
        with pytest.raises(ValueError, match=f"integers, got m={m!r}, n={n!r}"):
            quad_overlap(m, n, 0.3)

    @pytest.mark.parametrize("m, n, named", [
        (2**63, 0, "at most 2\\*\\*63 - 1, got m=9223372036854775808"),
        (0, -1, "non-negative, got n=-1"),
    ], ids=["2**63", "negative"])
    def test_rejects_orders_out_of_range_by_value(self, m, n, named):
        with pytest.raises(ValueError, match=f"^mode indices must be {named}$"):
            quad_overlap(m, n, 0.3)
