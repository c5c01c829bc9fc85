import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import bispade as bp
from bispade import cli, inference, model
from bispade.inference import _as_map, _checked_draws, _fit, _ForwardMap
from bispade.model import _CURVE_STEP
from oracles import (biphoton_probs, biphoton_qfi, configured_fi_at_zero,
                     second_difference_at_zero, spade_curvature_at_zero)

gammas = st.floats(0.05, 3.0)


class TestCountMatrix:
    def test_from_counts(self):
        cm = bp.CountMatrix(np.array([[1, 2], [3, 4]]), separation=0.2)
        assert cm.total == 10
        assert cm.separation == 0.2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bp.CountMatrix(np.array([1, -2]))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            bp.CountMatrix(np.array([1.5, 2.0]))

    @pytest.mark.parametrize("count", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, count):
        with pytest.raises(ValueError, match="finite integers"):
            bp.CountMatrix(np.array([count, 1.0]))

    @pytest.mark.parametrize("counts", [
        np.array([True, False]), [[True], [True]],
        # numpy reads these lists as int64 or float64 arrays, so their items are checked
        [True, 2], [np.True_, 3], [[1, 2], [3, False]], [True, 2.0],
        [np.array([True]), np.array([2])],
    ])
    def test_rejects_bools(self, counts):
        # a bool is no count, as it is no photon number
        with pytest.raises(ValueError, match="^counts must be finite integers within the int64 "
                                             "range$"):
            bp.CountMatrix(counts)

    @pytest.mark.parametrize("counts", [np.array([2**63], dtype=np.uint64), [2**63],
                                        [np.uint64(2**64 - 1), 1], [2**64]])
    def test_rejects_counts_past_int64(self, counts):
        with pytest.raises(ValueError, match="^counts must be finite integers within the int64 "
                                             "range$"):
            bp.CountMatrix(counts)

    @pytest.mark.parametrize("counts, expected", [
        ([3, 0, 5], [3, 0, 5]), ([np.int32(3), 4], [3, 4]), ([1.0, 2.0], [1, 2]),
        (np.array([2**63 - 1], dtype=np.uint64), [2**63 - 1]),
        (np.array([7, 0], dtype=np.uint8), [7, 0]),
    ])
    def test_integer_lists_arrays_and_integer_valued_floats_are_counts(self, counts, expected):
        cm = bp.CountMatrix(counts)
        np.testing.assert_array_equal(cm.counts, expected)
        assert cm.total == sum(expected) and isinstance(cm.total, int)

    def test_integer_valued_floats_become_int64(self):
        cm = bp.CountMatrix(np.array([[1.0, 0.0], [2.0, 4.0]]))
        assert cm.counts.dtype == np.int64
        np.testing.assert_array_equal(cm.counts, [[1, 0], [2, 4]])
        assert cm.total == 7

    @pytest.mark.parametrize("counts,total", [([3, 0, 5], 8), ([[1, 2], [3, 4]], 10),
                                              ([0, 0], 0), ([[0]], 0)])
    def test_total_is_the_sum(self, counts, total):
        cm = bp.CountMatrix(np.array(counts))
        assert cm.total == total and isinstance(cm.total, int)

    def test_total_does_not_wrap_past_int64(self):
        # an int64 sum of these reads 2**62
        cm = bp.CountMatrix(np.full((7, 7), 2**62, dtype=np.int64))
        assert cm.total == 49 * 2**62

    @pytest.mark.parametrize("counts, separation", [
        (np.zeros((7, 7), dtype=np.int64), None),
        (np.arange(49).reshape(7, 7), 0.3),
        (np.full((7, 7), 10**14), -0.0),
        # the sum is 2**53, the most the reader accepts
        (np.array([2**53 - 48] + [1] * 48).reshape(7, 7), 1.25),
    ], ids=["zeros", "arange", "large", "sum-2-53"])
    def test_the_counts_reader_builds_one_matrix_on_either_path(self, tmp_path, counts,
                                                               separation):
        # the one-pass reader's matrices, built without __post_init__, equal the line
        # loop's field for field: int64 counts, an exact int total, the same separation
        space = bp.ModeSpace.grid()
        path = cli.write_counts_file(tmp_path / "c.csv", space, counts, separation)
        text = path.read_text()
        (fast,) = cli._read_written([text], space)
        loop = cli._read_lines(text, path, space)
        assert fast is not None
        for a, b in ((fast, loop), (loop, bp.CountMatrix(counts, loop.separation))):
            assert a.counts.dtype == b.counts.dtype == np.int64
            assert a.counts.shape == b.counts.shape == space.shape
            np.testing.assert_array_equal(a.counts, b.counts)
            assert type(a.total) is type(b.total) is int and a.total == b.total
            assert repr(a.separation) == repr(b.separation)


class TestFisherNumeric:
    def test_gaussian_first_mode_limit(self):
        report = bp.fisher_numeric(
            lambda d: np.array([bp.gaussian_hg1_prob(d)]), 1e-3, step=1e-4
        )
        assert report.total == pytest.approx(0.5, abs=1e-3)
        assert report.parameterization == bp.PARAMETERIZATION

    def test_diagonal_projection_collapses(self, model_gauss):
        report = bp.fisher_numeric(
            lambda d: np.array([bp.coincidence_prob(0, 0, 0, 0, d, model_gauss)]),
            1e-3,
            step=1e-4,
        )
        assert report.total < 1e-4

    def test_matches_closed_form_sums(self, model015, space7):
        forward = bp.spade_forward(model015, space7, renormalize=False)
        report = bp.fisher_numeric(forward, 1e-3, step=1e-5, floor=1e-18)
        ks = np.arange(7)
        closed = (
            bp.fi_closed_form(ks[:-1], 0, 0.15, "up").sum()
            + bp.fi_closed_form(ks[1:], 0, 0.15, "down").sum()
        )
        assert report.total == pytest.approx(closed, rel=1e-3)

    def test_moderate_separation_stays_close(self, model015, space7):
        # at d = 0.05 the probabilities carry O(d^2) corrections, so the
        # agreement with the d -> 0 closed forms is correspondingly looser
        forward = bp.spade_forward(model015, space7, renormalize=False)
        report = bp.fisher_numeric(forward, 0.05, step=1e-5, floor=1e-18)
        ks = np.arange(7)
        closed = (
            bp.fi_closed_form(ks[:-1], 0, 0.15, "up").sum()
            + bp.fi_closed_form(ks[1:], 0, 0.15, "down").sum()
        )
        assert report.total == pytest.approx(closed, rel=2e-2)

    def test_skips_and_reports_tiny_entries(self):
        report = bp.fisher_numeric(
            lambda d: np.array([bp.gaussian_hg1_prob(d)]), 0.0, step=1e-4
        )
        assert report.skipped == (0,)
        assert report.total == 0.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            bp.fisher_numeric(lambda d: np.array([0.5]), 0.1, step=0.0)

    def test_measurement_value(self, model015, space7):
        report = bp.fisher_numeric(bp.spade_forward(model015, space7), 0.3)
        assert round(report.total, 11) == 1.56425858563

    @pytest.mark.parametrize("method", ["spade", "direct_gaussian", "direct_spdc",
                                        "spade_calibrated"])
    @pytest.mark.parametrize("d", [0.01, 0.3, 1.35])
    def test_built_in_maps_match_a_central_difference_of_the_public_functions(
            self, model015, space7, method, d):
        # the maps supply their exact derivative; the oracle differentiates the
        # public prob_matrix, a direct map's scalar call and apply_calibration by a
        # fourth-order central difference, since a second-order one at d = 0.01
        # loses 1e-7 of direct imaging's FI of 2e-5 to rounding
        grid = bp.PixelGrid()
        cal = bp.CalibrationModel(alpha=np.full(space7.shape, 0.8),
                                  beta=np.full(space7.shape, 0.01))
        forward, public = {
            "spade": (bp.spade_forward(model015, space7),
                      lambda x: bp.prob_matrix(x, space7, model015).entries.ravel()),
            "direct_gaussian": (bp.direct_forward(model015, grid, "gaussian"),) * 2,
            "direct_spdc": (bp.direct_forward(model015, grid, "spdc"),) * 2,
            "spade_calibrated": (
                bp.spade_forward(model015, space7).calibrated(cal),
                lambda x: bp.apply_calibration(bp.prob_matrix(x, space7, model015),
                                               cal).entries.ravel()),
        }[method]
        p0 = public(d)
        keep = p0 >= bp.LIKELIHOOD_FLOOR
        h = 3e-4
        slope = 0.5 * (4.0 * _central_difference(public, d, h)
                       - _central_difference(public, d, 2.0 * h)) / 3.0
        expected = float((slope[keep] ** 2 / p0[keep]).sum())
        assert bp.fisher_numeric(forward, d).total == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("gamma, max_k", [(0.15, 6), (0.15, 12), (0.07, 6), (0.07, 20)])
    def test_configured_space_at_zero_matches_the_closed_form(self, gamma, max_k):
        forward = bp.spade_forward(bp.SchmidtModel(gamma), bp.ModeSpace.grid(max_k))
        assert bp.fisher_numeric(forward, 1e-4).total == pytest.approx(
            configured_fi_at_zero(gamma, max_k), rel=1e-7
        )

    @pytest.mark.parametrize("d", [0.01, 0.3])
    def test_matches_the_fi_of_the_wavefunction_oracle(self, model015, space7, d):
        # FI does not depend on the order of the outcomes, so the oracle's
        # transposed matrix gives the same sum
        h = 1e-4
        p = biphoton_probs(d, 0.15, 6)
        slope = (biphoton_probs(d + h, 0.15, 6) - biphoton_probs(d - h, 0.15, 6)) / (2.0 * h)
        live = p > 1e-15
        expected = 0.25 * float((slope[live] ** 2 / p[live]).sum())
        assert bp.fisher_numeric(bp.spade_forward(model015, space7), d).total == pytest.approx(
            expected, rel=1e-6
        )

    def test_a_plain_callable_gets_a_fourth_order_difference_at_step(self):
        # exact for a cubic, where a second-order difference at step 0.1 is 1.3% off
        def cubic(d):
            return np.array([0.5 + 0.1 * d**3, 0.5 - 0.1 * d**3])

        slope = 0.5 * 0.3 * 0.5**2
        expected = slope**2 * (1.0 / cubic(0.5)).sum()
        assert bp.fisher_numeric(cubic, 0.5, step=0.1).total == pytest.approx(expected, rel=1e-12)

    def test_signals_non_finite(self):
        with pytest.raises(bp.NumericalError):
            bp.fisher_numeric(lambda d: np.array([np.nan]), 0.1, step=1e-4)


class TestClosedFormFi:
    def test_down_branch_vanishes_at_zero(self):
        assert bp.fi_closed_form(0, 0, 0.15, "down") == 0.0

    def test_up_branch_value(self):
        assert bp.fi_closed_form(0, 0, 0.15, "up") == pytest.approx(
            0.05622420384829792, rel=1e-10
        )

    def test_fundamental_neighbour_pair_constant(self):
        # pairing the fundamental mode on one arm with the first excited mode
        # on the other yields the constant C_00^2 / 2
        for gamma in (0.15, 0.5, 1.0):
            expected = 0.5 * bp.schmidt_coeff(0, 0, gamma) ** 2
            assert bp.fi_closed_form(1, 0, gamma, "down") == pytest.approx(expected, rel=1e-12)

    def test_diag_branch_vanishes(self):
        # the k = k' limit carries no information at small separation
        assert bp.fi_closed_form(3, 1, 0.15, "diag") == 0.0
        out = bp.fi_closed_form(np.arange(3), np.zeros((2, 1), int), 0.15, "diag")
        assert out.shape == (2, 3) and not out.any()

    @pytest.mark.parametrize("branch", ["diag", "up", "down"])
    def test_rejects_gamma_by_value_on_every_branch(self, branch):
        with pytest.raises(ValueError, match="^gamma must be a finite positive number, "
                                             "got -1.0$"):
            bp.fi_closed_form(1, 0, -1.0, branch)

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError):
            bp.fi_closed_form(0, 0, 0.15, "sideways")

    @pytest.mark.parametrize("k, l", [(1.5, 0), (1, 0.0), (True, 0), (np.array([0.0, 1.0]), 0)])
    def test_rejects_modes_that_do_not_exist(self, k, l):
        with pytest.raises(ValueError, match="integers"):
            bp.fi_closed_form(k, l, 0.15, "up")

    def test_small_dtypes_do_not_wrap(self):
        # 255 + 1 in uint8 is 0
        k, l = np.array([255], np.uint8), np.array([0], np.uint8)
        assert bp.fi_closed_form(k, l, 0.15, "up").tolist() == [
            bp.fi_closed_form(255, 0, 0.15, "up")]
        assert bp.fi_closed_form(255, 0, 0.15, "up") == pytest.approx(1.6066334831693046e-66,
                                                                       rel=1e-12)

    def test_accepts_integer_dtype_arrays(self):
        ks = np.arange(3, dtype=np.int32)
        np.testing.assert_array_equal(bp.fi_closed_form(ks, 0, 0.15, "up"),
                                      [bp.fi_closed_form(int(k), 0, 0.15, "up") for k in ks])

    @pytest.mark.parametrize("k, l, named", [
        (np.array([2**64 - 1], np.uint64), 0, "at most 2\\*\\*63 - 1, got k=18446744073709551615"),
        (np.uint64(2**63), 0, "at most 2\\*\\*63 - 1, got k=9223372036854775808"),
        (np.array([3, -2]), 0, "non-negative, got k=-2"),
        (0, np.int8(-1), "non-negative, got l=-1"),
        (2**70, 0, "at most 2\\*\\*63 - 1, got k=1180591620717411303424"),
    ], ids=["uint64-max", "2**63", "negative-k", "negative-l", "past-2**64"])
    def test_rejects_indices_out_of_range_by_value(self, k, l, named):
        # a uint64 index past 2**63 - 1 once wrapped negative in an int64 cast
        with pytest.raises(ValueError, match=f"^mode indices must be {named}$"):
            bp.fi_closed_form(k, l, 0.15, "up")

    def test_largest_index_does_not_wrap(self):
        # k + 1 of k = 2**63 - 1 is past int64; the coefficient underflows to 0
        assert bp.fi_closed_form(2**63 - 1, 0, 0.15, "up") == 0.0
        largest = np.array([2**63 - 1], np.uint64)
        assert bp.fi_closed_form(largest, 0, 0.15, "down").tolist() == [0.0]


class TestFiTotals:
    def test_gaussian_limit_1d(self):
        assert bp.fi_total_1d(1.0) == 0.5

    def test_1d_up_branch_value(self):
        up_total = bp.fi_total_1d(0.15) - 0.5
        assert up_total == pytest.approx(0.27, abs=0.005)

    def test_1d_matches_brute_series(self):
        ks = np.arange(201)
        brute = (
            bp.fi_closed_form(ks, 0, 0.15, "up").sum()
            + bp.fi_closed_form(ks, 0, 0.15, "down").sum()
        )
        assert bp.fi_total_1d(0.15) == pytest.approx(brute, abs=1e-10)

    def test_2d_branch_subtotals(self):
        up, down = bp.fi_branch_totals_2d(0.15)
        assert up == pytest.approx(0.60, abs=0.005)
        assert down == pytest.approx(1.10, abs=0.005)
        assert up + down == pytest.approx(bp.fi_total_2d(0.15), rel=1e-14)

    def test_2d_gaussian_limit(self):
        assert bp.fi_total_2d(1.0) == pytest.approx(bp.fi_total_1d(1.0), rel=1e-14)

    def test_2d_matches_brute_double_series(self):
        kk, ll = np.meshgrid(np.arange(301), np.arange(301), indexing="ij")
        brute = (
            bp.fi_closed_form(kk, ll, 0.15, "up").sum()
            + bp.fi_closed_form(kk, ll, 0.15, "down").sum()
        )
        assert bp.fi_total_2d(0.15) == pytest.approx(brute, abs=1e-10)

    @given(gamma=gammas)
    @settings(max_examples=60)
    def test_sqrt_schmidt_identity(self, gamma):
        assert bp.fi_total_2d(gamma) == pytest.approx(
            math.sqrt(bp.schmidt_number(gamma)) / 2.0, rel=1e-12
        )

    @given(gamma=gammas)
    @settings(max_examples=60)
    def test_inversion_symmetry(self, gamma):
        assert bp.fi_total_2d(gamma) == pytest.approx(bp.fi_total_2d(1.0 / gamma), rel=1e-12)

    @pytest.mark.parametrize("total", [bp.fi_total_1d, bp.fi_total_2d, bp.fi_branch_totals_2d])
    @pytest.mark.parametrize("gamma", [0.0, -0.5, math.nan, math.inf, True])
    def test_rejects_gamma_by_value(self, total, gamma):
        with pytest.raises(ValueError, match=f"^gamma must be a finite positive number, "
                                             f"got {gamma!r}$"):
            total(gamma)

    def test_lower_bound_half_only_at_one(self):
        for gamma in (0.05, 0.3, 0.7, 0.999, 1.001, 2.0, 10.0):
            assert bp.fi_total_2d(gamma) > 0.5
        assert bp.fi_total_2d(1.0) == 0.5


class TestQuantumLimit:
    # terms past these orders change the QFI by less than 1e-9 of itself
    MAX_N = {1.0: 2, 0.15: 45, 0.07: 90}

    @pytest.mark.parametrize("gamma", [1.0, 0.15, 0.07])
    @pytest.mark.parametrize("d", [0.001, 0.3, 1.0])
    def test_qfi_of_the_state_is_sqrt_k_over_two(self, d, gamma):
        # (gamma + 1/gamma)/4 at every d, written from the formula
        assert biphoton_qfi(d, gamma, self.MAX_N[gamma]) == pytest.approx(
            (gamma + 1.0 / gamma) / 4.0, rel=1e-8)

    @pytest.mark.parametrize("gamma", [1.0, 0.15, 0.07])
    @pytest.mark.parametrize("d", [0.001, 0.3, 1.0])
    def test_hg_coincidences_rise_toward_the_qfi(self, d, gamma):
        model = bp.SchmidtModel.from_gamma(gamma)
        limit = biphoton_qfi(d, gamma, self.MAX_N[gamma])
        fi = [bp.fisher_numeric(bp.spade_forward(model, bp.ModeSpace.grid(k)), d).total
              for k in (1, 2, 4, 6, 10, 16, 24)]
        assert all(value <= limit * (1.0 + 1e-9) for value in fi)
        if gamma == 1.0:
            # one Schmidt mode: grid(4) already reaches the limit to 1e-2
            assert all(b >= a - 1e-12 for a, b in zip(fi, fi[1:]))
            assert fi[-1] == pytest.approx(limit, rel=1e-9)
        else:
            assert all(b > a for a, b in zip(fi, fi[1:]))
            assert fi[-1] > 0.98 * limit


class TestCrlb:
    def test_separable_single_photon(self):
        assert bp.crlb(1.0, 1) == 2.0

    def test_experimental_schmidt_number(self):
        assert bp.crlb(11.6, 1) == pytest.approx(0.5872202195147035, rel=1e-12)

    def test_accepts_numpy_scalars(self):
        assert bp.crlb(np.float32(4.0), 10) == bp.crlb(np.int64(4), 10) == bp.crlb(4.0, 10)

    def test_scales_inversely_with_photons(self):
        assert bp.crlb(4.0, 2000) == pytest.approx(bp.crlb(4.0, 1000) / 2.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            bp.crlb(0.5, 10)
        with pytest.raises(ValueError):
            bp.crlb(2.0, 0)

    @pytest.mark.parametrize("schmidt_k", [math.inf, math.nan, True, np.True_, "12", None])
    def test_rejects_a_schmidt_number_that_is_not_finite(self, schmidt_k):
        with pytest.raises(ValueError, match=f"^Schmidt number must be finite and >= 1, "
                                             f"got {schmidt_k!r}$"):
            bp.crlb(schmidt_k, 1)

    @pytest.mark.parametrize("photons", [1.5, True, 100.0, -1])
    def test_rejects_photons_that_are_not_a_count(self, photons):
        # the photon rule of sample_counts: not truncated, not read as 1
        with pytest.raises(ValueError, match=f"^n_photons must be a non-negative integer, "
                                             f"got {photons!r}$"):
            bp.crlb(11.6, photons)


class TestGaussianFirstModeProb:
    def test_zero(self):
        assert bp.gaussian_hg1_prob(0.0) == 0.0

    def test_unit_shift(self):
        assert bp.gaussian_hg1_prob(1.0) == pytest.approx(0.3032653298563167, rel=1e-12)

    @given(d=st.floats(0.0, 2.0))
    @settings(max_examples=40)
    def test_cross_path_consistency(self, model_gauss, d):
        via_model = bp.coincidence_prob(1, 0, 0, 0, d, model_gauss)
        assert via_model == pytest.approx(bp.gaussian_hg1_prob(d), rel=1e-12, abs=1e-15)


class TestSampleCounts:
    def test_zero_photons(self):
        cm = bp.sample_counts(np.array([0.25, 0.25, 0.5]), 0, seed=1)
        assert cm.total == 0
        assert np.all(cm.counts == 0)

    def test_uniform_concentration(self):
        p = np.full(4, 0.25)
        cm = bp.sample_counts(p, 1_000_000, seed=42)
        sigma = math.sqrt(1_000_000 * 0.25 * 0.75)
        assert np.all(np.abs(cm.counts - 250_000) < 5 * sigma)

    def test_deterministic_per_seed(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        a = bp.sample_counts(p, 5000, seed=7)
        b = bp.sample_counts(p, 5000, seed=7)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            bp.sample_counts(np.array([0.2, 0.2]), 100, seed=0)

    def test_rejects_a_negative_probability(self):
        # the vector sums to one; clipping it would draw from weights that do not
        with pytest.raises(ValueError, match="^probabilities must be non-negative$"):
            bp.sample_counts(np.array([1.5, -0.5]), 100, seed=0)

    def test_matrix_input_keeps_separation(self, model015, space7):
        pm = bp.prob_matrix(0.3, space7, model015)
        cm = bp.sample_counts(pm, 1000, seed=3)
        assert cm.separation == 0.3
        assert cm.counts.shape == space7.shape

    def test_rejects_unrenormalized_matrix(self, model015, space7):
        pm = bp.prob_matrix(0.3, space7, model015, renormalize=False)
        with pytest.raises(ValueError):
            bp.sample_counts(pm, 1000, seed=3)

    @pytest.mark.parametrize("photons", [2.5, True, -1, 100.0])
    def test_rejects_photons_that_are_not_a_count(self, model015, space7, photons):
        # a fractional or bool photon number is named, not truncated to a count
        pm = bp.prob_matrix(0.3, space7, model015)
        with pytest.raises(ValueError, match=f"non-negative integer, got {photons!r}$"):
            bp.sample_counts(pm, photons, seed=1)

    @pytest.mark.parametrize("seed", [True, np.True_])
    def test_rejects_a_bool_seed(self, seed):
        with pytest.raises(ValueError, match=f"^seed must not be a bool, got {seed!r}$"):
            bp.sample_counts(np.array([0.5, 0.5]), 10, seed=seed)

    @pytest.mark.parametrize("seed", [None, 7, np.uint8(7), [1, 2], np.random.SeedSequence(7),
                                      np.random.PCG64(7)])
    def test_takes_every_other_seed_default_rng_takes(self, seed):
        assert bp.sample_counts(np.array([0.5, 0.5]), 10, seed=seed).total == 10

    def test_draws_that_miss_the_photon_number_are_numerical_failures(self):
        _checked_draws(np.array([[1, 2], [3, 0]]), 3)
        for draws in ([[1, 2], [3, 1]], [[4, -1], [3, 0]]):
            with pytest.raises(bp.NumericalError, match="does not hold 3 non-negative counts"):
                _checked_draws(np.array(draws), 3)


def _central_difference(fn, d, step=1e-6):
    return (np.asarray(fn(d + step)) - np.asarray(fn(d - step))) / (2.0 * step)


_SEPARATIONS = np.array([0.0, 1e-3, 0.05, 0.3, 0.93, 1.35, 2.0])


class TestForwardMaps:
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_spade_derivative_matches_central_difference(self, model015, renormalize):
        space = bp.ModeSpace(idler=((0, 0), (2, 0), (3, 1), (5, 0)),
                             signal=((1, 0), (3, 1), (0, 0), (9, 1), (6, 0)))
        forward = bp.spade_forward(model015, space, renormalize=renormalize)
        probs, slopes = forward.batch(_SEPARATIONS, derivative=True)
        # one row of outcomes per separation
        assert probs.shape == slopes.shape == (len(_SEPARATIONS), 20)
        for d, p, slope in zip(_SEPARATIONS, probs, slopes):
            single = bp.prob_matrix(d, space, model015, renormalize).entries
            np.testing.assert_array_equal(p, single.ravel())
            numeric = _central_difference(
                lambda x: bp.prob_matrix(x, space, model015, renormalize).entries, d
            )
            np.testing.assert_allclose(slope, numeric.ravel(), rtol=0.0, atol=1e-9)
        # the model is even in d, so the slope vanishes at d = 0
        assert np.all(slopes[0] == 0.0)

    @pytest.mark.parametrize("kind", ["gaussian", "spdc"])
    def test_pixel_derivative_matches_central_difference(self, model015, kind):
        grid = bp.PixelGrid()
        forward = bp.direct_forward(model015, grid, kind)
        probs, slopes = forward.batch(_SEPARATIONS, derivative=True)
        assert probs.shape == slopes.shape == (len(_SEPARATIONS), grid.count + 1)
        for d, p, slope in zip(_SEPARATIONS, probs, slopes):
            np.testing.assert_array_equal(p, bp.direct_forward(model015, grid, kind)(d))
            numeric = _central_difference(lambda x: bp.direct_forward(model015, grid, kind)(x), d)
            np.testing.assert_allclose(slope, numeric, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(slopes[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(slopes.sum(axis=1), 0.0, atol=1e-15)

    def test_array_evaluation_matches_scalar_path(self, model015, space7):
        # 450 separations span several evaluation blocks
        ds = np.concatenate((np.linspace(0.0, 2.0, 449), [-0.47]))
        maps = [
            (bp.spade_forward(model015, space7), lambda d: bp.prob_matrix(d, space7, model015)),
            (bp.spade_forward(model015, space7, renormalize=False),
             lambda d: bp.prob_matrix(d, space7, model015, renormalize=False)),
        ] + [
            (bp.direct_forward(model015, bp.PixelGrid(), kind),
             lambda d, kind=kind: bp.direct_forward(model015, bp.PixelGrid(), kind)(d))
            for kind in ("gaussian", "spdc")
        ]
        for forward, scalar in maps:
            stacked = forward(ds)
            assert stacked.shape == (len(ds),) + np.shape(forward(0.1))
            for d, row in zip(ds, stacked):
                expected = scalar(float(d))
                np.testing.assert_array_equal(row, getattr(expected, "entries", expected))

    @pytest.mark.parametrize("method", bp.METHODS)
    def test_an_empty_array_of_separations_gives_no_rows(self, model015, space7, method):
        forward = inference._method_forward(method, model015, space7, bp.PixelGrid())
        outcomes = math.prod(forward.shape)
        assert forward(np.array([])).shape == (0,) + forward.shape
        probs, slopes = forward.batch(np.array([]), False)
        assert probs.shape == (0, outcomes) and slopes is None
        probs, slopes = forward.batch(np.array([]), True)
        assert probs.shape == slopes.shape == (0, outcomes)


class TestSharedMaps:
    def test_equal_measurements_share_one_map(self):
        space = bp.ModeSpace(idler=tuple((k, 0) for k in range(7)),
                             signal=tuple((k, 0) for k in range(7)))
        assert (bp.spade_forward(bp.SchmidtModel(0.15), bp.ModeSpace.grid())
                is bp.spade_forward(bp.SchmidtModel.from_gamma(0.15), space))
        assert (bp.direct_forward(bp.SchmidtModel(0.15), bp.PixelGrid(), "spdc")
                is bp.direct_forward(bp.SchmidtModel.from_gamma(0.15),
                                     bp.PixelGrid(50, (-4, 4)), "spdc"))

    def test_other_measurements_get_other_maps(self, model015, space7):
        spade = [bp.spade_forward(model015, space7),
                 bp.spade_forward(bp.SchmidtModel(0.07), space7),
                 bp.spade_forward(model015, bp.ModeSpace.grid(5)),
                 bp.spade_forward(model015, space7, False)]
        direct = [bp.direct_forward(model015, bp.PixelGrid(), "spdc"),
                  bp.direct_forward(bp.SchmidtModel(0.07), bp.PixelGrid(), "spdc"),
                  bp.direct_forward(model015, bp.PixelGrid(40), "spdc"),
                  bp.direct_forward(model015, bp.PixelGrid(), "gaussian")]
        maps = spade + direct
        assert len({id(forward) for forward in maps}) == len(maps)
        tables = [forward.log_probs for forward in maps]
        for i, j in ((0, 1), (0, 3), (4, 5), (4, 7)):
            assert not np.array_equal(tables[i], tables[j])

    @pytest.mark.parametrize("method", bp.METHODS)
    def test_shared_tables_are_read_only(self, model015, space7, method):
        forward = inference._method_forward(method, model015, space7, bp.PixelGrid())
        for table in (forward._kept, forward.log_probs):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0
        # kept_rows hands out copies: writing into them changes no later read
        index = np.array([0, len(inference._GRID)])
        for rows in forward.kept_rows(index):
            rows[:] = 0.0
        for rows in forward.kept_rows(index):
            assert rows[1].any()

    def test_scalar_call_builds_no_table(self, model015, space7):
        bp.spade_forward.cache_clear()
        forward = bp.spade_forward(model015, space7)
        forward(0.3)
        assert not {"_kept", "log_probs", "_kept_slopes"} & set(vars(forward))

    @pytest.mark.parametrize("method", bp.METHODS)
    def test_table_equals_scalar_oracle(self, model015, space7, method):
        grid = bp.PixelGrid()
        if method == "spade":
            def scalar(d):
                return bp.prob_matrix(d, space7, model015).entries.ravel()
        else:
            def scalar(d):
                return bp.direct_forward(model015, grid, method.removeprefix("direct_"))(d)
        rows = np.stack([scalar(float(d)) for d in np.linspace(0.0, 2.0, 200)])
        oracle = np.log(np.maximum(rows, bp.LIKELIHOOD_FLOOR))
        forward = inference._method_forward(method, model015, space7, grid)
        np.testing.assert_array_equal(forward.log_probs, oracle)

    def test_calibrated_table_equals_calibration_of_fresh_rows(self, model015, space7):
        rng = np.random.default_rng(8)
        cal = bp.CalibrationModel(alpha=rng.uniform(0.5, 1.2, space7.shape),
                                  beta=rng.uniform(0.0, 0.02, space7.shape))
        rows = np.stack([
            bp.apply_calibration(bp.prob_matrix(float(d), space7, model015), cal).entries.ravel()
            for d in inference._KEPT
        ])
        forward = bp.spade_forward(model015, space7)
        calibrated = forward.calibrated(cal)
        np.testing.assert_array_equal(calibrated._kept, rows)
        np.testing.assert_array_equal(calibrated.log_probs,
                                      np.log(np.maximum(rows[:-1], bp.LIKELIHOOD_FLOOR)))
        # the base map's table is the uncalibrated one
        assert not np.array_equal(forward._kept, rows)


def _rows_near_zero(truth_at):
    # 48 rows of 1e9 photons drawn at d = 0, 0.001 and 0.002: at this N some rows
    # whose best grid point is 0 curve up there, and spade rows catch counts on
    # cells dead at 0
    return np.array([bp.sample_counts(truth_at(d), 10**9, bp.trial_seed(7, t)).counts.ravel()
                     for d in (0.0, 0.001, 0.002) for t in range(16)], dtype=float)


def _assert_stops_where_curving_down(forward, obs, p0, *curvatures):
    # _fit stops exactly the rows whose best grid point is 0, whose log-likelihood
    # curves down there, l''(0) = sum_i n_i p_i''(0) / p_i(0) < 0 over the outcomes
    # live at 0, and that hold no count on an outcome dead at 0; every oracle
    # estimate of p''(0) in curvatures picks the same rows, and each matches the
    # p'(h) / h that the fit reads
    _, slopes = forward.batch(np.array([0.0, _CURVE_STEP]), True)
    for curvature in curvatures:
        np.testing.assert_allclose(slopes[1] / _CURVE_STEP, curvature, rtol=0.0, atol=1e-6)
    live = p0 > bp.LIKELIHOOD_FLOOR
    peaked = np.argmax(obs @ forward.log_probs.T, axis=1) == 0
    clean = obs[:, ~live].sum(axis=1) == 0.0
    expected = [peaked & clean & (obs[:, live] @ (c[live] / p0[live]) < 0.0) for c in curvatures]
    for other in expected[1:]:
        np.testing.assert_array_equal(other, expected[0])
    fits = _fit(obs, forward)
    stopped = fits.iterations == 0
    np.testing.assert_array_equal(stopped, expected[0])
    assert stopped.any() and (peaked & ~stopped).any()
    assert np.all(fits.d_hat[stopped] == 0.0) and np.all(fits.converged[stopped])
    return stopped


def _second_differences(fn):
    # p''(0) by second differences at two steps, good to about 1e-7 at the larger
    return [second_difference_at_zero(fn, h) for h in (3e-4, 1.5e-4)]


class TestCurvatureAtZero:
    # the d = 0 stop of _fit against p''(0) from the oracles
    @pytest.mark.parametrize("space", [
        bp.ModeSpace.grid(),
        bp.ModeSpace.grid(2, 1),
        bp.ModeSpace(idler=((0, 0), (2, 0), (3, 1), (5, 0)),
                     signal=((1, 0), (3, 1), (0, 0), (9, 1), (6, 0))),
    ], ids=["7x7", "3x3-l1", "ragged-l1"])
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_spade(self, model015, space, renormalize):
        def public(x):
            return bp.prob_matrix(x, space, model015, renormalize).entries

        curvature = spade_curvature_at_zero(space, 0.15, renormalize)
        for numeric in _second_differences(public):
            np.testing.assert_allclose(curvature, numeric, rtol=0.0, atol=1e-6)
        forward = bp.spade_forward(model015, space, renormalize)
        obs = _rows_near_zero(lambda d: public(d) / public(d).sum())
        stopped = _assert_stops_where_curving_down(forward, obs, public(0.0).ravel(),
                                                   curvature.ravel())
        # the rows that refine instead hold counts on cells dead at 0
        assert np.all(obs[~stopped][:, public(0.0).ravel() == 0.0].sum(axis=1) > 0)

    @pytest.mark.parametrize("kind", ["gaussian", "spdc"])
    # on the wide grid the spdc masses sum above one by rounding and are renormalized
    @pytest.mark.parametrize("grid", [bp.PixelGrid(), bp.PixelGrid(7, (-1.0, 2.5)),
                                      bp.PixelGrid(9, (-20.0, 20.0))],
                             ids=["default", "off-centre", "wide"])
    def test_pixels(self, model015, kind, grid):
        def public(x):
            return bp.direct_forward(model015, grid, kind)(x)

        _assert_stops_where_curving_down(bp.direct_forward(model015, grid, kind),
                                         _rows_near_zero(public), public(0.0),
                                         *_second_differences(public))

    def test_calibrated(self, model015, space7):
        rng = np.random.default_rng(3)
        alpha = rng.uniform(0.5, 1.2, space7.shape)
        beta = rng.uniform(0.0, 0.02, space7.shape)
        alpha[0, 3] = beta[0, 3] = alpha[4, 1] = beta[4, 1] = 0.0  # outcomes mapped to zero
        cal = bp.CalibrationModel(alpha=alpha, beta=beta)

        def public(x):
            return bp.apply_calibration(bp.prob_matrix(x, space7, model015), cal).entries.ravel()

        _assert_stops_where_curving_down(bp.spade_forward(model015, space7).calibrated(cal),
                                         _rows_near_zero(public), public(0.0),
                                         *_second_differences(public))

    @pytest.mark.parametrize("method", bp.METHODS)
    def test_plain_callable_stops_the_rows_the_exact_map_stops(self, model015, space7, method):
        # a plain callable's p'(h) / h comes from differences of its values; at
        # 1e9 photons per row their rounding can flip the d = 0 stop of a pixel row
        # and move the refined d_hat
        grid = bp.PixelGrid()
        if method == "spade":
            def public(d):
                return bp.prob_matrix(d, space7, model015).entries
        else:
            def public(d):
                return bp.direct_forward(model015, grid, method.removeprefix("direct_"))(d)
        forward = inference._method_forward(method, model015, space7, grid)
        obs = _rows_near_zero(forward)
        exact = _fit(obs, forward)
        plain = _fit(obs, _as_map(public))
        stopped = exact.iterations == 0
        assert stopped.any() and not stopped.all()
        np.testing.assert_array_equal(plain.iterations == 0, stopped)
        np.testing.assert_array_equal(plain.d_hat[stopped], exact.d_hat[stopped])
        np.testing.assert_allclose(plain.d_hat, exact.d_hat, rtol=0.0, atol=1e-7)


def _brute_force_mle(counts, forward, calibration=None):
    # dense grid over the whole bounds, then two dense zooms around the best point
    obs = counts.counts.ravel().astype(float)

    def loglik(ds):
        p = forward(ds).reshape(len(ds), -1)
        if calibration is not None:
            p = np.clip(calibration.alpha.ravel() * p + calibration.beta.ravel(), 0.0, None)
            p = p / p.sum(axis=1, keepdims=True)
        return np.log(np.maximum(p, bp.LIKELIHOOD_FLOOR)) @ obs

    ds = np.linspace(0.0, 2.0, 20_001)
    for half_width in (2e-4, 2e-7, None):
        best = ds[np.argmax(loglik(ds))]
        if half_width is None:
            return best
        ds = np.clip(np.linspace(best - half_width, best + half_width, 2001), 0.0, 2.0)


class TestStopAtZero:
    @staticmethod
    def _counting_passes(forward):
        # forward as a new map, counting the rows of its first-derivative evaluations:
        # the d = 0 stop evaluates its two rows once per map, the first lockstep pass
        # only the best grid points the map has not kept yet, and every later pass
        # the rows still active
        passes = []

        def batch(d, derivative):
            if derivative == 1:
                passes.append(len(d))
            return forward.batch(d, derivative)

        return _ForwardMap(batch, forward.shape), passes

    @pytest.mark.parametrize("kind", ["gaussian", "spdc"])
    def test_rows_peaked_at_zero_stop_and_match_the_oracle(self, model015, kind):
        forward, passes = self._counting_passes(bp.direct_forward(model015, bp.PixelGrid(), kind))
        truth = forward(0.0465)
        rows = [bp.sample_counts(truth, 37_000, bp.trial_seed(0, t)) for t in range(48)]
        obs = np.array([cm.counts for cm in rows], dtype=float)
        fits = _fit(obs, forward)
        stopped = fits.iterations == 0
        assert 0 < stopped.sum() < len(obs)
        assert np.all(fits.d_hat[stopped] == 0.0) and np.all(fits.converged[stopped])
        np.testing.assert_array_equal(fits.log_likelihood[stopped],
                                      (obs @ forward.log_probs.T)[stopped, 0])
        # a pass refines only the rows still active: never a stopped one
        assert max(passes) == (~stopped).sum()
        for row in np.flatnonzero(stopped)[:2]:
            assert _brute_force_mle(rows[row], forward) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("renormalize", [True, False])
    def test_counts_on_cells_dead_at_zero_keep_the_row_refining(
            self, model015, space7, renormalize):
        # every off-diagonal cell is 0 at d = 0; at N = 1e7 and d = 0.002 about 60
        # counts land there, the floored log-likelihood puts the best grid point at
        # 0 and the diagonal curves down, yet the maximum lies inside the first bracket
        forward = bp.spade_forward(model015, space7, renormalize)
        truth = forward(0.002)
        counts = bp.sample_counts(truth / truth.sum(), 10_000_000, seed=0)
        obs = counts.counts.ravel()[None, :].astype(float)
        assert np.argmax(obs @ forward.log_probs.T) == 0
        fits = _fit(obs, forward)
        assert fits.iterations[0] > 0 and fits.converged[0]
        assert fits.d_hat[0] > 1e-3
        assert fits.d_hat[0] == pytest.approx(_brute_force_mle(counts, forward), abs=1e-6)

    def test_calibrated_spade_row_peaked_at_zero(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        cal = bp.CalibrationModel(alpha=np.full(space7.shape, 0.8),
                                  beta=np.full(space7.shape, 0.01))
        truth = bp.apply_calibration(bp.prob_matrix(0.0, space7, model015), cal)
        diagonal = np.diag(np.diag(truth.entries))
        counts = bp.CountMatrix(np.round(diagonal * 37_000).astype(np.int64))
        result = bp.mle_estimate(counts, forward, calibration=cal)
        assert result.refine_iterations == 0 and result.converged
        assert result.d_hat == 0.0
        assert _brute_force_mle(counts, forward, calibration=cal) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("method", ["direct_gaussian", "direct_spdc"])
    def test_direct_cell_near_zero_takes_few_passes(self, model015, method, seed):
        # a direct-imaging cell at the first sweep separation: without the stop,
        # rows peaked at 0 bisect about 20 passes toward it
        forward, passes = self._counting_passes(
            bp.direct_forward(model015, bp.PixelGrid(), method.removeprefix("direct_")))
        bp.mc_standard_error(method, 0.15, 37_000, 0.0465, 48, seed, forward=forward,
                             model=model015)
        assert len(passes) <= 8


_KEPT_ROW_MAPS = ("spade", "spade_20x2", "direct_gaussian", "direct_spdc", "calibrated",
                  "plain")


@functools.cache
def _kept_row_case(name):
    # a map whose kept rows a fit reads, with its rows from one batch pass over the
    # whole grid: spade 7x7, a space whose grid rows _in_blocks splits into several
    # blocks, both pixel kinds, a calibrated map and a plain callable
    schmidt = bp.SchmidtModel.from_gamma(0.15)
    space7 = bp.ModeSpace.grid()
    if name == "spade_20x2":
        forward = bp.spade_forward(schmidt, bp.ModeSpace.grid(20, 2))
    elif name == "calibrated":
        rng = np.random.default_rng(8)
        forward = bp.spade_forward(schmidt, space7).calibrated(bp.CalibrationModel(
            alpha=rng.uniform(0.5, 1.2, space7.shape), beta=rng.uniform(0.0, 0.02, space7.shape)))
    elif name == "plain":
        few = bp.PixelGrid(7)
        forward = _as_map(lambda d: bp.direct_forward(schmidt, few, "spdc")(d))
    else:
        forward = inference._method_forward(name, schmidt, space7, bp.PixelGrid())
    return forward, forward.batch(inference._KEPT, True)


def _fresh(forward):
    # a map equal to forward, down to the base map of a calibrated view, that keeps nothing yet
    return replace(forward, base=None if forward.base is None else _fresh(forward.base))


def _bits(rows):
    # the float64 rows as integers, so that equality is bit for bit
    return np.ascontiguousarray(rows).view(np.int64)


_GRID_INDEX = st.lists(st.integers(0, len(inference._KEPT) - 1), min_size=1, max_size=300)


class TestKeptRows:
    def test_wide_space_splits_the_grid_into_blocks(self, monkeypatch):
        forward, _ = _kept_row_case("spade_20x2")
        blocks = []
        block = model._spade_block

        def counting(d, *args):
            blocks.append(len(d))
            return block(d, *args)

        monkeypatch.setattr(model, "_spade_block", counting)
        forward.batch(inference._GRID, True)
        assert len(blocks) > 1 and sum(blocks) == len(inference._GRID)

    @pytest.mark.parametrize("name", _KEPT_ROW_MAPS)
    @settings(max_examples=15, deadline=None)
    @given(index=_GRID_INDEX)
    def test_rows_do_not_depend_on_the_batch(self, name, index):
        # a row evaluated among any other rows, repeats included, is bit for bit the
        # row of the batch of every kept point, and its probabilities are the kept table's
        forward, (probs, slopes) = _kept_row_case(name)
        part_probs, part_slopes = forward.batch(inference._KEPT[index], True)
        np.testing.assert_array_equal(_bits(part_probs), _bits(probs[index]))
        np.testing.assert_array_equal(_bits(part_probs), _bits(forward._kept[index]))
        np.testing.assert_array_equal(_bits(part_slopes), _bits(slopes[index]))

    @pytest.mark.parametrize("name", _KEPT_ROW_MAPS)
    @settings(max_examples=10, deadline=None)
    @given(first=_GRID_INDEX, second=_GRID_INDEX)
    def test_kept_slopes_are_the_batch_rows(self, name, first, second):
        forward, (probs, slopes) = _kept_row_case(name)
        fresh = _fresh(forward)
        for index in (first, second):
            kept_probs, kept_slopes = fresh.kept_rows(np.array(index))
            np.testing.assert_array_equal(_bits(kept_probs), _bits(probs[index]))
            np.testing.assert_array_equal(_bits(kept_slopes), _bits(slopes[index]))

    @staticmethod
    def _counting_rows(monkeypatch):
        # (rows, derivative) of every evaluation of the model's two forward cores
        evaluated = []
        for name in ("_spade_probs", "_pixel_probs"):
            def counting(d, *args, core=getattr(inference, name)):
                evaluated.append((len(d), args[-1]))
                return core(d, *args)

            monkeypatch.setattr(inference, name, counting)
        return evaluated

    @pytest.mark.parametrize("method", bp.METHODS)
    def test_warm_map_evaluates_only_the_later_passes(self, monkeypatch, model015, space7,
                                                      method):
        evaluated = self._counting_rows(monkeypatch)
        shared = inference._method_forward(method, model015, space7, bp.PixelGrid())
        forward = _ForwardMap(shared.batch, shared.shape)
        obs = _rows_near_zero(forward)
        evaluated.clear()
        cold = _fit(obs, forward)
        best = np.argmax(obs @ forward.log_probs.T, axis=1)
        refined = cold.iterations > 0
        assert (best == 0).any() and refined.any()
        # a cold map evaluates its kept probabilities, the d = 0 stop's two rows, the
        # best grid points but 0 of the rows that refine, then in passes 2, 3, ... the
        # rows still active
        later = int(np.maximum(cold.iterations - 1, 0).sum())
        first = np.zeros(len(inference._GRID), dtype=bool)
        first[best[refined]] = True
        first[0] = False
        assert evaluated[0] == (len(inference._KEPT), False)
        assert sum(rows for rows, _ in evaluated) == (
            len(inference._KEPT) + 2 + first.sum() + later)
        evaluated.clear()
        warm = _fit(obs, forward)
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a, b)
        # neither the first pass nor the d = 0 stop evaluates anything
        assert len(evaluated) == max(int(cold.iterations.max()) - 1, 0)
        assert all(derivative for _, derivative in evaluated)
        assert sum(rows for rows, _ in evaluated) == later

    def test_calibrated_views_of_a_warm_map_evaluate_only_the_later_passes(
            self, monkeypatch, model015, space7):
        # a calibrated map reads its base map's kept rows: once the base map holds the
        # grid rows, the d = 0 pair and the slopes at the best grid points, a fit through
        # any calibration evaluates neither its first pass nor its d = 0 stop
        evaluated = self._counting_rows(monkeypatch)
        shared = bp.spade_forward(model015, space7)
        forward = _ForwardMap(shared.batch, shared.shape)
        rng = np.random.default_rng(19)
        cals = [bp.CalibrationModel(alpha=rng.uniform(0.5, 1.2, space7.shape),
                                    beta=rng.uniform(0.0, 0.02, space7.shape)) for _ in range(2)]
        obs = np.vstack([_rows_near_zero(forward.calibrated(cal)) for cal in cals])
        cold = [_fit(obs, forward.calibrated(cal)) for cal in cals]
        for cal, first in zip(cals, cold):
            view = forward.calibrated(cal)
            best = np.argmax(obs @ view.log_probs.T, axis=1)
            assert (first.iterations == 0).any() and ((best == 0) & (first.iterations > 0)).any()
            evaluated.clear()
            warm = _fit(obs, view)
            for a, b in zip(first, warm):
                np.testing.assert_array_equal(a, b)
            later = int(np.maximum(warm.iterations - 1, 0).sum())
            assert all(derivative for _, derivative in evaluated)
            assert sum(rows for rows, _ in evaluated) == later
        # the derivatives stay in the base map's table
        assert "_kept_slopes" not in vars(view)

    def test_cold_plain_callable_makes_no_more_scalar_calls(self, model015):
        # a plain callable's map is new per call: 201 kept rows, then 5 scalar calls
        # (the row and its difference quotient) per row of the d = 0 stop and of each pass
        grid = bp.PixelGrid()
        calls = []

        def public(d):
            calls.append(d)
            return bp.direct_forward(model015, grid, "spdc")(d)

        truth = public(0.0465)
        # trial 2 stops at d = 0, trial 0 refines in 4 passes
        at_zero, off_zero = (bp.sample_counts(truth, 37_000, bp.trial_seed(0, t)) for t in (2, 0))
        calls.clear()
        stopped = bp.mle_estimate(at_zero, public)
        assert stopped.refine_iterations == 0 and len(calls) == len(inference._KEPT) + 2 * 5
        calls.clear()
        refined = bp.mle_estimate(off_zero, public)
        assert refined.refine_iterations == 4 and len(calls) == len(inference._KEPT) + 4 * 5


class TestMleEstimate:
    @pytest.mark.parametrize("d_true", [0.0, 0.2, 0.5, 1.0])
    def test_fixed_point_on_expected_counts(self, model015, space7, d_true):
        forward = bp.spade_forward(model015, space7)
        counts = np.round(forward(d_true) * 1_000_000).astype(np.int64)
        result = bp.mle_estimate(bp.CountMatrix(counts), forward)
        assert result.d_hat == pytest.approx(d_true, abs=2e-3)
        assert result.delta_hat == pytest.approx(2.0 * result.d_hat, rel=1e-14)
        assert math.isfinite(result.log_likelihood)

    def test_diagonal_counts_hit_lower_boundary(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        diag = np.diag(np.diag(forward(0.0)))
        counts = np.round(diag * 100_000).astype(np.int64)
        result = bp.mle_estimate(bp.CountMatrix(counts), forward)
        assert result.d_hat == 0.0
        assert "boundary" in result.flags

    def test_monte_carlo_bias(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        mc = bp.mc_standard_error(
            "spade", 0.15, 37_000, 0.5, 100, seed=91, forward=forward, model=model015
        )
        standard_error_of_mean = mc.std_err / math.sqrt(mc.trials)
        assert abs(mc.mean - 1.0) < 3.0 * standard_error_of_mean

    @pytest.mark.parametrize(
        "method,d_true", [("spade", 0.05), ("spade", 0.5), ("spade", 1.2),
                          ("direct_gaussian", 0.6), ("direct_spdc", 1.0)]
    )
    def test_matches_brute_force_oracle(self, model015, space7, method, d_true):
        if method == "spade":
            forward = bp.spade_forward(model015, space7)
        else:
            forward = bp.direct_forward(model015, bp.PixelGrid(), method.split("_")[1])
        counts = bp.sample_counts(forward(d_true), 37_000, seed=17)
        result = bp.mle_estimate(counts, forward)
        assert result.converged
        assert result.d_hat == pytest.approx(_brute_force_mle(counts, forward), abs=1e-6)

    def test_calibrated_fit_matches_brute_force_oracle(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        cal = bp.CalibrationModel(alpha=np.full(space7.shape, 0.8),
                                  beta=np.full(space7.shape, 0.01))
        truth = bp.apply_calibration(bp.prob_matrix(0.7, space7, model015), cal)
        counts = bp.sample_counts(truth, 37_000, seed=23)
        result = bp.mle_estimate(counts, forward, calibration=cal)
        oracle = _brute_force_mle(counts, forward, calibration=cal)
        assert result.d_hat == pytest.approx(oracle, abs=1e-6)

    def test_plain_callable_gets_a_numeric_derivative(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        counts = bp.sample_counts(forward(0.4), 37_000, seed=29)
        exact = bp.mle_estimate(counts, forward)
        plain = bp.mle_estimate(counts, lambda d: bp.prob_matrix(d, space7, model015).entries)
        assert plain.d_hat == pytest.approx(exact.d_hat, abs=1e-8)

    def test_grid_table_is_built_once_per_map(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        counts = bp.sample_counts(forward(0.4), 37_000, seed=29)
        first = bp.mle_estimate(counts, forward)
        table = forward.log_probs
        assert bp.mle_estimate(counts, forward) == first
        assert forward.log_probs is table

    @pytest.mark.parametrize("method", bp.METHODS)
    def test_batched_cell_equals_single_fits(self, model015, space7, method):
        if method == "spade":
            forward = bp.spade_forward(model015, space7)
        else:
            forward = bp.direct_forward(model015, bp.PixelGrid(), method.split("_")[1])
        mc = bp.mc_standard_error(
            method, 0.15, 5000, 0.1, 12, seed=41, forward=forward, model=model015
        )
        truth = forward(0.1)
        for t, estimate in enumerate(mc.estimates):
            counts = bp.sample_counts(truth, 5000, bp.trial_seed(41, t))
            assert estimate == 2.0 * bp.mle_estimate(counts, forward).d_hat

    @pytest.mark.parametrize("cap", [1, 2, None])
    def test_each_row_of_a_batch_is_its_one_row_fit(self, monkeypatch, model015, cap):
        # rows that stop at d = 0 (the first cell), rows that end on different passes,
        # and under a cap of 1 or 2 passes rows still refining when the passes run out
        if cap is not None:
            monkeypatch.setattr(inference, "_MAX_REFINE_STEPS", cap)
        forward = bp.direct_forward(model015, bp.PixelGrid(), "gaussian")
        obs = np.array([
            bp.sample_counts(forward(d), 37_000, bp.trial_seed(c, t)).counts
            for c, d in enumerate((0.0465, 0.3, 0.8, 1.4)) for t in range(12)
        ], dtype=float)
        batch = _fit(obs, forward)
        refined = ~np.isin(batch.d_hat, inference._GRID)
        for row in range(len(obs)):
            alone = _fit(obs[row:row + 1], forward)
            for name, got, want in zip(batch._fields, batch, alone):
                if name == "log_likelihood" and not refined[row]:
                    # a grid point's log-likelihood is the grid product's, whose
                    # rounding depends on how many rows it multiplies
                    np.testing.assert_allclose(got[row], want[0], rtol=1e-15)
                else:
                    assert got[row] == want[0], (name, row)
        assert np.any(batch.iterations == 0)
        if cap is None:
            assert np.all(batch.converged) and np.any(refined)
            assert len(set(batch.iterations.tolist())) > 2
        else:
            assert np.any(~batch.converged)
            assert np.all(batch.iterations[~batch.converged] == cap)

    def test_flat_likelihood_flagged(self):
        constant = lambda d: np.full(4, 0.25)
        counts = bp.CountMatrix(np.array([25, 25, 25, 25]))
        result = bp.mle_estimate(counts, constant)
        assert "flat-likelihood" in result.flags

    def test_a_map_that_is_not_finite_on_the_grid_is_a_numerical_failure(self):
        counts = bp.CountMatrix(np.array([3, 4]))
        with pytest.raises(bp.NumericalError,
                           match="^non-finite log-likelihood on the search grid$"):
            bp.mle_estimate(counts, lambda d: np.array([np.nan, 1.0]))

    def test_validation(self, model015, space7):
        # counts and calibration must match the outcomes of the forward map
        forward = bp.spade_forward(model015, space7)
        counts = bp.CountMatrix(np.ones(space7.shape, dtype=np.int64))
        short = bp.CountMatrix(np.ones(48, dtype=np.int64))
        with pytest.raises(ValueError, match="does not match the counts"):
            bp.mle_estimate(short, forward)
        with pytest.raises(ValueError, match="calibration shape"):
            bp.mle_estimate(counts, forward,
                            bp.CalibrationModel(alpha=np.ones((6, 6)), beta=np.zeros((6, 6))))


class TestFitCalibration:
    def test_noiseless_identity(self, model015, space7):
        # counts are exact expected values at a photon number large enough that
        # integer rounding is negligible even for the faintest outcomes
        forward = bp.spade_forward(model015, space7)
        datasets = []
        for d in (0.2, 0.6, 1.0, 1.35):
            counts = np.round(forward(d) * 1e12).astype(np.int64)
            datasets.append((d, bp.CountMatrix(counts)))
        cal = bp.fit_calibration(datasets, forward)
        np.testing.assert_allclose(cal.alpha, 1.0, atol=1e-6)
        np.testing.assert_allclose(cal.beta, 0.0, atol=1e-6)

    def test_noisy_affine_recovery(self, model015, space7):
        # generator renormalizes, so the identifiable parameters are the true
        # (alpha, beta) divided by the total alpha + n_outcomes * beta
        true_cal = bp.CalibrationModel(
            alpha=np.full(space7.shape, 0.8), beta=np.full(space7.shape, 0.01)
        )
        norm = 0.8 + 49 * 0.01
        forward = bp.spade_forward(model015, space7)
        seps = np.linspace(0.1, 1.2, 11)
        datasets = []
        for i, d in enumerate(seps):
            pm = bp.apply_calibration(bp.prob_matrix(float(d), space7, model015), true_cal)
            datasets.append((float(d), bp.sample_counts(pm, 1_000_000, seed=1000 + i)))
        cal = bp.fit_calibration(datasets, forward)
        tri = np.zeros(space7.shape, dtype=bool)
        strong = np.zeros(space7.shape, dtype=bool)
        for i in range(7):
            for j in range(7):
                tri[i, j] = abs(i - j) <= 1
                strong[i, j] = abs(i - j) <= 1 and i <= 3 and j <= 3
        # attenuation recovers per entry on the well-measured outcomes; the
        # small background is recovered at 2% only after pooling entries
        np.testing.assert_allclose(cal.alpha[strong] * norm, 0.8, rtol=0.02)
        assert np.mean(cal.alpha[tri]) * norm == pytest.approx(0.8, rel=0.02)
        assert np.mean(cal.beta[tri]) * norm == pytest.approx(0.01, rel=0.02)

    def test_degenerate_entries_flagged(self, model015):
        # an l-mismatched outcome has identically zero model probability
        space = bp.ModeSpace(idler=((0, 0), (0, 1)), signal=((0, 0),))
        forward = bp.spade_forward(model015, space, renormalize=False)
        datasets = []
        for d in (0.1, 0.5):
            counts = np.array([[900], [100]], dtype=np.int64)
            datasets.append((d, bp.CountMatrix(counts)))
        cal = bp.fit_calibration(datasets, forward)
        assert cal.degenerate[1, 0]
        assert cal.alpha[1, 0] == 1.0
        assert cal.beta[1, 0] == pytest.approx(0.1, abs=1e-12)

    def test_rejects_a_forward_map_of_another_size(self, model015, space7):
        forward = bp.direct_forward(model015, bp.PixelGrid(count=2), "gaussian")
        datasets = [(d, bp.CountMatrix(np.ones(space7.shape, dtype=np.int64)))
                    for d in (0.1, 0.5)]
        with pytest.raises(ValueError, match="^forward model size does not match the counts$"):
            bp.fit_calibration(datasets, forward)

    @pytest.mark.parametrize("second, message", [
        (np.zeros((7, 7), dtype=np.int64), "every dataset needs at least one count"),
        (np.ones(49, dtype=np.int64), "datasets must share a counts shape"),
    ], ids=["all-zero", "other-shape"])
    def test_rejects_datasets_it_cannot_fit(self, model015, space7, second, message):
        forward = bp.spade_forward(model015, space7)
        datasets = [(0.1, bp.CountMatrix(np.ones(space7.shape, dtype=np.int64))),
                    (0.5, bp.CountMatrix(second))]
        with pytest.raises(ValueError, match=f"^{message}$"):
            bp.fit_calibration(datasets, forward)

    def test_needs_two_distinct_separations(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        counts = bp.CountMatrix(np.ones(space7.shape, dtype=np.int64))
        with pytest.raises(ValueError):
            bp.fit_calibration([(0.1, counts)], forward)
        with pytest.raises(ValueError):
            bp.fit_calibration([(0.1, counts), (0.1, counts)], forward)


class TestMonteCarlo:
    def test_deterministic_per_seed(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        a = bp.mc_standard_error(
            "spade", 0.15, 5000, 0.3, 10, seed=5, forward=forward, model=model015
        )
        b = bp.mc_standard_error(
            "spade", 0.15, 5000, 0.3, 10, seed=5, forward=forward, model=model015
        )
        np.testing.assert_array_equal(a.estimates, b.estimates)
        assert a.std_err == b.std_err

    def test_photon_scaling(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        low = bp.mc_standard_error(
            "spade", 0.15, 5000, 0.3, 500, seed=11, forward=forward, model=model015
        )
        high = bp.mc_standard_error(
            "spade", 0.15, 10000, 0.3, 500, seed=12, forward=forward, model=model015
        )
        assert low.std_err / high.std_err == pytest.approx(math.sqrt(2.0), rel=0.10)

    def test_estimator_respects_crlb(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        mc = bp.mc_standard_error(
            "spade", 0.15, 10000, 0.05, 300, seed=21, forward=forward, model=model015
        )
        assert mc.std_err ** 2 >= bp.crlb(bp.schmidt_number(model015.gamma), 10000) * 0.9

    def test_direct_methods_run(self, model015):
        # without a forward map the method fits the default 50-pixel grid
        mc = bp.mc_standard_error("direct_gaussian", 0.15, 2000, 0.8, 8, seed=31, model=model015)
        assert mc.trials == 8
        assert math.isfinite(mc.std_err)
        assert 0.0 <= mc.boundary_fraction <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bp.mc_standard_error("telescope", 0.15, 1000, 0.1, 10, seed=0)
        with pytest.raises(ValueError):
            bp.mc_standard_error("spade", 0.15, 1000, 0.1, 1, seed=0)

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match=f"at least 2 trials, got {trials}$"):
            bp.mc_standard_error("spade", 0.15, 100, 0.3, trials, seed=1)

    def test_rejects_a_non_finite_separation(self):
        with pytest.raises(ValueError, match="^separations must be finite, got nan$"):
            bp.mc_standard_error("direct_gaussian", 0.15, 100, math.nan, 4, seed=1)

    @pytest.mark.parametrize("d", [2.5, float(np.nextafter(2.0, 3.0)), -0.1])
    def test_rejects_a_separation_the_fit_cannot_reach(self, d):
        # every fit searches d in [0, 2]; at d = 2.5 the mean estimate read 3.82 for 5
        with pytest.raises(ValueError, match=re.escape(f"must be in [0, 2], the interval every "
                                                       f"fit searches, got {d!r}")):
            bp.mc_standard_error("spade", 0.15, 100, d, 4, seed=1)

    @pytest.mark.parametrize("d", [0.0, 2.0])
    def test_accepts_the_ends_of_the_search(self, d):
        mc = bp.mc_standard_error("direct_gaussian", 0.15, 100, d, 2, seed=1)
        assert mc.d == d

    def test_rejects_fractional_photons(self):
        # a caller's error, not a numerical failure of the draw
        with pytest.raises(ValueError, match="non-negative integer, got 100.5$"):
            bp.mc_standard_error("spade", 0.15, 100.5, 0.3, 4, seed=1)

    def test_rejects_a_model_of_another_gamma(self, model015):
        with pytest.raises(ValueError, match="model gamma 0.15 differs from gamma 0.3"):
            bp.mc_standard_error("spade", 0.3, 1000, 0.3, 4, seed=1, model=model015)


class TestTrialDraws:
    """The Monte-Carlo draws against numpy's own seeding, never against the vectorized hash."""

    # masters of 1, 2, 3 and 4 32-bit words; the masters of one seeding pass share a word count
    MASTERS = ((0, 1, 2**32 - 1), (2**32, 2**64 - 1), (2**64, 2**96 - 1), (2**96, 2**96 + 1))

    @staticmethod
    def _drawn_rows(monkeypatch):
        # every count row the Monte-Carlo cells hand to _fit, in order
        rows = []
        fit = inference._fit

        def spy(obs, forward):
            rows.append(obs.copy())
            return fit(obs, forward)

        monkeypatch.setattr(inference, "_fit", spy)
        return rows

    def test_trial_states_match_numpy(self):
        for masters in self.MASTERS:
            states = inference._trial_states(list(masters), 301)
            assert states.shape == (len(masters), 301, 4)
            for master, cell in zip(masters, states.tolist()):
                for t, words in enumerate(cell):
                    sub_seed = int(np.random.SeedSequence((master, t)).generate_state(1)[0])
                    expected = np.random.default_rng(sub_seed).bit_generator.state["state"]
                    assert inference._pcg64_state(*words) == (
                        expected["state"], expected["inc"]), (master, t)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**96 + 1])
    def test_cell_masters_match_numpy(self, seed):
        # the job-wide pass derives every (method, separation) master of a compare job
        expected = [int(np.random.SeedSequence((seed, m, c)).generate_state(1)[0])
                    for m in range(3) for c in range(30)]
        assert inference._cell_masters(seed, 3, 30) == expected

    def test_a_cell_past_the_fit_budget_draws_sample_counts(self, monkeypatch, model015,
                                                            space7):
        forward = bp.spade_forward(model015, space7)
        trials = inference._FIT_ROWS + 3
        rows = self._drawn_rows(monkeypatch)
        bp.mc_standard_error("spade", 0.15, 300, 0.4, trials, seed=2**64 - 1,
                             forward=forward, model=model015)
        truth = forward(0.4)
        expected = [bp.sample_counts(truth, 300, bp.trial_seed(2**64 - 1, t)).counts.ravel()
                    for t in range(trials)]
        np.testing.assert_array_equal(np.concatenate(rows), expected)

    def test_masters_of_every_word_count_in_one_call(self, monkeypatch, model015):
        # one call per word count, its masters out of order; each cell keeps its own trials
        forward = bp.direct_forward(model015, bp.PixelGrid(), "gaussian")
        rows = self._drawn_rows(monkeypatch)
        for masters in ([3, 0, 2**32 - 1], [2**64 - 1, 2**32], [2**95, 2**64 + 5], [2**96 + 1]):
            seps = np.linspace(0.1, 0.6, len(masters))
            rows.clear()
            inference._mc_cells("direct_gaussian", 500, seps,
                                inference._trial_states(masters, 4), forward)
            expected = [bp.sample_counts(forward(d), 500, bp.trial_seed(m, t)).counts
                        for d, m in zip(seps, masters) for t in range(4)]
            np.testing.assert_array_equal(np.concatenate(rows), expected)

    def test_unnormalized_truths_are_rejected_as_sample_counts_rejects_them(self, model015,
                                                                         space7):
        # the cells check their truth rows at once; the message names the first row's sum
        forward = bp.spade_forward(model015, space7, renormalize=False)
        with pytest.raises(ValueError, match="renormalize first") as single:
            bp.sample_counts(forward(0.2), 100, seed=0)
        with pytest.raises(ValueError) as cells:
            inference._mc_cells("spade", 100, [0.2, 0.7], inference._trial_states([1, 2], 2),
                                forward)
        assert str(cells.value) == str(single.value)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, ValueError)])
    def test_rejects_what_seed_sequence_rejects(self, seed, error):
        with pytest.raises(error, match=f"^master_seed must be a non-negative integer, "
                                        f"got {seed!r}$"):
            bp.trial_seed(seed, 0)
        with pytest.raises(error, match=f"^seed must be a non-negative integer, got {seed!r}$"):
            bp.mc_standard_error("direct_gaussian", 0.15, 100, 0.3, 4, seed=seed)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_a_bool_is_no_seed(self, flag):
        # SeedSequence reads True as 1
        with pytest.raises(ValueError, match=f"^master_seed must be a non-negative integer, "
                                             f"got {flag!r}$"):
            bp.trial_seed(flag, 0)
        with pytest.raises(ValueError, match=f"^trial must be a non-negative integer, "
                                             f"got {flag!r}$"):
            bp.trial_seed(0, flag)
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, "
                                             f"got {flag!r}$"):
            bp.mc_standard_error("spade", 0.15, 100, 0.3, 2, seed=flag)

    def test_numpy_integer_seeds_are_their_values(self):
        assert bp.trial_seed(np.uint64(2**64 - 1), np.int8(3)) == bp.trial_seed(2**64 - 1, 3)


_WORD = st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(columns=st.integers(1, 8).flatmap(
           lambda words: st.lists(st.lists(_WORD, min_size=words, max_size=words),
                                  min_size=1, max_size=4)),
       n_words=st.sampled_from([1, 8]))
def test_seed_states_match_numpy_seed_sequence(columns, n_words):
    # each entropy word past the 4-word pool is mixed into all four pool words;
    # the callers reach that only with seeds of 3 and masters of 4 or more words
    entropy = np.array(columns, dtype=np.uint32).T
    expected = [np.random.SeedSequence(column).generate_state(n_words) for column in columns]
    np.testing.assert_array_equal(inference._seed_states(entropy, n_words),
                                  np.array(expected).T)
