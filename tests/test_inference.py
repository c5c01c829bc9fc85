import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import bispade as bp
from bispade import inference
from bispade.inference import _as_map, _checked_draws, _fit, _ForwardMap
from bispade.model import _CURVE_STEP
from oracles import second_difference_at_zero, spade_curvature_at_zero

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
        # public prob_matrix, pixel_probs and apply_calibration by a fourth-order
        # central difference, since a second-order one at d = 0.01 loses 1e-7 of
        # direct imaging's FI of 2e-5 to rounding
        grid = bp.PixelGrid()
        cal = bp.CalibrationModel(alpha=np.full(space7.shape, 0.8),
                                  beta=np.full(space7.shape, 0.01))
        forward, public = {
            "spade": (bp.spade_forward(model015, space7),
                      lambda x: bp.prob_matrix(x, space7, model015).entries.ravel()),
            "direct_gaussian": (bp.direct_forward(model015, grid, "gaussian"),
                                lambda x: bp.pixel_probs(x, grid, model015, "gaussian")),
            "direct_spdc": (bp.direct_forward(model015, grid, "spdc"),
                            lambda x: bp.pixel_probs(x, grid, model015, "spdc")),
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


class TestCrlb:
    def test_separable_single_photon(self):
        assert bp.crlb(1.0, 1) == 2.0

    def test_experimental_schmidt_number(self):
        assert bp.crlb(11.6, 1) == pytest.approx(0.5872202195147035, rel=1e-12)

    def test_scales_inversely_with_photons(self):
        assert bp.crlb(4.0, 2000) == pytest.approx(bp.crlb(4.0, 1000) / 2.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            bp.crlb(0.5, 10)
        with pytest.raises(ValueError):
            bp.crlb(2.0, 0)

    @pytest.mark.parametrize("schmidt_k", [math.inf, math.nan])
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
            np.testing.assert_array_equal(p, bp.pixel_probs(d, grid, model015, kind))
            numeric = _central_difference(lambda x: bp.pixel_probs(x, grid, model015, kind), d)
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
             lambda d, kind=kind: bp.pixel_probs(d, bp.PixelGrid(), model015, kind))
            for kind in ("gaussian", "spdc")
        ]
        for forward, scalar in maps:
            stacked = forward(ds)
            assert stacked.shape == (len(ds),) + np.shape(forward(0.1))
            for d, row in zip(ds, stacked):
                expected = scalar(float(d))
                np.testing.assert_array_equal(row, getattr(expected, "entries", expected))


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
        for table in (forward.grid_probs, forward.log_probs):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0

    def test_scalar_call_builds_no_table(self, model015, space7):
        bp.spade_forward.cache_clear()
        forward = bp.spade_forward(model015, space7)
        forward(0.3)
        assert not {"grid_probs", "log_probs"} & set(vars(forward))

    @pytest.mark.parametrize("method", bp.METHODS)
    def test_table_equals_scalar_oracle(self, model015, space7, method):
        grid = bp.PixelGrid()
        if method == "spade":
            def scalar(d):
                return bp.prob_matrix(d, space7, model015).entries.ravel()
        else:
            def scalar(d):
                return bp.pixel_probs(d, grid, model015, method.removeprefix("direct_"))
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
            for d in np.linspace(0.0, 2.0, 200)
        ])
        forward = bp.spade_forward(model015, space7)
        calibrated = forward.calibrated(cal)
        np.testing.assert_array_equal(calibrated.grid_probs, rows)
        np.testing.assert_array_equal(calibrated.log_probs,
                                      np.log(np.maximum(rows, bp.LIKELIHOOD_FLOOR)))
        # the base map's table is the uncalibrated one
        assert not np.array_equal(forward.grid_probs, rows)


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
            return bp.pixel_probs(x, grid, model015, kind)

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
                return bp.pixel_probs(d, grid, model015, method.removeprefix("direct_"))
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
        # forward, counting its first-derivative evaluations: _fit makes one per
        # lockstep refinement pass, over the rows still active
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
        assert mc.std_err ** 2 >= bp.crlb(model015.schmidt_number, 10000) * 0.9

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

    def test_rejects_fractional_photons(self):
        # a caller's error, not a numerical failure of the draw
        with pytest.raises(ValueError, match="non-negative integer, got 100.5$"):
            bp.mc_standard_error("spade", 0.15, 100.5, 0.3, 4, seed=1)

    def test_rejects_a_model_of_another_gamma(self, model015):
        with pytest.raises(ValueError, match="model gamma 0.15 differs from gamma 0.3"):
            bp.mc_standard_error("spade", 0.3, 1000, 0.3, 4, seed=1, model=model015)
