import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import bispade as bp

gammas = st.floats(0.05, 3.0)


class TestCountMatrix:
    def test_from_counts(self):
        cm = bp.CountMatrix.from_counts(np.array([[1, 2], [3, 4]]), separation=0.2)
        assert cm.total == 10
        assert cm.separation == 0.2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bp.CountMatrix.from_counts(np.array([1, -2]))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            bp.CountMatrix.from_counts(np.array([1.5, 2.0]))

    def test_rejects_total_mismatch(self):
        with pytest.raises(ValueError):
            bp.CountMatrix(counts=np.array([1, 2]), total=4)


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

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError):
            bp.fi_closed_form(0, 0, 0.15, "sideways")


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

    def test_matrix_input_keeps_separation(self, model015, space7):
        pm = bp.prob_matrix(0.3, space7, model015)
        cm = bp.sample_counts(pm, 1000, seed=3)
        assert cm.separation == 0.3
        assert cm.counts.shape == space7.shape

    def test_rejects_unrenormalized_matrix(self, model015, space7):
        pm = bp.prob_matrix(0.3, space7, model015, renormalize=False)
        with pytest.raises(ValueError):
            bp.sample_counts(pm, 1000, seed=3)


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
        for d, p, slope in zip(_SEPARATIONS, probs, slopes):
            np.testing.assert_array_equal(p, forward(d))
            numeric = _central_difference(
                lambda x: bp.prob_matrix(x, space, model015, renormalize).entries, d
            )
            np.testing.assert_allclose(slope, numeric, rtol=0.0, atol=1e-9)
        # the model is even in d, so the slope vanishes at d = 0
        assert np.all(slopes[0] == 0.0)

    @pytest.mark.parametrize("kind", ["gaussian", "spdc"])
    def test_pixel_derivative_matches_central_difference(self, model015, kind):
        grid = bp.PixelGrid()
        forward = bp.direct_forward(model015, grid, kind)
        probs, slopes = forward.batch(_SEPARATIONS, derivative=True)
        for d, p, slope in zip(_SEPARATIONS, probs, slopes):
            np.testing.assert_array_equal(p, forward(d))
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


class TestMleEstimate:
    @pytest.mark.parametrize("d_true", [0.0, 0.2, 0.5, 1.0])
    def test_fixed_point_on_expected_counts(self, model015, space7, d_true):
        forward = bp.spade_forward(model015, space7)
        counts = np.round(forward(d_true) * 1_000_000).astype(np.int64)
        result = bp.mle_estimate(bp.CountMatrix.from_counts(counts), forward)
        assert result.d_hat == pytest.approx(d_true, abs=2e-3)
        assert result.delta_hat == pytest.approx(2.0 * result.d_hat, rel=1e-14)
        assert math.isfinite(result.log_likelihood)

    def test_diagonal_counts_hit_lower_boundary(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        diag = np.diag(np.diag(forward(0.0)))
        counts = np.round(diag * 100_000).astype(np.int64)
        result = bp.mle_estimate(bp.CountMatrix.from_counts(counts), forward)
        assert result.d_hat == 0.0
        assert "boundary" in result.flags

    def test_monte_carlo_bias(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        mc = bp.mc_standard_error(
            "spade", 0.15, 37_000, 0.5, 100, seed=91, forward=forward, model=model015
        )
        standard_error_of_mean = mc.std_err / math.sqrt(mc.trials)
        assert abs(mc.mean - 1.0) < 3.0 * standard_error_of_mean

    def test_carries_crlb(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        counts = np.round(forward(0.4) * 10_000).astype(np.int64)
        bound = bp.crlb(model015.schmidt_number, 10_000)
        result = bp.mle_estimate(
            bp.CountMatrix.from_counts(counts), forward, crlb_variance=bound
        )
        assert result.crlb_variance == bound

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
        counts = bp.CountMatrix.from_counts(np.array([25, 25, 25, 25]))
        result = bp.mle_estimate(counts, constant, bounds=(0.0, 1.0))
        assert "flat-likelihood" in result.flags

    def test_validation(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        counts = bp.CountMatrix.from_counts(np.ones(space7.shape, dtype=np.int64))
        with pytest.raises(ValueError):
            bp.mle_estimate(counts, forward, bounds=(1.0, 0.5))
        with pytest.raises(ValueError):
            bp.mle_estimate(counts, forward, grid_points=1)


class TestFitCalibration:
    def test_noiseless_identity(self, model015, space7):
        # counts are exact expected values at a photon number large enough that
        # integer rounding is negligible even for the faintest outcomes
        forward = bp.spade_forward(model015, space7)
        datasets = []
        for d in (0.2, 0.6, 1.0, 1.35):
            counts = np.round(forward(d) * 1e12).astype(np.int64)
            datasets.append((d, bp.CountMatrix.from_counts(counts)))
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
            datasets.append((d, bp.CountMatrix.from_counts(counts)))
        cal = bp.fit_calibration(datasets, forward)
        assert cal.degenerate[1, 0]
        assert cal.alpha[1, 0] == 1.0
        assert cal.beta[1, 0] == pytest.approx(0.1, abs=1e-12)

    def test_needs_two_distinct_separations(self, model015, space7):
        forward = bp.spade_forward(model015, space7)
        counts = bp.CountMatrix.from_counts(np.ones(space7.shape, dtype=np.int64))
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
        grid = bp.PixelGrid()
        mc = bp.mc_standard_error(
            "direct_gaussian", 0.15, 2000, 0.8, 8, seed=31, grid=grid, model=model015
        )
        assert mc.trials == 8
        assert math.isfinite(mc.std_err)
        assert 0.0 <= mc.boundary_fraction <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bp.mc_standard_error("telescope", 0.15, 1000, 0.1, 10, seed=0)
        with pytest.raises(ValueError):
            bp.mc_standard_error("spade", 0.15, 1000, 0.1, 1, seed=0)
