import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bispade import (
    CalibrationModel,
    ModeSpace,
    NumericalError,
    PixelGrid,
    ProbabilityMatrix,
    SchmidtModel,
    apply_calibration,
    coincidence_prob,
    direct_forward,
    fit_calibration,
    pixel_probs,
    prob_matrix,
    quad_overlap,
    schmidt_coeff,
    small_sep_prob,
    spade_forward,
    CountMatrix,
)
from oracles import riemann_pixel_probs, scalar_overlap


def _entrywise_matrix(d, space, model):
    # C_{k',l}^2 delta_{l,l'} |<k|k',d>|^2 from the scalar overlap formula
    return np.array([
        [schmidt_coeff(kp, lp, model.gamma) ** 2 * scalar_overlap(k, kp, d) ** 2 if l == lp
         else 0.0 for kp, lp in space.signal]
        for k, l in space.idler
    ])


_pairs = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 2)), min_size=1, max_size=12, unique=True
)


class TestModeSpace:
    def test_default_seven_by_seven(self, space7):
        assert space7.shape == (7, 7)
        assert space7.idler == tuple((k, 0) for k in range(7))
        assert space7.idler == space7.signal

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ModeSpace(idler=((0, 0), (0, 0)), signal=((0, 0),))

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            ModeSpace(idler=((0, -1),), signal=((0, 0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ModeSpace(idler=(), signal=((0, 0),))

    @pytest.mark.parametrize("pair", [(1.5, 0), (0, 2.0), (True, 0)])
    def test_rejects_non_integer_indices(self, pair):
        # named, not truncated to an integer mode
        with pytest.raises(ValueError, match=f"idler mode indices must be integers, got "
                                             f"{re.escape(repr(pair))}"):
            ModeSpace(idler=(pair,), signal=((0, 0),))

    def test_accepts_numpy_integers(self):
        space = ModeSpace(idler=((np.int64(1), np.int32(0)),), signal=((0, 0),))
        assert space.idler == ((1, 0),) and type(space.idler[0][0]) is int

    @pytest.mark.parametrize("pair", [(0, -1), (-1, 0), (2**63, 0), (0, 2**70)])
    def test_rejects_indices_out_of_range_by_value(self, pair):
        with pytest.raises(ValueError, match=re.escape(
                f"idler mode indices must be in [0, 2**63 - 1], got {pair!r}")):
            ModeSpace(idler=(pair,), signal=((0, 0),))

    @pytest.mark.parametrize("max_k, max_l", [(2.5, 0), (2, 1.0), (True, 0)])
    def test_grid_rejects_non_integer_bounds_by_value(self, max_k, max_l):
        with pytest.raises(ValueError, match=f"^mode indices must be integers, "
                                             f"got max_k={max_k!r}, max_l={max_l!r}$"):
            ModeSpace.grid(max_k, max_l)

    @pytest.mark.parametrize("max_k, max_l, named", [
        (-1, 0, "non-negative, got max_k=-1"),
        (0, -1, "non-negative, got max_l=-1"),
        (2**63, 0, "at most 2\\*\\*63 - 1, got max_k=9223372036854775808"),
    ], ids=["negative-k", "negative-l", "2**63"])
    def test_grid_rejects_bounds_out_of_range_by_value(self, monkeypatch, max_k, max_l, named):
        # the bounds are checked before the pairs are listed: 2**63 + 1 of them
        # would fill the memory
        def refuse(*args):
            raise AssertionError("the grid listed its pairs")

        monkeypatch.setattr("bispade.model.range", refuse, raising=False)
        with pytest.raises(ValueError, match=f"^mode indices must be {named}$"):
            ModeSpace.grid(max_k, max_l)


class TestCoincidenceProb:
    def test_zero_separation_off_diagonal_vanishes(self, model015):
        for k in range(5):
            for kp in range(5):
                if k != kp:
                    assert coincidence_prob(k, 0, kp, 0, 0.0, model015) == 0.0

    def test_zero_separation_diagonal_is_coeff_squared(self, model015):
        for k in range(5):
            expected = schmidt_coeff(k, 0, 0.15) ** 2
            assert coincidence_prob(k, 0, k, 0, 0.0, model015) == pytest.approx(
                expected, rel=1e-14
            )

    def test_matches_quadrature_substitution(self, model015):
        # same formula with the brute-force overlap oracle in place of the closed form
        k, l, kp, lp, d = 0, 0, 1, 0, 0.2
        c = schmidt_coeff(kp, l, model015.gamma)
        brute = 0.5 * c * c * (quad_overlap(k, kp, -d) ** 2 + quad_overlap(k, kp, d) ** 2)
        assert coincidence_prob(k, l, kp, lp, d, model015) == pytest.approx(brute, abs=1e-10)

    @given(
        k=st.integers(0, 6),
        l=st.integers(0, 3),
        kp=st.integers(0, 6),
        lp=st.integers(0, 3),
        d=st.floats(0.0, 2.0),
    )
    @settings(max_examples=60)
    def test_selection_rule(self, model015, k, l, kp, lp, d):
        if l != lp:
            assert coincidence_prob(k, l, kp, lp, d, model015) == 0.0

    def test_rejects_negative_indices(self, model015):
        with pytest.raises(ValueError):
            coincidence_prob(-1, 0, 0, 0, 0.1, model015)

    def test_overflowing_overlap_signals(self, model015):
        with pytest.raises(NumericalError, match="overflows"):
            coincidence_prob(550, 0, 1100, 0, 1.0, model015)

    @given(k=st.integers(0, 5), kp=st.integers(0, 5), d=st.floats(0.05, 1.5))
    @settings(max_examples=40)
    def test_factorizes_over_l(self, model015, k, kp, d):
        # swapping in a higher l=l' rescales by the coefficient ratio only
        base = coincidence_prob(k, 0, kp, 0, d, model015)
        lifted = coincidence_prob(k, 1, kp, 1, d, model015)
        ratio = (schmidt_coeff(kp, 1, 0.15) / schmidt_coeff(kp, 0, 0.15)) ** 2
        assert lifted == pytest.approx(base * ratio, rel=1e-12, abs=1e-18)

    @given(k=st.integers(0, 6), kp=st.integers(0, 6), d=st.floats(0.05, 1.5))
    @settings(max_examples=40)
    def test_depends_on_k_only_through_overlaps(self, model015, k, kp, d):
        # dividing out the coefficient leaves a quantity symmetric in (k, k')
        forward = coincidence_prob(k, 0, kp, 0, d, model015) / schmidt_coeff(kp, 0, 0.15) ** 2
        swapped = coincidence_prob(kp, 0, k, 0, d, model015) / schmidt_coeff(k, 0, 0.15) ** 2
        assert forward == pytest.approx(swapped, rel=1e-12, abs=1e-18)


class TestSmallSepProb:
    def test_zero_separation(self, model015):
        for k in range(4):
            for kp in range(4):
                value = small_sep_prob(k, 0, kp, 0, 0.0, model015)
                if k == kp:
                    assert value == pytest.approx(schmidt_coeff(k, 0, 0.15) ** 2, rel=1e-14)
                else:
                    assert value == 0.0

    def test_neighbour_branch_tracks_exact(self, model015):
        for d in (0.01, 0.05, 0.1, 0.2):
            exact = coincidence_prob(1, 0, 0, 0, d, model015)
            approx = small_sep_prob(1, 0, 0, 0, d, model015)
            assert abs(approx - exact) < 2.0 * d ** 4

    def test_error_is_fourth_order(self, model015):
        # absolute error O(d^4) on diagonal and both neighbour branches
        for k, kp in ((0, 0), (2, 2), (0, 1), (1, 0), (3, 4)):
            errs = {}
            for d in (0.2, 0.02):
                errs[d] = abs(
                    small_sep_prob(k, 0, kp, 0, d, model015)
                    - coincidence_prob(k, 0, kp, 0, d, model015)
                )
            assert errs[0.02] <= errs[0.2] * 1e-4 * 2.0 + 1e-18

    def test_relative_error_slope_near_two(self, model015):
        ds = np.logspace(-3, -1, 7)
        rel = []
        for d in ds:
            worst = 0.0
            for k in range(7):
                for kp in range(7):
                    if abs(k - kp) > 1:
                        continue
                    exact = coincidence_prob(k, 0, kp, 0, float(d), model015)
                    approx = small_sep_prob(k, 0, kp, 0, float(d), model015)
                    worst = max(worst, abs(approx - exact) / exact)
            rel.append(worst)
        slope = np.polyfit(np.log(ds), np.log(rel), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_azimuthal_mismatch_is_zero(self, model015):
        # only the x axis is displaced, so l != l' is forbidden at every order
        for k, kp in ((0, 0), (1, 0), (2, 3)):
            assert small_sep_prob(k, 0, kp, 1, 0.3, model015) == 0.0
            assert small_sep_prob(k, 2, kp, 1, 0.3, model015) == 0.0

    @pytest.mark.parametrize("indices", [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0),
                                         (0, 0, 0, -1)])
    def test_negative_index_rejected(self, model015, indices):
        with pytest.raises(ValueError, match=re.escape("must be in [0, 2**63 - 1], got")):
            small_sep_prob(*indices, 0.1, model015)


class TestProbMatrix:
    def test_zero_separation_diagonal(self, model015, space7):
        pm = prob_matrix(0.0, space7, model015, renormalize=True)
        off = pm.entries - np.diag(np.diag(pm.entries))
        assert np.all(off == 0.0)
        diag = np.diag(pm.entries)
        coeffs = np.array([schmidt_coeff(k, 0, 0.15) ** 2 for k in range(7)])
        np.testing.assert_allclose(diag, coeffs / coeffs.sum(), rtol=1e-12)

    def test_renormalized_sums_to_one(self, model015, space7):
        for d in (0.0, 0.3, 0.93, 1.35):
            pm = prob_matrix(d, space7, model015, renormalize=True)
            assert pm.entries.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pm.entries >= 0.0)

    def test_unrenormalized_mass_at_most_one(self, model015, space7):
        for d in np.linspace(0.0, 1.35, 16):
            pm = prob_matrix(float(d), space7, model015, renormalize=False)
            assert pm.entries.sum() <= 1.0 + 1e-12
            assert pm.in_space_mass == pytest.approx(pm.entries.sum(), rel=1e-14)

    def test_even_in_separation(self, model015, space7):
        plus = prob_matrix(0.47, space7, model015, renormalize=False).entries
        minus = prob_matrix(-0.47, space7, model015, renormalize=False).entries
        np.testing.assert_allclose(plus, minus, rtol=1e-12, atol=1e-18)

    def test_off_diagonal_mass_grows_with_separation(self, model015, space7):
        masses = []
        for d in np.linspace(0.0, 0.93, 5):
            pm = prob_matrix(float(d), space7, model015, renormalize=True)
            masses.append(pm.entries.sum() - np.trace(pm.entries))
        assert all(b > a for a, b in zip(masses, masses[1:]))

    def test_selection_rule_entries_zero(self, model015):
        space = ModeSpace.grid(max_k=2, max_l=2)
        pm = prob_matrix(0.4, space, model015, renormalize=False)
        for i, (k, l) in enumerate(space.idler):
            for j, (kp, lp) in enumerate(space.signal):
                if l != lp:
                    assert pm.entries[i, j] == 0.0

    @given(
        idler=_pairs,
        signal=_pairs,
        d=st.floats(0.0, 3.0),
        gamma=st.sampled_from([0.07, 0.15, 1.0, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_entrywise_coincidence_prob(self, idler, signal, d, gamma):
        # absolute tolerance only: entries below 1e-12 lose relative accuracy at d = 3
        space = ModeSpace(idler=tuple(idler), signal=tuple(signal))
        model = SchmidtModel.from_gamma(gamma)
        pm = prob_matrix(d, space, model, renormalize=False)
        np.testing.assert_allclose(
            pm.entries, _entrywise_matrix(d, space, model), rtol=0.0, atol=1e-14
        )

    def test_accurate_at_many_modes_and_large_separation(self):
        # slowly decaying coefficients expose any loss of accuracy in the
        # high-order overlaps, which grows with mode order times separation
        space = ModeSpace.grid(max_k=100)
        model = SchmidtModel.from_gamma(0.002)
        pm = prob_matrix(3.0, space, model, renormalize=False)
        np.testing.assert_allclose(
            pm.entries, _entrywise_matrix(3.0, space, model), rtol=0.0, atol=1e-16
        )

    def test_degenerate_space_signals(self, model015):
        space = ModeSpace(idler=((200, 200),), signal=((200, 200),))
        with pytest.raises(NumericalError):
            prob_matrix(0.0, space, model015, renormalize=True)

    @pytest.mark.parametrize("call, named", [
        (lambda m: prob_matrix(0.1, ModeSpace(((2**63, 0),), ((0, 0),)), m), "idler"),
        (lambda m: coincidence_prob(0, 0, 2**63, 0, 0.1, m), "signal"),
        (lambda m: small_sep_prob(0, 2**63, 0, 0, 0.1, m), "idler"),
    ], ids=["prob_matrix", "coincidence_prob", "small_sep_prob"])
    def test_orders_past_int64_fail_before_any_table(self, model015, no_overlap_table, call,
                                                     named):
        with pytest.raises(ValueError, match=re.escape(f"{named} mode indices must be in ")):
            call(model015)

    def test_order_within_rounding_of_2_63_is_a_numerical_error(self, model015,
                                                                no_overlap_layout):
        space = ModeSpace(((2**63 - 1, 0),), ((0, 0),))
        with pytest.raises(NumericalError, match="is too large"):
            prob_matrix(0.1, space, model015)

    def test_entries_must_fill_the_space(self, space7):
        with pytest.raises(ValueError, match="^entries shape does not match the mode space$"):
            ProbabilityMatrix(space7, np.zeros((7, 6)), 0.1, 1.0)

    @pytest.mark.parametrize("renormalize", [True, False])
    def test_overflowing_table_signals(self, model015, renormalize):
        # Laguerre values of order ~1000 overflow float64; the failure must be
        # an error (with no RuntimeWarning), not a matrix of nan
        space = ModeSpace(idler=((0, 0), (1100, 0)), signal=((0, 0), (3, 0)))
        with pytest.raises(NumericalError, match="overflows"):
            prob_matrix(1.0, space, model015, renormalize=renormalize)


class TestCalibration:
    def test_identity_is_noop(self, model015, space7):
        pm = prob_matrix(0.4, space7, model015, renormalize=True)
        cal = CalibrationModel(alpha=np.ones(space7.shape), beta=np.zeros(space7.shape))
        out = apply_calibration(pm, cal)
        np.testing.assert_allclose(out.entries, pm.entries, rtol=1e-14)

    def test_uniform_scale_cancels(self, model015, space7):
        pm = prob_matrix(0.4, space7, model015, renormalize=True)
        cal = CalibrationModel(alpha=np.full(space7.shape, 0.5), beta=np.zeros(space7.shape))
        out = apply_calibration(pm, cal)
        np.testing.assert_allclose(out.entries, pm.entries, rtol=1e-14)

    def test_keeps_the_in_space_mass(self, model015, space7):
        # a detector correction does not move the model's mass inside the space;
        # the sum of alpha*p + beta (1.29 here) is no mass
        pm = prob_matrix(0.3, space7, model015)
        cal = CalibrationModel(alpha=np.full(space7.shape, 0.8), beta=np.full(space7.shape, 0.01))
        out = apply_calibration(pm, cal)
        assert pm.in_space_mass == pytest.approx(0.4455, abs=1e-4)
        assert out.in_space_mass == pm.in_space_mass

    def test_all_zero_signals(self, model015, space7):
        pm = prob_matrix(0.4, space7, model015, renormalize=True)
        cal = CalibrationModel(alpha=np.zeros(space7.shape), beta=np.zeros(space7.shape))
        with pytest.raises(NumericalError):
            apply_calibration(pm, cal)

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan),
                                             (-np.inf, 0.0)])
    def test_rejects_entries_that_are_not_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="^calibration entries must be finite$"):
            CalibrationModel(alpha=np.full((2, 2), alpha), beta=np.full((2, 2), beta))

    def test_shape_must_match_the_matrix(self, model015, space7):
        pm = prob_matrix(0.4, space7, model015)
        cal = CalibrationModel(alpha=np.ones((6, 6)), beta=np.zeros((6, 6)))
        with pytest.raises(ValueError, match="^calibration shape does not match the probability "
                                             "matrix$"):
            apply_calibration(pm, cal)

    def test_validation(self):
        with pytest.raises(ValueError):
            CalibrationModel(alpha=-np.ones((2, 2)), beta=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            CalibrationModel(alpha=np.ones((2, 2)), beta=2.0 * np.ones((2, 2)))
        with pytest.raises(ValueError):
            CalibrationModel(alpha=np.ones((2, 2)), beta=np.zeros((3, 3)))

    def test_round_trip_with_fitted_calibration(self, model015, space7):
        # noiseless synthetic data: fitted transform reproduces the generator
        true_cal = CalibrationModel(
            alpha=np.full(space7.shape, 0.8), beta=np.full(space7.shape, 0.01)
        )
        seps = [0.1, 0.3, 0.5, 0.7, 0.9, 1.1]
        forward = spade_forward(model015, space7)
        datasets = []
        for d in seps:
            generated = apply_calibration(
                prob_matrix(d, space7, model015, renormalize=True), true_cal
            )
            counts = np.round(generated.entries * 1e9).astype(np.int64)
            datasets.append((d, CountMatrix(counts)))
        fitted = fit_calibration(datasets, forward)
        for d in (0.2, 0.8):
            target = apply_calibration(
                prob_matrix(d, space7, model015, renormalize=True), true_cal
            ).entries
            reproduced = apply_calibration(
                prob_matrix(d, space7, model015, renormalize=True), fitted
            ).entries
            np.testing.assert_allclose(reproduced, target, atol=1e-6)


class TestMarginalIntensity:
    """The direct-imaging marginal intensity, checked through its exact pixel masses."""

    def test_separable_limit_equals_gaussian(self, model_gauss):
        # at gamma = 1 the reduced single-arm state is the fundamental mode
        grid = PixelGrid()
        d = np.linspace(0.0, 1.5, 7)
        spdc = direct_forward(model_gauss, grid, "spdc")(d)
        gauss = direct_forward(model_gauss, grid, "gaussian")(d)
        np.testing.assert_allclose(spdc, gauss, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "spdc"])
    @pytest.mark.parametrize("d", [0.0, 0.7, 1.35])
    def test_unit_mass(self, model015, kind, d):
        # the +-d mixture is even in x, so a unit-mass intensity puts exactly one
        # half on the positive half-line; one pixel keeps the total below one, so
        # no renormalization can hide a wrong scale
        vec = pixel_probs(d, PixelGrid(count=1, span=(0.0, 14.0)), model015, kind)
        assert vec[0] == pytest.approx(0.5, abs=1e-12)

    def test_mirror_symmetric(self, model015):
        # the pixel vector of an even intensity reads the same reversed
        for kind in ("gaussian", "spdc"):
            for d in (0.3, 1.35):
                vec = pixel_probs(d, PixelGrid(), model015, kind)[:-1]
                np.testing.assert_allclose(vec, vec[::-1], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("gamma", [0.07, 0.15, 1.0])
    @pytest.mark.parametrize("d", [0.0, 0.3, 1.0])
    def test_matches_mode_sum(self, gamma, d):
        # fine 0.12-wide pixels against the binned truncated mode sum
        model = SchmidtModel.from_gamma(gamma)
        grid = PixelGrid(count=100, span=(-6.0, 6.0))
        for kind in ("gaussian", "spdc"):
            vec = pixel_probs(d, grid, model, kind)
            brute = riemann_pixel_probs(d, grid, model, kind)
            np.testing.assert_allclose(vec, brute, rtol=0.0, atol=1e-6)

    def test_rejects_unknown_kind(self, model015):
        with pytest.raises(ValueError, match="unknown PSF kind"):
            pixel_probs(0.1, PixelGrid(), model015, "lorentzian")
        with pytest.raises(ValueError, match="unknown PSF kind"):
            direct_forward(model015, PixelGrid(), "lorentzian")(0.1)


class TestPixelProbs:
    def test_vector_sums_to_one(self, model015):
        grid = PixelGrid()
        for kind in ("gaussian", "spdc"):
            for d in (0.0, 0.5, 1.35):
                vec = pixel_probs(d, grid, model015, kind)
                assert len(vec) == grid.count + 1
                assert vec.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(vec >= 0.0)

    def test_centered_and_symmetric_at_zero(self, model015):
        grid = PixelGrid()
        vec = pixel_probs(0.0, grid, model015, "gaussian")[:-1]
        np.testing.assert_allclose(vec, vec[::-1], rtol=1e-10)
        assert np.argmax(vec) in (grid.count // 2 - 1, grid.count // 2)

    @pytest.mark.parametrize("kind", ["gaussian", "spdc"])
    def test_matches_riemann_oracle(self, kind):
        grid = PixelGrid()
        for gamma in (0.07, 0.15, 1.0):
            model = SchmidtModel.from_gamma(gamma)
            for d in (0.0, 0.7):
                vec = pixel_probs(d, grid, model, kind)
                brute = riemann_pixel_probs(d, grid, model, kind)
                assert np.max(np.abs(vec - brute)) < 1e-6

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            PixelGrid(count=0)
        with pytest.raises(ValueError):
            PixelGrid(span=(2.0, -2.0))

    @pytest.mark.parametrize("count", [2.5, True, 0])
    def test_grid_rejects_a_count_that_is_no_pixel_number(self, count):
        with pytest.raises(ValueError, match=f"^pixel count must be an integer of at least 1, "
                                             f"got {count}$"):
            PixelGrid(count=count)

    @pytest.mark.parametrize("span", [(-np.inf, np.inf), (np.nan, 1.0), (-1e308, 1e308)])
    def test_grid_rejects_a_span_that_is_not_finite(self, span):
        with pytest.raises(ValueError, match="^span ends and width must be finite, got"):
            PixelGrid(span=span)

    @pytest.mark.parametrize("d", [np.nan, np.inf, -np.inf])
    def test_non_finite_separations_are_rejected_by_value(self, model015, space7, d):
        message = f"^separations must be finite, got {d!r}$"
        with pytest.raises(ValueError, match=message):
            prob_matrix(d, space7, model015)
        with pytest.raises(ValueError, match=message):
            pixel_probs(d, PixelGrid(), model015)

    def test_default_span_leakage_is_small(self, model015):
        # the default span keeps the Gaussian residual below 1e-4 even at the
        # largest experimental separation
        residual = pixel_probs(1.35, PixelGrid(), model015, "gaussian")[-1]
        assert 0.0 <= residual < 1e-4
