import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bispade import (
    SchmidtModel,
    fi_closed_form,
    gamma_from_physical,
    schmidt_coeff,
    schmidt_number,
)

gammas = st.floats(0.02, 5.0)


class TestGammaFromPhysical:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="pump_waist must be"):
            gamma_from_physical(pump_waist=0.0, crystal_length=1e-3, pump_wavelength=405e-9)
        with pytest.raises(ValueError, match="crystal_length must be"):
            gamma_from_physical(pump_waist=40e-6, crystal_length=-1e-3, pump_wavelength=405e-9)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), True, "40e-6", None])
    def test_rejects_non_finite_and_bool_naming_the_parameter(self, bad):
        with pytest.raises(ValueError, match="pump_waist must be a finite positive number"):
            gamma_from_physical(pump_waist=bad, crystal_length=1e-3, pump_wavelength=405e-9)
        with pytest.raises(ValueError, match="crystal_length must be a finite positive number"):
            gamma_from_physical(pump_waist=40e-6, crystal_length=bad, pump_wavelength=405e-9)
        with pytest.raises(ValueError, match="pump_wavelength must be a finite positive number"):
            gamma_from_physical(pump_waist=40e-6, crystal_length=1e-3, pump_wavelength=bad)

    def test_accepts_numpy_scalars(self):
        gamma = gamma_from_physical(np.float32(1e-4), np.int64(1), np.float64(405e-9))
        assert gamma == pytest.approx(
            gamma_from_physical(float(np.float32(1e-4)), 1.0, 405e-9), rel=1e-15
        )

    def test_experimental_setting(self):
        gamma = gamma_from_physical(pump_waist=40e-6, crystal_length=0.5e-3,
                                    pump_wavelength=405e-9)
        assert gamma == pytest.approx(0.142, abs=5e-4)
        # rounds to the quoted 0.15 setting
        assert 0.13 < gamma < 0.16

    def test_wide_pump_limit(self):
        assert gamma_from_physical(1.0, 0.5e-3, 405e-9) < 1e-3

    def test_hand_evaluated_value(self):
        assert gamma_from_physical(20e-6, 1e-3, 405e-9) == pytest.approx(
            0.40142792613437345, rel=1e-12
        )


class TestSchmidtCoeff:
    @given(m=st.integers(0, 20), n=st.integers(0, 20))
    @settings(max_examples=40)
    def test_separable_limit(self, m, n):
        expected = 1.0 if m == n == 0 else 0.0
        assert schmidt_coeff(m, n, 1.0) == expected

    def test_unit_mass(self):
        m = np.arange(201)
        c = schmidt_coeff(m[:, None], m[None, :], 0.15)
        assert np.sum(c * c) == pytest.approx(1.0, abs=1e-10)

    def test_fundamental_value(self):
        assert schmidt_coeff(0, 0, 0.15) == pytest.approx(0.4536862003780719, rel=1e-12)

    @given(m=st.integers(0, 30), n=st.integers(0, 30), gamma=gammas)
    @settings(max_examples=60)
    def test_symmetric_in_indices(self, m, n, gamma):
        assert schmidt_coeff(m, n, gamma) == schmidt_coeff(n, m, gamma)

    def test_monotone_in_total_order(self):
        values = [schmidt_coeff(m, 0, 0.3) for m in range(30)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            schmidt_coeff(-1, 0, 0.15)

    @pytest.mark.parametrize("m, n", [(1.5, 0), (True, 0), (0, 2.0), (np.array([1.0, 2.0]), 0),
                                      (np.arange(3), np.zeros(3))])
    def test_rejects_non_integer_indices(self, m, n):
        with pytest.raises(ValueError, match="mode indices must be integers, got m="):
            schmidt_coeff(m, n, 0.15)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rejects_a_list_that_holds_a_bool(self, flag):
        # numpy reads [True, 2] as int64, so a list is checked item by item
        with pytest.raises(ValueError, match=re.escape(
                f"mode indices must be integers, got m=[{flag!r}, 2], n=0")):
            schmidt_coeff([flag, 2], 0, 0.15)
        with pytest.raises(ValueError, match=re.escape(
                f"mode indices must be integers, got k=[{flag!r}, 0], l=[0, 0]")):
            fi_closed_form([flag, 0], [0, 0], 0.15, "up")

    def test_integer_lists_are_the_integer_arrays(self):
        for m in ([1, 2], (1, np.int64(2)), [[1], [2]]):
            np.testing.assert_array_equal(schmidt_coeff(m, 0, 0.15),
                                          schmidt_coeff(np.array(m), 0, 0.15))
        assert fi_closed_form([1, 0], [0, 0], 0.15, "up").tolist() == [
            fi_closed_form(1, 0, 0.15, "up"), fi_closed_form(0, 0, 0.15, "up")]

    def test_accepts_integer_dtype_arrays(self):
        m = np.arange(5, dtype=np.int32)
        expected = [schmidt_coeff(k, 1, 0.15) for k in range(5)]
        assert schmidt_coeff(m, np.uint8(1), 0.15).tolist() == expected

    def test_small_dtypes_do_not_wrap(self):
        # 200 + 100 in uint8 is 44
        wide = schmidt_coeff(np.array([200], np.uint8), np.array([100], np.uint8), 0.15)
        assert wide.tolist() == [schmidt_coeff(200, 100, 0.15)]
        assert schmidt_coeff(200, 100, 0.15) == pytest.approx(1.8753450128817697e-40, rel=1e-12)

    @pytest.mark.parametrize("m, n, named", [
        (np.array([2**64 - 1], np.uint64), 0, "at most 2\\*\\*63 - 1, got m=18446744073709551615"),
        (0, np.array([[1, 2], [-4, 0]]), "non-negative, got n=-4"),
        (2**70, 0, "at most 2\\*\\*63 - 1, got m=1180591620717411303424"),
        (0, -2**70, "non-negative, got n=-1180591620717411303424"),
    ], ids=["uint64-max", "negative-n", "past-2**64", "below-minus-2**64"])
    def test_rejects_indices_out_of_range_by_value(self, m, n, named):
        with pytest.raises(ValueError, match=f"^mode indices must be {named}$"):
            schmidt_coeff(m, n, 0.15)

    def test_huge_indices_underflow_without_overflow(self):
        # 2**62 + 2**62 is past int64; a coefficient is at most 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert schmidt_coeff(2**62, 2**62, 0.15) == 0.0

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            schmidt_coeff(0, 0, 0.0)
        with pytest.raises(ValueError):
            schmidt_coeff(0, 0, -2.0)


class TestSchmidtNumber:
    def test_separable(self):
        assert schmidt_number(1.0) == 1.0

    def test_experimental_value(self):
        assert schmidt_number(0.15) == pytest.approx(11.616736111111113, rel=1e-12)
        assert 11.55 <= schmidt_number(0.15) <= 11.70

    def test_matches_purity_oracle(self):
        m = np.arange(301)
        c = schmidt_coeff(m[:, None], m[None, :], 0.15)
        purity = float(np.sum(c ** 4))
        assert schmidt_number(0.15) == pytest.approx(1.0 / purity, rel=1e-8)

    @given(gamma=gammas)
    @settings(max_examples=60)
    def test_inversion_symmetry(self, gamma):
        assert schmidt_number(gamma) == pytest.approx(schmidt_number(1.0 / gamma), rel=1e-12)

    @given(gamma=gammas)
    @settings(max_examples=60)
    def test_at_least_one(self, gamma):
        assert schmidt_number(gamma) >= 1.0


class TestSchmidtModel:
    def test_from_gamma_fields(self):
        model = SchmidtModel.from_gamma(0.15)
        assert model == SchmidtModel(0.15)
        assert [f.name for f in dataclasses.fields(model)] == ["gamma"]
        # K has one public way, schmidt_number(gamma)
        assert not hasattr(model, "schmidt_number")

    @pytest.mark.parametrize("gamma", [0.0, -0.15, float("nan"), float("inf"), "0.15", None])
    def test_direct_construction_is_validated(self, gamma):
        with pytest.raises(ValueError, match="gamma must be"):
            SchmidtModel(gamma)
        with pytest.raises(ValueError, match="gamma must be"):
            SchmidtModel.from_gamma(gamma)

    def test_gamma_is_stored_as_float(self):
        for gamma in (1, np.float64(0.5), np.float32(0.15), np.int64(1), np.int32(2)):
            model = SchmidtModel.from_gamma(gamma)
            assert type(model.gamma) is float and model.gamma == float(gamma)

    def test_numpy_scalars_compute_in_float64(self):
        gamma = np.float32(0.15)
        assert schmidt_number(gamma) == schmidt_number(float(gamma))
        assert type(schmidt_number(gamma)) is float
        assert schmidt_coeff(1, 2, gamma) == schmidt_coeff(1, 2, float(gamma))

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_bool_is_not_a_gamma(self, flag):
        with pytest.raises(ValueError, match="gamma must be"):
            SchmidtModel.from_gamma(flag)
        with pytest.raises(ValueError, match="gamma must be"):
            schmidt_number(flag)
