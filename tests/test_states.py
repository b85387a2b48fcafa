import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycs import stats
from polycs.algebra import higgs_su2, higgs_su11, linear_su2, linear_su11
from polycs.errors import DomainError
from polycs.states import (
    CoefficientVector,
    CSFamily,
    CSSpec,
    apply_lowering,
    apply_raising,
    bg_eigen_residual,
    coefficients,
    cs_from_xbar,
    normalization,
)
from polycs.verify import _draw_cs

LABELS = (0.5, 1.0, 3.0, 8.0)


def basis_vector(n, size):
    arr = np.zeros(size, dtype=complex)
    arr[n] = 1.0
    return CoefficientVector(arr, size - 1, 0.0)


class TestCSSpec:
    def test_family_kind_mismatch(self):
        with pytest.raises(DomainError):
            CSSpec(CSFamily.SU2_PCS, linear_su11(1.0), 0.5)

    def test_linear_noncompact_pcs_needs_small_z(self):
        with pytest.raises(DomainError):
            CSSpec(CSFamily.SU11_PCS, linear_su11(1.0), 1.0)

    @pytest.mark.parametrize(
        "amplitude", [math.nan, math.inf, complex(0.0, math.nan), 1e200],
        ids=["nan", "inf", "imag-nan", "square-overflows"],
    )
    @pytest.mark.parametrize("family", list(CSFamily), ids=lambda f: f.value)
    def test_non_finite_xbar_rejected(self, family, amplitude):
        deformation = linear_su2(1.0) if family is CSFamily.SU2_PCS else higgs_su11(1.0)
        with pytest.raises(DomainError, match="xbar must be finite"):
            CSSpec(family, deformation, amplitude)
        with pytest.raises(DomainError, match="xbar must be finite"):
            cs_from_xbar(family, deformation, math.nan)

    def test_series_variable_mapping(self):
        # x = c_p |zeta|^2, y = |xi|^2 / c_p, z = |eta|^2 / c_p
        assert CSSpec(CSFamily.SU2_PCS, higgs_su2(1.0), 1.5).xbar == pytest.approx(4.5)
        assert CSSpec(CSFamily.SU11_BGCS, higgs_su11(1.0), 2.0).xbar == pytest.approx(2.0)
        assert CSSpec(CSFamily.SU11_PCS, higgs_su11(1.0), 1.0).xbar == pytest.approx(0.5)

    def test_cs_from_xbar_round_trip(self):
        for family, deformation in (
            (CSFamily.SU2_PCS, higgs_su2(3.0)),
            (CSFamily.SU11_BGCS, higgs_su11(0.5)),
            (CSFamily.SU11_PCS, linear_su11(1.0)),
        ):
            spec = cs_from_xbar(family, deformation, 0.7)
            assert spec.xbar == pytest.approx(0.7)


class TestNormalization:
    def test_higgs_two_level(self):
        spec = cs_from_xbar(CSFamily.SU2_PCS, higgs_su2(0.5), 1.0)
        assert normalization(spec) == pytest.approx(2.0, rel=1e-14)

    def test_linear_su2_binomial(self):
        spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(1.0), 1.0)
        assert normalization(spec) == pytest.approx(4.0, rel=1e-14)

    def test_zero_amplitude(self):
        for family, deformation in (
            (CSFamily.SU2_PCS, higgs_su2(1.0)),
            (CSFamily.SU11_BGCS, higgs_su11(1.0)),
            (CSFamily.SU11_PCS, higgs_su11(1.0)),
        ):
            assert normalization(CSSpec(family, deformation, 0.0)) == 1.0

    def test_duality_against_coefficient_sum(self):
        """The hypergeometric normalization equals the direct sum of squared
        unnormalized coefficients.  The recurrence starts at c_0 = 1, so the
        sum is 1/|c_0|^2 of the normalized vector."""
        rng = np.random.default_rng(7)
        for family in CSFamily:
            for _ in range(10):
                spec = _draw_cs(rng, family)
                direct = 1.0 / abs(coefficients(spec, eps=1e-14).coeffs[0]) ** 2
                closed = normalization(spec)
                assert closed == pytest.approx(direct, rel=1e-9)


class TestCoefficients:
    def test_higgs_two_level_values(self):
        spec = CSSpec(CSFamily.SU2_PCS, higgs_su2(0.5), 1.0)
        vec = coefficients(spec)
        assert vec.coeffs.shape == (2,)
        assert vec.coeffs[0] == pytest.approx(1 / math.sqrt(3))
        assert vec.coeffs[1] == pytest.approx(math.sqrt(2) / math.sqrt(3))
        assert vec.tail_bound == 0.0

    def test_zero_amplitude(self):
        for family, deformation in (
            (CSFamily.SU2_PCS, higgs_su2(1.0)),
            (CSFamily.SU11_BGCS, higgs_su11(1.0)),
            (CSFamily.SU11_PCS, higgs_su11(1.0)),
        ):
            vec = coefficients(CSSpec(family, deformation, 0.0))
            assert vec.coeffs[0] == 1.0
            assert np.all(vec.coeffs[1:] == 0.0)

    def test_compact_truncation_is_two_j(self):
        for j in LABELS:
            spec = CSSpec(CSFamily.SU2_PCS, higgs_su2(j), 0.8 + 0.2j)
            vec = coefficients(spec)
            assert vec.truncation == int(2 * j)
            assert vec.coeffs.size == int(2 * j) + 1

    def test_bgcs_linear_double_factorial(self):
        # at k = 1/2 the weights are 1/n!: c_n proportional to 1/n!
        spec = CSSpec(CSFamily.SU11_BGCS, linear_su11(0.5), 1.0)
        vec = coefficients(spec, eps=1e-14)
        for n in range(min(6, vec.coeffs.size - 1)):
            expected = vec.coeffs[0] / math.factorial(n)
            assert vec.coeffs[n] == pytest.approx(expected, rel=1e-12)

    def test_normalized(self):
        rng = np.random.default_rng(11)
        for family in CSFamily:
            for _ in range(5):
                vec = coefficients(_draw_cs(rng, family))
                assert np.sum(np.abs(vec.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_phase_carried_exactly(self):
        phase = complex(math.cos(1.1), math.sin(1.1))
        spec = CSSpec(CSFamily.SU11_BGCS, linear_su11(1.0), 1.3 * phase)
        vec = coefficients(spec)
        for n in range(min(5, vec.coeffs.size)):
            expected_phase = phase**n
            got = vec.coeffs[n] / abs(vec.coeffs[n])
            assert got == pytest.approx(expected_phase, rel=1e-12)

    def test_compact_rescaling_keeps_large_towers(self):
        # without rescaling the j = 50 towers overflow and normalize to zero
        spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(50.0), 1e4)
        mean = stats.direct_moments(coefficients(spec))[0]
        assert mean == pytest.approx(100.0 * 1e4 / (1.0 + 1e4), rel=1e-12)
        spec = cs_from_xbar(CSFamily.SU2_PCS, higgs_su2(50.0), 10.0)
        vec = coefficients(spec)
        assert np.sum(np.abs(vec.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_tail_bound_controls_residual(self):
        spec = CSSpec(CSFamily.SU11_BGCS, higgs_su11(1.0), 2.0)
        vec = coefficients(spec, eps=1e-12)
        assert vec.tail_bound < 1e-9
        assert abs(vec.coeffs[-1]) <= vec.tail_bound

    @pytest.mark.parametrize("family", list(CSFamily))
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-12])
    def test_bad_eps_rejected(self, family, eps):
        deformation = higgs_su2(1.0) if family is CSFamily.SU2_PCS else higgs_su11(1.0)
        with pytest.raises(DomainError, match="eps must be finite"):
            coefficients(CSSpec(family, deformation, 0.5), eps=eps)

    def test_zero_eps_runs(self):
        # the recurrence runs until the trailing coefficient underflows to 0
        spec = CSSpec(CSFamily.SU11_BGCS, higgs_su11(1.0), 1.0)
        vec = coefficients(spec, eps=0.0)
        assert vec.coeffs[-1] == 0.0
        assert vec.truncation > coefficients(spec).truncation


class TestLadderMaps:
    def test_lowering_annihilates_ground(self):
        out = apply_lowering(higgs_su2(1.0), basis_vector(0, 3))
        assert np.all(out.coeffs == 0.0)

    def test_lowering_matrix_element(self):
        out = apply_lowering(higgs_su2(0.5), basis_vector(1, 2))
        assert out.coeffs[0] == pytest.approx(math.sqrt(2.0))

    def test_raising_matrix_element(self):
        out = apply_raising(higgs_su2(0.5), basis_vector(0, 2))
        assert out.coeffs[0] == 0.0
        assert out.coeffs[1] == pytest.approx(math.sqrt(2.0))

    def test_raising_top_state_is_zero(self):
        for j in LABELS:
            spec = higgs_su2(j)
            top = basis_vector(int(2 * j), int(2 * j) + 1)
            out = apply_raising(spec, top)
            assert np.all(out.coeffs == 0.0)

    def test_su11_linear_raising(self):
        out = apply_raising(linear_su11(0.5), basis_vector(0, 1))
        assert out.coeffs.size == 2
        assert out.coeffs[1] == pytest.approx(1.0)  # phi_1 = 1 at k = 1/2

    @given(scale=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, scale):
        spec = higgs_su11(1.0)
        vec = basis_vector(2, 4)
        scaled = CoefficientVector(scale * vec.coeffs, vec.truncation, 0.0)
        out_scaled = apply_lowering(spec, scaled)
        out_base = apply_lowering(spec, vec)
        assert np.allclose(out_scaled.coeffs, scale * out_base.coeffs)

    def test_commutator_on_basis(self):
        """[raise, lower] e_n = commutator_poly(diagonal) e_n, both kinds."""
        from polycs.algebra import commutator_poly, diagonal_eigenvalue

        for spec in (higgs_su2(3.0), linear_su2(1.0), higgs_su11(0.5), linear_su11(3.0)):
            dim = spec.dimension if spec.is_compact else 12
            for n in range(dim):
                e_n = basis_vector(n, dim)
                plus_minus = apply_raising(spec, apply_lowering(spec, e_n))
                minus_plus = apply_lowering(spec, apply_raising(spec, e_n))
                size = max(plus_minus.coeffs.size, minus_plus.coeffs.size, dim)
                pm = np.zeros(size, dtype=complex)
                pm[: plus_minus.coeffs.size] = plus_minus.coeffs
                mp = np.zeros(size, dtype=complex)
                mp[: minus_plus.coeffs.size] = minus_plus.coeffs
                diff = pm - mp
                expected = commutator_poly(spec, diagonal_eigenvalue(spec, n))
                assert abs(diff[n] - expected) < 1e-10 * max(abs(expected), 1.0)
                others = np.delete(diff, n)
                assert np.all(np.abs(others) < 1e-12)


class TestBGEigenResidual:
    def test_zero_amplitude(self):
        spec = CSSpec(CSFamily.SU11_BGCS, linear_su11(1.0), 0.0)
        assert bg_eigen_residual(spec) == 0.0

    def test_linear_small(self):
        spec = CSSpec(CSFamily.SU11_BGCS, linear_su11(1.0), 1.0)
        assert bg_eigen_residual(spec) < 1e-10

    def test_higgs_small(self):
        spec = CSSpec(CSFamily.SU11_BGCS, higgs_su11(0.5), 2.0)
        assert bg_eigen_residual(spec) < 1e-9

    def test_bounded_by_tail(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            spec = _draw_cs(rng, CSFamily.SU11_BGCS)
            vec = coefficients(spec, eps=1e-12)
            residual = bg_eigen_residual(spec)
            assert residual <= 10.0 * vec.tail_bound * (1.0 + abs(spec.amplitude))

    def test_wrong_family_rejected(self):
        spec = CSSpec(CSFamily.SU11_PCS, higgs_su11(1.0), 0.5)
        with pytest.raises(DomainError):
            bg_eigen_residual(spec)
