import math

import numpy as np
import pytest

from polycs.algebra import higgs_su2, higgs_su11, linear_su2, linear_su11
from polycs.errors import DomainError
from polycs.geometry import (
    LaplaceProbe,
    LoopSpec,
    berry_phase_loop,
    bg_series,
    connection_coefficient,
    gamma_quadrature_probe,
    laplace_check,
    overlap_derivative_fd,
    pcs_series_at_inverse,
)
from polycs.states import CSFamily, CSSpec

LABELS = (0.5, 1.0, 3.0, 8.0)


def normalized(values):
    arr = np.asarray(values, dtype=complex)
    return tuple(arr / np.linalg.norm(arr))


class TestConnectionCoefficient:
    def test_linear_su2_closed_form(self):
        # A = j / (1 + x)
        for j in (0.5, 1.0, 3.0):
            for amp in (0.3, 1.0, 2.0):
                spec = CSSpec(CSFamily.SU2_PCS, linear_su2(j), amp)
                x = amp * amp
                assert connection_coefficient(spec) == pytest.approx(
                    j / (1.0 + x), rel=1e-12
                )

    def test_higgs_su2_two_level_at_origin(self):
        # prefactor (2j [chi_1]!/2) = 1 at j=1/2, alpha2=2; the shifted series
        # is 1, and N = 1 + x gives A = 1/(1+x) -> 1 at x = 0
        spec = CSSpec(CSFamily.SU2_PCS, higgs_su2(0.5), 0.0)
        assert connection_coefficient(spec) == pytest.approx(1.0, rel=1e-14)

    def test_higgs_su2_two_level_profile(self):
        for x in (0.5, 1.0, 3.0):
            spec = CSSpec(CSFamily.SU2_PCS, higgs_su2(0.5), math.sqrt(x / 2.0))
            assert connection_coefficient(spec) == pytest.approx(
                1.0 / (1.0 + x), rel=1e-12
            )

    def test_linear_bgcs_at_origin(self):
        spec = CSSpec(CSFamily.SU11_BGCS, linear_su11(0.5), 0.0)
        assert connection_coefficient(spec) == pytest.approx(0.5, rel=1e-14)

    def test_shifted_ratio_reality(self):
        """The shifted/unshifted series ratio entering the connection is real
        to rounding for conjugate-paired parameters."""
        from polycs.hypergeom import pfq, shift_params
        from polycs.states import series_params

        for family, deformation in (
            (CSFamily.SU2_PCS, higgs_su2(3.0)),
            (CSFamily.SU11_BGCS, higgs_su11(0.5)),
            (CSFamily.SU11_PCS, higgs_su11(1.0)),
        ):
            spec = CSSpec(family, deformation, 1.4)
            params = series_params(spec)
            ratio = pfq(shift_params(params, 1)).value / pfq(params).value
            assert abs(ratio.imag) < 1e-10 * abs(ratio)

    def test_matches_norm_log_derivative(self):
        """A equals (dxbar/d|amp|^2) N'/(2N) for every family: an independent
        route through the statistics layer."""
        from polycs.stats import norm_derivatives

        cases = [
            (CSFamily.SU2_PCS, higgs_su2(3.0), 1.2),
            (CSFamily.SU2_PCS, linear_su2(1.0), 0.7),
            (CSFamily.SU11_BGCS, higgs_su11(0.5), 1.5),
            (CSFamily.SU11_BGCS, linear_su11(3.0), 2.0),
            (CSFamily.SU11_PCS, higgs_su11(1.0), 1.8),
            (CSFamily.SU11_PCS, linear_su11(1.0), 0.6),
        ]
        for family, deformation, amp in cases:
            spec = CSSpec(family, deformation, amp)
            n0, n1, _ = norm_derivatives(spec)
            leading = deformation.coeffs[-1]
            jacobian = leading if family is CSFamily.SU2_PCS else 1.0 / leading
            want = jacobian * n1 / (2.0 * n0)
            assert connection_coefficient(spec) == pytest.approx(want, rel=1e-10)


class TestBerryPhaseLoop:
    def test_linear_su2_closed_form(self):
        for j in (0.5, 1.0, 3.0):
            for r in (0.5, 1.0, 2.0):
                template = CSSpec(CSFamily.SU2_PCS, linear_su2(j), complex(r))
                gamma = berry_phase_loop(template, LoopSpec(r, 1.0))
                want = -4.0 * math.pi * j * r * r / (1.0 + r * r)
                assert gamma == pytest.approx(want, abs=1e-8)

    def test_small_radius_vanishes(self):
        for family, deformation in (
            (CSFamily.SU2_PCS, higgs_su2(1.0)),
            (CSFamily.SU11_BGCS, higgs_su11(1.0)),
            (CSFamily.SU11_PCS, higgs_su11(1.0)),
        ):
            template = CSSpec(family, deformation, 1e-6)
            gamma = berry_phase_loop(template, LoopSpec(1e-6, 1.0))
            assert abs(gamma) < 1e-10

    def test_direction_reversal_flips_sign(self):
        template = CSSpec(CSFamily.SU2_PCS, linear_su2(1.0), 1.0)
        forward = berry_phase_loop(template, LoopSpec(1.0, 1.0))
        backward = berry_phase_loop(template, LoopSpec(1.0, -1.0))
        assert forward == pytest.approx(-backward, rel=1e-12)

    def test_rate_invariance(self):
        # adiabatic phase depends on the loop, not the traversal speed
        template = CSSpec(CSFamily.SU11_BGCS, higgs_su11(0.5), 1.0)
        slow = berry_phase_loop(template, LoopSpec(1.0, 0.25))
        fast = berry_phase_loop(template, LoopSpec(1.0, 4.0))
        assert slow == pytest.approx(fast, rel=1e-12)

    def test_loopspec_validation(self):
        with pytest.raises(DomainError):
            LoopSpec(0.0, 1.0)
        with pytest.raises(DomainError):
            LoopSpec(1.0, 0.0)


class TestOverlapDerivativeFD:
    def test_zero_velocity(self):
        spec = CSSpec(CSFamily.SU2_PCS, linear_su2(1.0), 1.0)
        assert overlap_derivative_fd(spec, 0.0) == 0.0

    def test_tangential_velocity_linear_su2(self):
        spec = CSSpec(CSFamily.SU2_PCS, linear_su2(0.5), 1.0)
        got = overlap_derivative_fd(spec, 1j)
        a_val = connection_coefficient(spec)
        want = a_val * (1.0 * 1j - (-1j) * 1.0)  # alpha* v - v* alpha = 2i
        assert abs(got - want) < 1e-8
        assert abs(got.real) < 1e-8

    def test_radial_velocity_vanishes(self):
        # velocity parallel to alpha: the antisymmetric combination is zero
        spec = CSSpec(CSFamily.SU11_BGCS, higgs_su11(1.0), 1.3)
        got = overlap_derivative_fd(spec, 1.3)
        assert abs(got) < 1e-8

    def test_matches_connection_all_families(self):
        rng = np.random.default_rng(314)
        cases = [
            (CSFamily.SU2_PCS, linear_su2, (0.5, 1.0, 3.0)),
            (CSFamily.SU2_PCS, higgs_su2, (0.5, 1.0, 3.0)),
            (CSFamily.SU11_BGCS, linear_su11, (0.5, 1.0, 3.0)),
            (CSFamily.SU11_BGCS, higgs_su11, (0.5, 1.0, 3.0)),
            (CSFamily.SU11_PCS, higgs_su11, (0.5, 1.0, 3.0)),
            (CSFamily.SU11_PCS, linear_su11, (0.5, 1.0)),
        ]
        for family, builder, labels in cases:
            for label in labels:
                mag = 0.4 if (family is CSFamily.SU11_PCS and builder is linear_su11) else 1.1
                phase = rng.uniform(0, 2 * math.pi)
                amp = mag * complex(math.cos(phase), math.sin(phase))
                spec = CSSpec(family, builder(label), amp)
                velocity = complex(rng.normal(), rng.normal())
                got = overlap_derivative_fd(spec, velocity)
                a_val = connection_coefficient(spec)
                want = a_val * (amp.conjugate() * velocity - velocity.conjugate() * amp)
                assert abs(got - want) < 1e-6


class TestBGSeries:
    def test_constant_probe(self):
        probe = LaplaceProbe((1.0,), 1.0, 1.0)
        for xi in (0.0, 0.5, 3.0):
            assert bg_series(probe, xi) == pytest.approx(1.0)

    def test_single_excitation_linear_k_half(self):
        # weight sqrt(Gamma(1)/(1! Gamma(2) * 1)) = 1, so F = xi
        probe = LaplaceProbe((0.0, 1.0), 0.5, 1.0)
        for xi in (0.25, 1.0, 2.0):
            assert bg_series(probe, xi) == pytest.approx(xi)

    def test_at_origin_returns_c0(self):
        probe = LaplaceProbe(normalized([0.6, 0.8j]), 1.0, 1.0)
        assert bg_series(probe, 0.0) == pytest.approx(probe.c[0])


class TestLaplaceCheck:
    def test_unit_probe_exact(self):
        """The constant probe pins the Gamma(2k) prefactor: both sides are 1.
        The sqrt(Gamma(2k)) variant would give rhs = sqrt(Gamma(2k)) instead."""
        for k in (0.5, 1.0, 3.0):
            lhs, rhs, gap = laplace_check(LaplaceProbe((1.0,), k, 1.7))
            assert lhs == 1.0
            assert abs(rhs - 1.0) < 1e-12
            assert gap < 1e-12
        # k = 3: the misprinted prefactor would miss by an order of magnitude
        wrong = math.sqrt(math.gamma(6.0))
        assert abs(wrong - 1.0) > 9.0

    def test_single_excitation_identity(self):
        probe = LaplaceProbe((0.0, 1.0), 0.5, 2.0)
        lhs, rhs, gap = laplace_check(probe)
        assert lhs == pytest.approx(0.5)
        assert gap < 1e-12

    def test_large_z_limit(self):
        c = normalized([0.8, 0.6])
        probe = LaplaceProbe(c, 1.0, 1e8)
        lhs, rhs, gap = laplace_check(probe)
        assert abs(lhs - c[0]) < 1e-7
        assert gap < 1e-10

    def test_probe_matrix(self):
        rng = np.random.default_rng(2718)
        for coeffs in ((1.0,), (1.0, 2.0)):
            for k in (0.5, 1.0, 3.0):
                for z_val in (1.0, 2.0):
                    for _ in range(3):
                        length = int(rng.integers(1, 7))
                        c = normalized(
                            rng.normal(size=length) + 1j * rng.normal(size=length)
                        )
                        probe = LaplaceProbe(
                            c, k, z_val, deformation_coeffs=coeffs
                        )
                        lhs, rhs, gap = laplace_check(probe)
                        assert gap < 1e-8

    def test_quadrature_node_invariance(self):
        c = normalized([0.3, 0.5, 0.2, 0.7])
        lhs32, rhs32, _ = laplace_check(LaplaceProbe(c, 1.0, 2.0, quad_nodes=32))
        lhs96, rhs96, _ = laplace_check(LaplaceProbe(c, 1.0, 2.0, quad_nodes=96))
        assert lhs32 == lhs96
        assert abs(rhs32 - rhs96) < 1e-12

    def test_probe_validation(self):
        with pytest.raises(DomainError):
            LaplaceProbe((0.5, 0.5), 1.0, 1.0)  # not normalized
        with pytest.raises(DomainError):
            LaplaceProbe((1.0,), -1.0, 1.0)
        with pytest.raises(DomainError):
            LaplaceProbe((1.0,), 1.0, 0.0)


class TestGammaQuadrature:
    def test_reproduces_gamma(self):
        for k in (0.5, 1.0, 3.0):
            for n in range(7):
                got = gamma_quadrature_probe(n, k)
                want = math.gamma(n + 2.0 * k)
                assert got == pytest.approx(want, rel=1e-10)


class TestSeriesDuality:
    def test_pcs_series_is_g_function(self):
        # G(1/Z, k) for the single-excitation probe: sqrt((2k)_1/1!/[rho_1]!)/Z
        probe = LaplaceProbe((0.0, 1.0), 1.0, 4.0, deformation_coeffs=(1.0, 2.0))
        rho1 = 1.0 + 2.0 * (1.0 + (2.0 - 1.0))  # rho_1 at k=1, beta2=2
        want = math.sqrt(2.0 / rho1) / 4.0
        assert pcs_series_at_inverse(probe) == pytest.approx(want, rel=1e-12)
