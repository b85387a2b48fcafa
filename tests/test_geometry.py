import dataclasses
import logging
import math

import numpy as np
import pytest

from polycs import algebra, geometry
from polycs.algebra import higgs_su2, higgs_su11, linear_su2, linear_su11, su2_spec
from polycs.errors import ConvergenceFailure, DomainError, QuadratureFailure
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


@pytest.fixture
def factorial_calls(monkeypatch):
    """Tower indices of every algebra.deformation_factorial call."""
    calls = []
    original = algebra.deformation_factorial

    def counted(spec, n):
        calls.append(n)
        return original(spec, n)

    monkeypatch.setattr(algebra, "deformation_factorial", counted)
    return calls


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

    @pytest.mark.filterwarnings("error")
    def test_non_finite_series_is_typed(self):
        # su(2) PCS at large j: the norm series overflows to nan although the
        # linear A = j c_1 / (1 + x) is about 5e-3 at r = 100
        for coeffs, j, r in (((1.0, 2.0), 50.0, 3.0), ((1.0,), 50.0, 100.0),
                             ((1.0, 2.0, 3.0), 20.0, 10.0)):
            spec = CSSpec(CSFamily.SU2_PCS, su2_spec(coeffs, j), complex(r))
            with pytest.raises(ConvergenceFailure):
                connection_coefficient(spec)
            with pytest.raises(ConvergenceFailure):
                berry_phase_loop(spec, LoopSpec(r, 1.0))


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

    def test_tower_weights_once_per_check(self, factorial_calls):
        """[rho_n]! is built once per tower index, not once per quadrature node."""
        c = normalized([0.3, 0.5j, 0.2, 0.7, -0.1, 0.4])
        probe = LaplaceProbe(c, 1.0, 2.0, deformation_coeffs=(1.0, 2.0))
        laplace_check(probe)
        assert sorted(factorial_calls) == list(range(len(c)))
        assert probe.deformation is probe.deformation

    def test_gauss_laguerre_rule_per_node_count(self, monkeypatch):
        """Two checks at one k solve each node count's rule once."""
        solved = []
        original = geometry.roots_genlaguerre

        def counted(nodes, alpha):
            solved.append((nodes, alpha))
            return original(nodes, alpha)

        monkeypatch.setattr(geometry, "roots_genlaguerre", counted)
        geometry._gauss_laguerre.cache_clear()
        laplace_check(LaplaceProbe(normalized([0.6, 0.8]), 3.0, 1.5))
        laplace_check(LaplaceProbe(normalized([0.1, 0.2, 0.3]), 3.0, 2.5))
        gamma_quadrature_probe(2, 3.0)
        assert solved == [(64, 5.0), (80, 5.0)]

    def test_gauss_laguerre_rule_read_only(self):
        u, w = geometry._gauss_laguerre(64, 1.0)
        with pytest.raises(ValueError):
            u[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_vector_quadrature_matches_scalar_series(self):
        """The all-nodes sum of F gives the bits of the scalar bg_series."""
        probe = LaplaceProbe(
            normalized([0.3, 0.5j, 0.2, 0.7, -0.1, 0.4]), 3.0, 1.7,
            deformation_coeffs=(1.0, 1.0, 2.0),
        )
        u, w = geometry._gauss_laguerre(64, 5.0)
        values = np.array([bg_series(probe, ui / probe.Z) for ui in u])
        want = complex(np.dot(w, values) / math.exp(math.lgamma(6.0)))
        assert geometry._laplace_quadrature(probe, 64) == want

    def test_gauss_laguerre_path_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="polycs.geometry")
        laplace_check(LaplaceProbe(normalized([0.6, 0.8]), 1.0, 2.0))
        assert caplog.records == []

    def test_probe_validation(self):
        with pytest.raises(DomainError):
            LaplaceProbe((0.5, 0.5), 1.0, 1.0)  # not normalized
        with pytest.raises(DomainError):
            LaplaceProbe((1.0,), -1.0, 1.0)
        with pytest.raises(DomainError):
            LaplaceProbe((1.0,), 1.0, 0.0)


class TestLaplaceAdaptiveFallback:
    PROBE = LaplaceProbe(
        normalized([0.3, 0.5j, 0.2, 0.7]), 1.0, 2.0, deformation_coeffs=(1.0, 2.0)
    )

    @staticmethod
    def _disagreeing_nodes(monkeypatch):
        original = geometry._laplace_quadrature

        def skewed(probe, nodes):
            value = original(probe, nodes)
            return value + 1e-6 if nodes == probe.quad_nodes + 16 else value

        monkeypatch.setattr(geometry, "_laplace_quadrature", skewed)

    def test_fallback_closes_identity(self, monkeypatch, caplog, factorial_calls):
        self._disagreeing_nodes(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="polycs.geometry")
        probe = dataclasses.replace(self.PROBE)  # weights not yet computed
        lhs, rhs, gap = laplace_check(probe)
        assert gap < 1e-8
        # the adaptive integrand reads the probe's weights like every other route
        assert sorted(factorial_calls) == list(range(len(probe.c)))
        [record] = caplog.records
        assert record.name == "polycs.geometry"
        assert record.levelno == logging.DEBUG
        assert "64- and 80-node" in record.getMessage()
        assert "1.000e-06" in record.getMessage()

    def test_fallback_is_silent_by_default(self, monkeypatch, capsys):
        self._disagreeing_nodes(monkeypatch)
        laplace_check(self.PROBE)
        assert capsys.readouterr() == ("", "")

    def test_adaptive_meets_tol_on_scaled_value(self):
        # tol bounds the Gamma(2k)-normalized result; at k = 8 the raw
        # integral is about Gamma(16) / Z^16, far above 1 at Z = 0.5
        for k, z_val in ((self.PROBE.k, self.PROBE.Z), (8.0, 0.5), (0.25, 3.0)):
            probe = dataclasses.replace(self.PROBE, k=k, Z=z_val)
            rhs = geometry._laplace_adaptive(probe)
            assert abs(rhs - pcs_series_at_inverse(probe)) < 1e-10

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_adaptive_error_above_tol_raises(self):
        with pytest.raises(QuadratureFailure):
            geometry._laplace_adaptive(self.PROBE, tol=1e-300)


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
