import logging
import math

import numpy as np
import pytest

from polycs import algebra, geometry
from polycs.algebra import higgs_su2, higgs_su11, linear_su2, linear_su11, su2_spec
from polycs.errors import (
    ConvergenceFailure,
    DivergentSeries,
    DomainError,
    QuadratureFailure,
    UnitarityViolation,
)
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
from polycs.states import CSFamily, CSSpec, coefficients

LABELS = (0.5, 1.0, 3.0, 8.0)


def normalized(values):
    arr = np.asarray(values, dtype=complex)
    return tuple(arr / np.linalg.norm(arr))


@pytest.fixture
def ladder_walks(monkeypatch):
    """[start, stop, elements read] of every algebra.ladder_elements generator."""
    walks = []
    original = algebra.ladder_elements

    def counted(spec, start=1, stop=None):
        walk = [start, stop, 0]
        walks.append(walk)
        for value in original(spec, start, stop):
            walk[2] += 1
            yield value

    monkeypatch.setattr(algebra, "ladder_elements", counted)
    return walks


def random_probe(rng, length, k, z_val, coeffs=(1.0,)):
    c = normalized(rng.normal(size=length) + 1j * rng.normal(size=length))
    return LaplaceProbe(c, k, z_val, deformation_coeffs=coeffs)


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
        # N = 1 + x at j=1/2, alpha2=2 (N' = 2j [chi_1]!/c_2 = 1), so
        # A = (c_2/2) N'/N = 1/(1+x) -> 1 at x = 0
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
        """The shifted/unshifted series ratio entering N'/N, and with it the
        connection, is real to rounding for conjugate-paired parameters."""
        from polycs.hypergeom import pfq, shift_params
        from polycs.states import series_params

        for family, deformation in (
            (CSFamily.SU2_PCS, higgs_su2(3.0)),
            (CSFamily.SU11_BGCS, higgs_su11(0.5)),
            (CSFamily.SU11_PCS, higgs_su11(1.0)),
        ):
            spec = CSSpec(family, deformation, 1.4)
            params = series_params(spec)
            ratio = pfq(shift_params(params)).value / pfq(params).value
            assert abs(ratio.imag) < 1e-10 * abs(ratio)

    def test_matches_norm_log_derivative(self):
        """A equals (dxbar/d|amp|^2) N'/(2N) for every family: geometry and
        the statistics layer share one route to N and N'."""
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

    @pytest.mark.parametrize("family", [CSFamily.SU11_BGCS, CSFamily.SU11_PCS])
    def test_pole_at_rho_1_is_divergent(self, family):
        # coefficients (-2, 1) at k = 1 give rho_1 = 0: the norm series has a
        # lower parameter on a pole, typed as norm_derivatives types it
        spec = CSSpec(family, algebra.su11_spec((-2.0, 1.0), 1.0), 0.5)
        with pytest.raises(DivergentSeries):
            connection_coefficient(spec)
        with pytest.raises(DivergentSeries):
            berry_phase_loop(spec, LoopSpec(0.5, 1.0))

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

    def test_connection_evaluated_once_per_state(self, monkeypatch):
        evaluations = []
        original = geometry.norm_and_slope

        def counted(family, params):
            evaluations.append(params)
            return original(family, params)

        monkeypatch.setattr(geometry, "norm_and_slope", counted)
        connection_coefficient.cache_clear()
        spec = CSSpec(CSFamily.SU11_PCS, higgs_su11(3.0), complex(0.7))
        a_val = connection_coefficient(spec)
        gamma = berry_phase_loop(spec, LoopSpec(0.7, -1.5))
        assert len(evaluations) == 1
        assert gamma == 4.0 * math.pi * a_val * 0.7**2
        # an equal state built anew is the same key; another radius is not
        connection_coefficient(CSSpec(CSFamily.SU11_PCS, higgs_su11(3.0), 0.7))
        assert len(evaluations) == 1
        berry_phase_loop(spec, LoopSpec(0.8, 1.0))
        assert len(evaluations) == 2

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_loopspec_refuses_a_non_finite_radius(self, bad):
        with pytest.raises(DomainError, match="radius must be positive and finite"):
            LoopSpec(bad, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_loopspec_refuses_a_non_finite_rate(self, bad):
        # a nan rate gave a finite phase: -2 pi for linear su(2), j = 1, r = 1
        with pytest.raises(DomainError, match="angular rate must be nonzero and finite"):
            LoopSpec(1.0, bad)


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
        """The sized rule is exact: 32 and 96 nodes give the same integral."""
        c = normalized([0.3, 0.5, 0.2, 0.7])
        probe = LaplaceProbe(c, 1.0, 2.0)
        _, sized, _ = laplace_check(probe)
        assert sized == geometry._laplace_quadrature(probe, (len(c) + 1) // 2)
        for nodes in (32, 96):
            assert abs(geometry._laplace_quadrature(probe, nodes) - sized) < 1e-12

    def test_tower_weights_once_per_check(self, ladder_walks):
        """The term ratios read phi_1 .. phi_{L-1} from one ladder_elements
        generator per probe, not one per quadrature node or per check."""
        c = normalized([0.3, 0.5j, 0.2, 0.7, -0.1, 0.4])
        probe = LaplaceProbe(c, 1.0, 2.0, deformation_coeffs=(1.0, 2.0))
        laplace_check(probe)
        laplace_check(probe)
        bg_series(probe, 0.5)
        assert ladder_walks == [[1, len(c), len(c) - 1]]
        assert probe.deformation is probe.deformation

    @pytest.mark.parametrize(
        "coeffs", [(2.0,), (1.0, 2.0), (1.0, 1.0, 2.0)], ids=["p1", "p2", "p3"]
    )
    @pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 3.0])
    def test_unit_probe_series_are_the_family_coefficients(self, coeffs, k):
        """For the unit probe e_n, F(1) and G(1) at Z = 1 are the products of
        the unit-amplitude BGCS and PCS coefficient ratios of
        states.coefficients: the probe walks the towers the states walk
        (leading coefficient 2, so the linear PCS has z = 1/2 < 1)."""
        deformation = algebra.su11_spec(coeffs, k)
        bgcs = coefficients(CSSpec(CSFamily.SU11_BGCS, deformation, 1.0)).coeffs
        pcs = coefficients(CSSpec(CSFamily.SU11_PCS, deformation, 1.0)).coeffs
        for n in range(1, 6):
            probe = LaplaceProbe(
                (0.0,) * n + (1.0,), k, 1.0, deformation_coeffs=coeffs
            )
            want_f, want_g = bgcs[n] / bgcs[0], pcs[n] / pcs[0]
            assert abs(bg_series(probe, 1.0) - want_f) <= 1e-14 * abs(want_f)
            assert abs(pcs_series_at_inverse(probe) - want_g) <= 1e-14 * abs(want_g)

    def test_gauss_laguerre_rule_per_node_count(self):
        """Two checks at one k and rule size build that rule once; lengths
        3 and 4 both take the 2-node rule."""
        geometry._gauss_laguerre.cache_clear()
        laplace_check(LaplaceProbe(normalized([0.6, 0.8, 0.3]), 3.0, 1.5))
        laplace_check(LaplaceProbe(normalized([0.1, 0.2, 0.3, 0.4]), 3.0, 2.5))
        gamma_quadrature_probe(2, 3.0)
        info = geometry._gauss_laguerre.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)

    def test_gauss_laguerre_rule_read_only(self):
        u, w = geometry._gauss_laguerre(64, 2.0)
        with pytest.raises(ValueError):
            u[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_vector_quadrature_matches_scalar_series(self):
        """The rule's sum of F gives the bits of the scalar bg_series."""
        probe = LaplaceProbe(
            normalized([0.3, 0.5j, 0.2, 0.7, -0.1, 0.4]), 3.0, 1.7,
            deformation_coeffs=(1.0, 1.0, 2.0),
        )
        u, w = geometry._gauss_laguerre(64, 6.0)
        values = np.array([bg_series(probe, ui / probe.Z) for ui in u])
        want = complex(np.dot(w, values))
        assert geometry._laplace_quadrature(probe, 64) == want

    # the benchmark's probes: lengths 1..8, so rules of 1..4 nodes, p = 1..3
    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 2.0), (1.0, 1.0, 2.0)])
    @pytest.mark.parametrize("length", range(1, 9))
    def test_traffic_rule_sizes_match_scalar_series(self, length, coeffs):
        rng = np.random.default_rng(length)
        probe = random_probe(rng, length, 0.5 + length / 4, 1.3, coeffs)
        u, w = geometry._gauss_laguerre((length + 1) // 2, 2.0 * probe.k)
        values = np.array([bg_series(probe, ui / probe.Z) for ui in u])
        assert laplace_check(probe)[1] == complex(np.dot(w, values))

    def test_gauss_laguerre_path_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="polycs.geometry")
        laplace_check(LaplaceProbe(normalized([0.6, 0.8]), 1.0, 2.0))
        assert caplog.records == []

    def test_large_k_closes(self):
        # Gamma(2k) passes float range from k ~ 86; the rule's weights sum to 1
        for k in (90.0, 1000.0):
            probe = random_probe(np.random.default_rng(int(k)), 8, k, 10.0)
            lhs, rhs, gap = laplace_check(probe)
            assert gap < 1e-8 * abs(lhs)

    def test_non_positive_element_is_typed(self):
        # (c_1, c_2) = (-5, 1) at k = 1/2: phi_1 = 1 * 1 * (-4.5), a negative
        # element, is the ladder rule's UnitarityViolation at n = 1
        probe = LaplaceProbe(
            normalized([0.6, 0.8]), 0.5, 1.0, deformation_coeffs=(-5.0, 1.0)
        )
        with pytest.raises(UnitarityViolation, match="at n=1"):
            laplace_check(probe)
        # (-2, 1) at k = 1: rho_1 = 0, so phi_1 = 0 exactly, a pole of G
        probe = LaplaceProbe(
            normalized([0.6, 0.8]), 1.0, 1.0, deformation_coeffs=(-2.0, 1.0)
        )
        with pytest.raises(DomainError, match="phi_1 = 0"):
            laplace_check(probe)

    def test_label_below_rounding_is_domain_error(self):
        # 2k + n - 1 rounds to 0 at n = 1 for k = 1e-300, and phi_1 with it;
        # the ratio 1/sqrt(phi_1) raised ZeroDivisionError
        probe = LaplaceProbe((0.6, 0.8), 1e-300, 1.0)
        with pytest.raises(DomainError, match="phi_1 = 0"):
            laplace_check(probe)

    def test_probe_validation(self):
        with pytest.raises(DomainError):
            LaplaceProbe((0.5, 0.5), 1.0, 1.0)  # not normalized
        with pytest.raises(DomainError):
            LaplaceProbe((1.0,), -1.0, 1.0)
        with pytest.raises(DomainError):
            LaplaceProbe((1.0,), 1.0, 0.0)

    @pytest.mark.parametrize("coeffs", [(1.0, -1.0), (-2.0,)])
    def test_probe_refuses_a_negative_leading_coefficient(self, coeffs):
        with pytest.raises(DomainError, match="positive leading coefficient"):
            LaplaceProbe((1.0,), 1.0, 1.0, deformation_coeffs=coeffs)

    @pytest.mark.parametrize("c", [(math.nan,), (0.6, math.nan), (math.nan, 0.8j)])
    def test_probe_refuses_a_nan_coefficient(self, c):
        with pytest.raises(DomainError, match="must be normalized"):
            LaplaceProbe(c, 1.0, 1.0)

    @pytest.mark.parametrize("z_val", [math.nan, math.inf])
    def test_probe_refuses_a_non_finite_z(self, z_val):
        # Z = nan gave (1, 1, 0) for c = (1,), as if the identity held
        with pytest.raises(DomainError, match="Z must be positive and finite"):
            LaplaceProbe((1.0,), 1.0, z_val)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_length_one_probe_checks_its_label(self, k):
        # the deformation is built with the probe, whatever its length
        with pytest.raises(DomainError, match="label must be positive and finite"):
            LaplaceProbe((1.0,), k, 1.0)

    @pytest.mark.parametrize("coeffs", [(), (math.nan,), (1.0, math.inf)])
    def test_length_one_probe_checks_its_coefficients(self, coeffs):
        with pytest.raises(DomainError, match="at least one coefficient|finite and nonzero"):
            LaplaceProbe((1.0,), 1.0, 1.0, deformation_coeffs=coeffs)


class TestLongProbes:
    """Probes far longer than any rule-size floor; the tower terms come from
    ratios, so nothing factorial-sized is formed, and no warning may leak."""

    @pytest.mark.parametrize("length", (100, 160, 300))
    @pytest.mark.parametrize("coeffs", ((1.0,), (0.5, 1.0, 2.0)))
    @pytest.mark.parametrize("k, z_val", ((1.0, 1.0), (0.25, 3.0)))
    def test_long_probe_closes(self, length, coeffs, k, z_val):
        rng = np.random.default_rng(length)
        _, _, gap = laplace_check(random_probe(rng, length, k, z_val, coeffs))
        assert gap < 1e-8

    def test_overflowing_terms_are_typed(self):
        # G(1/Z) stays finite, but F at the largest of the 150 nodes
        # (xi ~ 2400) passes float range
        probe = random_probe(np.random.default_rng(7), 300, 1.0, 0.25)
        assert math.isfinite(abs(pcs_series_at_inverse(probe)))
        with pytest.raises(QuadratureFailure):
            laplace_check(probe)


class TestGaussLaguerreRule:
    @pytest.mark.parametrize("alpha", (-0.5, 0.0, 1.0, 15.0))
    def test_normalized_moments(self, alpha):
        """sum w_i u_i^m Gamma(alpha + 1) / Gamma(m + alpha + 1) = 1 for every
        m <= 2n - 1, summed in logs so that u^m cannot overflow."""
        for n in (1, 2, 4, 8, 32, 64, 80, 150):
            u, w = geometry._gauss_laguerre(n, alpha + 1.0)
            log_w, log_u = np.log(w) + math.lgamma(alpha + 1.0), np.log(u)
            for m in range(2 * n):
                moment = np.exp(log_w + m * log_u - math.lgamma(m + alpha + 1.0)).sum()
                assert abs(moment - 1.0) < 1e-11, (n, m)

    def test_large_rule_recurrence_stays_in_range(self):
        """Unscaled, L_400 passes float range at the top nodes; the rescaled
        recurrence builds the rule with no warning and finite values."""
        u, w = geometry._gauss_laguerre(400, 2.0)
        assert np.isfinite(u).all() and np.isfinite(w).all() and (w >= 0.0).all()
        used = w > 0.0  # the top weights are below float range
        for m in range(100):
            # Gamma(alpha + 1) = Gamma(2) = 1
            terms = np.log(w[used]) + m * np.log(u[used]) - math.lgamma(m + 2.0)
            assert abs(np.exp(terms).sum() - 1.0) < 1e-11, m


class TestGammaQuadrature:
    def test_reproduces_gamma(self):
        for k in (0.5, 1.0, 3.0):
            for n in range(7):
                got = gamma_quadrature_probe(n, k)
                want = math.gamma(n + 2.0 * k)
                assert got == pytest.approx(want, rel=1e-10)

    def test_gamma_past_float_range_is_domain_error(self):
        # Gamma(180) is past float range
        with pytest.raises(DomainError):
            gamma_quadrature_probe(1, 90.0)

    def test_tiny_label_keeps_its_digits(self, recwarn):
        # the rule takes 2k itself: at k = 1e-8 the alpha = 2k - 1 form lost
        # 5e-10 relative, and at k = 1e-300 it warned of an invalid divide
        got = gamma_quadrature_probe(3, 1e-8)
        assert got == pytest.approx(math.gamma(3.0 + 2e-8), rel=1e-10)
        assert gamma_quadrature_probe(3, 1e-300) == pytest.approx(2.0, rel=1e-10)
        assert len(recwarn) == 0

    def test_exact_for_the_top_power(self):
        assert gamma_quadrature_probe(127, 0.5) == pytest.approx(math.gamma(128.0), rel=1e-10)

    @pytest.mark.parametrize("n", [-1, 128, 2.5, math.nan])
    def test_power_outside_the_exact_range_is_domain_error(self, n):
        # n = -1 gave 0.985 for Gamma(1) = 1
        with pytest.raises(DomainError, match="n must be an integer in 0..127"):
            gamma_quadrature_probe(n, 0.5)

    @pytest.mark.parametrize("k", [math.nan, math.inf, 0.0, -0.25])
    def test_label_not_positive_and_finite_is_domain_error(self, k):
        with pytest.raises(DomainError, match="k must be positive and finite"):
            gamma_quadrature_probe(1, k)


class TestSeriesDuality:
    def test_pcs_series_is_g_function(self):
        # G(1/Z, k) for the single-excitation probe: sqrt((2k)_1/1!/[rho_1]!)/Z
        probe = LaplaceProbe((0.0, 1.0), 1.0, 4.0, deformation_coeffs=(1.0, 2.0))
        rho1 = 1.0 + 2.0 * (1.0 + (2.0 - 1.0))  # rho_1 at k=1, beta2=2
        want = math.sqrt(2.0 / rho1) / 4.0
        assert pcs_series_at_inverse(probe) == pytest.approx(want, rel=1e-12)
