import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycs import algebra
from polycs.algebra import (
    AlgebraKind,
    DeformationSpec,
    casimir_eigenvalue,
    commutator_poly,
    deformation_factor,
    deformation_poly_coeffs,
    deformation_roots,
    factored_deformation_factor,
    higgs_su2,
    higgs_su11,
    ladder_sq,
    linear_su2,
    linear_su11,
    structure_function,
    su2_spec,
    su11_spec,
    validate_unitarity,
)
from polycs.errors import DomainError, RootSolveFailure, UnitarityViolation
from polycs.hypergeom import pochhammer

GRID_LABELS = (0.5, 1.0, 3.0, 8.0)
GRID_COEFFS = {1: (2.0,), 2: (1.0, 2.0), 3: (1.0, 1.0, 2.0)}
P4_COEFFS = {4: (1.0, 1.0, 1.0, 2.0)}  # root tests only


def grid_specs(grid_coeffs=GRID_COEFFS):
    return [
        DeformationSpec(kind, p, coeffs, label)
        for kind in AlgebraKind
        for p, coeffs in grid_coeffs.items()
        for label in GRID_LABELS
    ]


def explicit_commutator_poly(spec, m):
    """Independent oracle: the commutator as the raw double sum
    +-2 sum_r c_r m^r sum_{s=1}^r (m+1)^{r-s} (m-1)^{s-1}."""
    total = 0.0
    for r in range(1, spec.p + 1):
        inner = sum((m + 1.0) ** (r - s) * (m - 1.0) ** (s - 1) for s in range(1, r + 1))
        total += spec.coeffs[r - 1] * m**r * inner
    return 2.0 * total if spec.is_compact else -2.0 * total


class TestStructureFunction:
    def test_higgs_su2_at_half(self):
        # direct evaluation: 3/4 + 2 (3/4)^2 = 15/8
        assert structure_function(higgs_su2(0.5), 0.5) == pytest.approx(15 / 8, abs=1e-15)

    def test_vanishes_at_zero(self):
        for spec in grid_specs():
            assert structure_function(spec, 0.0) == 0.0

    def test_linear_casimir(self):
        for j in GRID_LABELS:
            assert structure_function(linear_su2(j), j) == pytest.approx(j * (j + 1))


class TestCommutatorPoly:
    def test_higgs_su2_value(self):
        # 2m + 4*alpha2*m^3 at m=1/2 with alpha2=2, cross-checked by g-difference
        spec = higgs_su2(0.5)
        assert commutator_poly(spec, 0.5) == pytest.approx(2.0, abs=1e-15)
        assert structure_function(spec, 0.5) - structure_function(spec, -0.5) == pytest.approx(2.0)

    def test_linear_su2_is_2m(self):
        spec = linear_su2(3.0)
        for m in (-1.0, 0.5, 2.0):
            assert commutator_poly(spec, m) == pytest.approx(2 * m)

    def test_higgs_su11_value(self):
        assert commutator_poly(higgs_su11(0.5), 0.5) == pytest.approx(-2.0, abs=1e-15)

    @pytest.mark.parametrize("spec", grid_specs())
    def test_matches_explicit_double_sum(self, spec):
        for m in np.linspace(-4.0, 4.0, 17):
            expected = explicit_commutator_poly(spec, float(m))
            assert commutator_poly(spec, float(m)) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )

    @given(
        m=st.floats(-5, 5),
        c1=st.floats(0.1, 3),
        c2=st.floats(0.1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_difference_identity_hypothesis(self, m, c1, c2):
        spec = su2_spec((c1, c2), 1.0)
        want = explicit_commutator_poly(spec, m)
        assert commutator_poly(spec, m) == pytest.approx(want, rel=1e-10, abs=1e-9)


class TestLadderSq:
    def test_higgs_su2_first_step(self):
        assert ladder_sq(higgs_su2(0.5), 1) == pytest.approx(2.0, abs=1e-15)

    def test_zero_at_bottom(self):
        for spec in grid_specs():
            assert ladder_sq(spec, 0) == 0.0

    def test_higgs_su11_first_step(self):
        assert ladder_sq(higgs_su11(0.5), 1) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("spec", grid_specs())
    def test_factored_form(self, spec):
        # psi_n = n (2j+1-n) chi_n resp. phi_n = n (2k-1+n) rho_n
        label = spec.rep_label
        top = spec.two_j + 1 if spec.is_compact else 30
        for n in range(top + 1):
            if spec.is_compact:
                factored = n * (2 * label + 1 - n) * deformation_factor(spec, n)
            else:
                factored = n * (2 * label - 1 + n) * deformation_factor(spec, n)
            value = ladder_sq(spec, n)
            assert value == pytest.approx(factored, rel=1e-12, abs=1e-12)

    def test_boundary_truncation_exact(self):
        for spec in grid_specs():
            if spec.is_compact:
                assert ladder_sq(spec, 0) == 0.0
                assert ladder_sq(spec, spec.two_j + 1) == 0.0

    def test_out_of_tower_rejected(self):
        with pytest.raises(DomainError):
            ladder_sq(linear_su2(0.5), 3)


class TestDeformationFactor:
    def test_higgs_su2(self):
        assert deformation_factor(higgs_su2(0.5), 1.0) == pytest.approx(2.0)

    def test_linear_limit_is_one(self):
        for n in range(10):
            assert deformation_factor(linear_su2(3.0), float(n)) == 1.0
            assert deformation_factor(linear_su11(0.5), float(n)) == 1.0

    def test_linear_general_coefficient(self):
        # p = 1 with coefficient 2: the double sum reduces to the coefficient
        assert deformation_factor(su2_spec((2.0,), 1.0), 4.0) == 2.0

    def test_higgs_su11_k_half(self):
        # rho_n = 2 n^2 at k = 1/2
        spec = higgs_su11(0.5)
        assert deformation_factor(spec, 2.0) == pytest.approx(8.0)
        for n in range(6):
            assert deformation_factor(spec, float(n)) == pytest.approx(2.0 * n * n)

    def test_poly_coeffs_match_double_sum(self):
        for spec in grid_specs():
            coeffs = deformation_poly_coeffs(spec)
            assert coeffs[-1] == pytest.approx(spec.coeffs[-1])
            for n in np.linspace(-3.0, 8.0, 23):
                direct = deformation_factor(spec, float(n))
                poly = float(np.polynomial.polynomial.polyval(n, coeffs))
                assert poly == pytest.approx(direct, rel=1e-11, abs=1e-11)


class TestDeformationRoots:
    def test_higgs_su2_paper_roots(self):
        for j in GRID_LABELS:
            roots = deformation_roots(higgs_su2(j)).roots
            want = {0.5 * (2 * j + 1) * (1 + 1j), 0.5 * (2 * j + 1) * (1 - 1j)}
            for w in want:
                assert min(abs(r - w) for r in roots) < 1e-12

    def test_higgs_su11_paper_roots(self):
        for k in GRID_LABELS:
            roots = deformation_roots(higgs_su11(k)).roots
            want = {-0.5 * (2 * k - 1) * (1 + 1j), -0.5 * (2 * k - 1) * (1 - 1j)}
            for w in want:
                assert min(abs(r - w) for r in roots) < 1e-12

    def test_double_root_at_k_half(self):
        roots = deformation_roots(higgs_su11(0.5)).roots
        assert len(roots) == 2
        assert all(abs(r) < 1e-12 for r in roots)

    def test_linear_empty(self):
        rs = deformation_roots(su2_spec((1.0,), 2.0))
        assert rs.roots == ()
        assert rs.leading == 1.0

    # Repeated roots: at k = 1 the factors are (n^2 + n + 1)^3 and
    # 2 (n^2 + n + 1/2)^2; at k = 1/2, (1, 8, 16) has c_0 = 1 - 4 + 3 = 0 and a
    # double root at n = 0, whose backward error is 0/0.  At k = 1e60 the roots
    # lie near 1e60 and the coefficients near 1e240.
    @pytest.mark.parametrize(
        "spec",
        grid_specs()
        + grid_specs(P4_COEFFS)
        + [su11_spec((1, 3, 3, 1), 1), su11_spec((0.5, 2, 2), 1)]
        + [su11_spec((1, 8, 16), 0.5), su11_spec((1, 1, 2), 1e60)],
    )
    def test_factorization_matches_direct(self, spec):
        rs = deformation_roots(spec)
        for n in range(21):
            direct = deformation_factor(spec, float(n))
            fact = factored_deformation_factor(rs, float(n))
            assert abs(fact - direct) <= 1e-10 * max(abs(direct), 1.0)

    def test_conjugate_pairing(self):
        for spec in grid_specs() + grid_specs(P4_COEFFS):
            roots = list(deformation_roots(spec).roots)
            for r in roots:
                if abs(r.imag) > 1e-10:
                    assert min(abs(r.conjugate() - s) for s in roots) < 1e-9

    def test_pochhammer_chain_reality(self):
        for spec in grid_specs():
            roots = deformation_roots(spec).roots
            for n in range(0, 21, 4):
                chain = complex(1.0)
                for r in roots:
                    chain *= pochhammer(1.0 - r, n)
                if abs(chain) > 0:
                    assert abs(chain.imag) < 1e-10 * abs(chain)

    def test_p3_roots_via_iteration(self):
        # degree-4 factor: closed forms do not apply, the solver must
        spec = su11_spec((1.0, 1.0, 2.0), 3.0)
        rs = deformation_roots(spec)
        assert len(rs.roots) == 4
        coeffs = deformation_poly_coeffs(spec)
        for r in rs.roots:
            residual = abs(np.polynomial.polynomial.polyval(r, coeffs))
            assert residual < 1e-10 * np.sum(np.abs(coeffs))

    def test_non_finite_roots_rejected(self, monkeypatch):
        monkeypatch.setattr(
            algebra.npoly, "polyroots", lambda c: np.full(c.size - 1, np.nan)
        )
        with pytest.raises(RootSolveFailure):
            deformation_roots(su11_spec((1.0, 1.0, 2.0), 3.0))

    def test_coefficient_overflow_is_typed(self):
        # k(k - 1) squared raises OverflowError at k = 1e100; k(k - 1) is inf at 1e155;
        # at p = 5, k = 3e38 the coefficient products overflow in numpy, which
        # must not leak a RuntimeWarning before the typed error; at p = 4,
        # k = 1e51 the coefficients are finite (up to 8e306) but the backward
        # error's scale sum_i |c_i| |z|^i overflows, which would pass any root
        cases = [
            ((1.0, 1.0, 2.0), 1e100),
            ((1.0, 1.0, 2.0), 1e155),
            ((2.0, 1.0, 1.0, 1.0, 3.0), 3e38),
            ((1.0, 1.0, 1.0, 2.0), 1e51),
            ((1.0, 3.0, 3.0, 1.0), 1e51),
        ]
        for coeffs, k in cases:
            with pytest.raises(RootSolveFailure):
                deformation_roots(su11_spec(coeffs, k))


class TestValidateUnitarity:
    def test_higgs_su2_ok(self):
        validate_unitarity(higgs_su2(1.0))

    def test_higgs_su2_violation(self):
        # alpha_2 = -1 < -1/(2 j^2) = -1/2 at j = 1
        with pytest.raises(UnitarityViolation) as err:
            validate_unitarity(su2_spec((1.0, -1.0), 1.0))
        assert "n=1" in str(err.value)

    def test_boundary_alpha2(self):
        # alpha_2 exactly at -1/(2 j^2) keeps psi_n >= 0
        j = 1.0
        validate_unitarity(su2_spec((1.0, -1.0 / (2 * j * j)), j))

    def test_linear_su11_ok(self):
        validate_unitarity(linear_su11(0.5), n_cap=100)


class TestCasimir:
    def test_values(self):
        assert casimir_eigenvalue(higgs_su2(0.5)) == pytest.approx(15 / 8)
        assert casimir_eigenvalue(linear_su11(1.0)) == 0.0
        assert casimir_eigenvalue(higgs_su11(0.5)) == pytest.approx(-1 / 8)

    @pytest.mark.parametrize("spec", grid_specs())
    def test_operator_combination_constant(self, spec):
        expected = casimir_eigenvalue(spec)
        top = min(spec.two_j, 50) if spec.is_compact else 50
        for n in range(top + 1):
            got = algebra.casimir_from_operators(spec, n)
            assert abs(got - expected) <= 1e-10 * max(abs(expected), 1.0)


class TestCommutatorIdentity:
    @pytest.mark.parametrize("spec", grid_specs())
    def test_ladder_difference_equals_poly(self, spec):
        top = min(spec.two_j, 50) if spec.is_compact else 50
        for n in range(top + 1):
            lhs = ladder_sq(spec, n) - ladder_sq(spec, n + 1)
            rhs = commutator_poly(spec, algebra.diagonal_eigenvalue(spec, n))
            assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)


class TestSpecValidation:
    def test_rejects_non_half_integer_j(self):
        with pytest.raises(DomainError):
            su2_spec((1.0,), 0.7)

    def test_rejects_zero_coefficient(self):
        with pytest.raises(DomainError):
            su2_spec((0.0, 1.0), 1.0)

    def test_rejects_negative_label(self):
        with pytest.raises(DomainError):
            su11_spec((1.0,), -2.0)

    def test_rejects_coeff_count_mismatch(self):
        with pytest.raises(DomainError):
            DeformationSpec(AlgebraKind.SU2_LIKE, 2, (1.0,), 1.0)

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_label_and_coefficient(self, kind, bad):
        with pytest.raises(DomainError, match="label must be positive and finite"):
            DeformationSpec(kind, 1, (1.0,), bad)
        with pytest.raises(DomainError, match="coefficients must be finite and nonzero"):
            DeformationSpec(kind, 2, (bad, 2.0), 1.0)
        with pytest.raises(DomainError, match="coefficients must be finite and nonzero"):
            DeformationSpec(kind, 2, (1.0, bad), 1.0)
