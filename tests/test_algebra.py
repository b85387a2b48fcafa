import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import example, given, settings
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
GRID_COEFFS = ((2.0,), (1.0, 2.0), (1.0, 1.0, 2.0))
P4_COEFFS = ((1.0, 1.0, 1.0, 2.0),)  # root tests only


def grid_specs(grid_coeffs=GRID_COEFFS):
    return [
        DeformationSpec(kind, coeffs, label)
        for kind in AlgebraKind
        for coeffs in grid_coeffs
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

    @pytest.mark.parametrize(
        "read, message",
        [
            (lambda: linear_su11(1.0).two_j, "two_j is defined for the compact kind only"),
            (lambda: ladder_sq(linear_su2(1.0), -1), "tower index must be non-negative, got -1"),
        ],
        ids=["noncompact-two-j", "negative-index"],
    )
    def test_typed_refusals(self, read, message):
        with pytest.raises(DomainError, match=message):
            read()

    def test_out_of_tower_rejected(self):
        with pytest.raises(DomainError):
            ladder_sq(linear_su2(0.5), 3)

    def test_non_finite_element_rejected(self):
        # at k = 1e100, g(k) and g(k - 1) are both inf, so phi_1 is inf - inf
        spec = su11_spec((-1.0, 1.0), 1e100)
        for check in (lambda: ladder_sq(spec, 1), lambda: validate_unitarity(spec)):
            with pytest.raises(DomainError, match="element at index 1 is nan"):
                check()

    @pytest.mark.parametrize("spec", grid_specs() + grid_specs(P4_COEFFS))
    def test_elements_match_single_calls(self, spec):
        top = spec.two_j + 1 if spec.is_compact else 30
        elements = list(itertools.islice(algebra.ladder_elements(spec, 2), top - 1))
        assert elements == [ladder_sq(spec, n) for n in range(2, top + 1)]


def generator_outcome(spec, start, stop):
    """`ladder_elements`' values up to its first error, with that error's type
    and text (or None)."""
    values = []
    try:
        for value in algebra.ladder_elements(spec, start, stop):
            values.append(value)
    except (UnitarityViolation, DomainError) as exc:
        return values, (type(exc), str(exc))
    return values, None


@st.composite
def ladder_specs(draw):
    kind = draw(st.sampled_from(list(AlgebraKind)))
    coeffs = draw(
        st.lists(
            st.sampled_from((-3.0, -1.0, -1e-3, 0.5, 1.0, 2.0, 35.21875, 1e300)),
            min_size=1,
            max_size=4,
        )
    )
    if kind is AlgebraKind.SU2_LIKE:
        label = draw(st.integers(1, 400)) / 2
    else:
        label = draw(st.one_of(st.floats(1e-3, 400.0), st.sampled_from((1e100,))))
    return DeformationSpec(kind, coeffs, label)


class TestLadderArray:
    """`ladder_array` against the `ladder_elements` generator, bit for bit,
    with the generator's first error (type and text)."""

    @given(spec=ladder_specs(), start=st.integers(1, 120), count=st.integers(0, 200))
    # psi_1 and psi_7 both round to -5.7e-14, which the clamp makes 0
    @example(spec=su2_spec((35.21875, -3.325, 0.1), 3.5), start=1, count=8)
    # at k = 1e100, phi_1 is inf - inf
    @example(spec=su11_spec((-1.0, 1.0), 1e100), start=1, count=4)
    # phi_116 overflows; phi_32 is the first negative element
    @example(spec=su11_spec((1.0, 1e300), 1.0), start=60, count=100)
    @example(spec=su11_spec((1.0, -1e-3), 1.0), start=2, count=64)
    # every element is a genuine negative near -1e-205, far smaller than 1e-12
    @example(spec=su2_spec((-1.1265264162100174e-207, 1.439757171274797e-286), 20.0), start=1, count=8)
    # phi_1 = -3.5e303 is finite, while its terms' magnitudes sum past float range
    @example(spec=su11_spec((-1.5e300, 1e292), 8000.0), start=1, count=8)
    @settings(max_examples=300, deadline=None)
    def test_matches_generator(self, spec, start, count):
        values, error = generator_outcome(spec, start, start + count)
        with np.errstate(all="ignore"):  # an element past float range
            index = np.arange(start, start + count, dtype=float)
            array, array_error = algebra.ladder_array(spec, index)
        assert array.tobytes() == np.array(values, dtype=float).tobytes()
        got = None if array_error is None else (type(array_error), str(array_error))
        assert got == error


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


def reference_roots(spec):
    """The p >= 3 solve through numpy.polynomial's wrappers: the bit oracle.

    Returns the sorted roots, or the RootSolveFailure message.
    """
    label = spec.rep_label
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.is_compact:
                a = label * (label + 1.0)
                base = np.array([a, -(2.0 * label + 1.0), 1.0])
            else:
                a = label * (label - 1.0)
                base = np.array([a, 2.0 * label - 1.0, 1.0])
            coeffs = np.zeros(2 * spec.p - 1)
            q_pow = np.array([1.0])
            for s in range(1, spec.p + 1):
                weight = 0.0
                for r in range(s, spec.p + 1):
                    weight += spec.coeffs[r - 1] * a ** (r - s)
                coeffs[: q_pow.size] += weight * q_pow
                if s < spec.p:
                    q_pow = npoly.polymul(q_pow, base)
    except OverflowError:
        coeffs = np.array([np.inf])
    if not np.all(np.isfinite(coeffs)):
        return f"factor coefficients overflow at label {label:g}"
    raw = npoly.polyroots(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = npoly.polyval(np.abs(raw), np.abs(coeffs))
        residual = np.abs(npoly.polyval(raw, coeffs))
    if not np.all(np.isfinite(scale)):
        return f"root backward error overflows at label {label:g}"
    worst = np.max(residual / np.where(scale == 0.0, 1.0, scale))
    if not worst <= algebra.ROOT_TOL:
        return f"root backward error {worst:.3e} exceeds {algebra.ROOT_TOL:g}"
    return sorted((complex(w) for w in raw), key=lambda w: (w.real, w.imag))


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

    @given(
        coeffs=st.lists(st.sampled_from((-1.0, 0.5, 1.0, 2.0, 3.0)), min_size=3, max_size=4),
        label=st.one_of(
            st.integers(1, 2000).map(lambda twice: twice / 2),
            st.sampled_from((1e6, 1e20, 1e38, 1e51, 1e80)),
        ),
        compact=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_companion_solve_matches_polyroots(self, coeffs, label, compact):
        spec = (su2_spec if compact else su11_spec)(coeffs, label)
        want = reference_roots(spec)
        if isinstance(want, str):
            with pytest.raises(RootSolveFailure) as failure:
                deformation_roots(spec)
            assert str(failure.value) == want
        else:
            got = deformation_roots(spec).roots
            assert [(w.real.hex(), w.imag.hex()) for w in got] == [
                (w.real.hex(), w.imag.hex()) for w in want
            ]

    def test_non_finite_roots_rejected(self, monkeypatch):
        # np.max carried a nan to the verdict; the scalar loop must not drop one,
        # whether every root or a single one comes out of the eigensolve as nan
        eigvals = np.linalg.eigvals
        poisons = [
            lambda m: np.full(m.shape[0], np.nan),
            lambda m: np.where(np.arange(m.shape[0]) == 1, np.nan, eigvals(m)),
            lambda m: np.append(eigvals(m)[1:], complex(1.0, np.nan)),
        ]
        for poison in poisons:
            monkeypatch.setattr(algebra.np.linalg, "eigvals", poison)
            with pytest.raises(RootSolveFailure, match="overflows at label 3$"):
                deformation_roots(su11_spec((1.0, 1.0, 2.0), 3.0))

    def test_coefficient_overflow_is_typed(self):
        # k(k - 1) squared raises OverflowError at k = 1e100; k(k - 1) is inf at 1e155;
        # at p = 5, k = 3e38 the coefficient products overflow in numpy, which
        # must not leak a RuntimeWarning before the typed error; at p = 4,
        # k = 1e51 the coefficients are finite (up to 8e306) but the backward
        # error's scale sum_i |c_i| |z|^i overflows, which would pass any root;
        # at p = 3, k = 9.6e76 every coefficient is finite but c_0 / c_2 is not,
        # which must not reach the eigensolve
        cases = [
            ((1.0, 1.0, 2.0), 1e100),
            ((1.0, 1.0, 2.0), 1e155),
            ((2.0, 1.0, 1.0, 1.0, 3.0), 3e38),
            ((1.0, 1.0, 1.0, 2.0), 1e51),
            ((1.0, 3.0, 3.0, 1.0), 1e51),
            ((1.0, -1.0, 0.5), 9.6e76),
        ]
        for coeffs, k in cases:
            with pytest.raises(RootSolveFailure):
                deformation_roots(su11_spec(coeffs, k))

    @pytest.mark.parametrize(
        "spec",
        [
            su11_spec((1.0, 2.0), 1e160),
            su2_spec((1.0, 2.0), 1e160),
            su11_spec((-1e300, 1e-300), 1.0),
        ],
        ids=["lin-squared", "lin-squared-su2", "coefficient-ratio"],
    )
    def test_closed_form_overflow_is_typed(self, spec):
        # (2k - 1)^2 raises OverflowError past k ~ 7e153; c_1 / c_2 = -inf
        # gives infinite roots
        with pytest.raises(RootSolveFailure):
            deformation_roots(spec)


class TestRelativeClamp:
    """A negative element is rounding, and clamped to 0, only within a few
    eps of the magnitude of its rule's terms, |end| + sum_r |c_r| |t|^r."""

    def test_rounding_negatives_are_clamped(self):
        # psi_1 and psi_7 round to -5.7e-14, -0.34 eps of their terms' magnitude
        spec = su2_spec((35.21875, -3.325, 0.1), 3.5)
        assert ladder_sq(spec, 1) == ladder_sq(spec, 7) == 0.0
        validate_unitarity(spec)

    def test_tiny_genuine_negative_refused(self):
        # psi_1 = -4.5e-206 is far below 1e-12, but -0.05 of its terms' magnitude
        spec = su2_spec((-1.1265264162100174e-207, 1.439757171274797e-286), 20.0)
        with pytest.raises(UnitarityViolation, match="n=1: -4.506105664840068e-206"):
            validate_unitarity(spec)

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_scaled_non_unitary_twin_refused(self, kind):
        # 2**-600 scales every element exactly, so the twin is refused at the same n
        for scale in (0, -600):
            coeffs = tuple(math.ldexp(c, scale) for c in (-3.0, 0.25, 2.0))
            with pytest.raises(UnitarityViolation, match="n=1: "):
                validate_unitarity(DeformationSpec(kind, coeffs, 0.5))

    def test_finite_negative_with_terms_near_float_range_refused(self):
        # phi_1 = -3.5e303 is finite, while its terms' magnitudes sum past float range
        spec = su11_spec((-1.5e300, 1e292), 8000.0)
        with pytest.raises(UnitarityViolation, match="n=1: -3.52000000001"):
            ladder_sq(spec, 1)


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
        validate_unitarity(linear_su11(0.5))

    def test_returns_the_roots(self):
        spec = higgs_su11(3.0)
        assert validate_unitarity(spec) == deformation_roots(spec)

    def test_violation_past_any_scan_cap(self):
        # k = 1/2, rho_n = c_1 - (n^2 - 1/2): positive up to n = 1500 only
        with pytest.raises(UnitarityViolation) as err:
            validate_unitarity(su11_spec((2251499.75, -1.0), 0.5))
        assert "n=1501:" in str(err.value)

    def test_negative_run_between_integer_roots(self):
        # k = 1/2: rho_n = (b - 3.75)(b - 35.75), b = n^2 - 1/4, vanishes at
        # n = 2 and 6 and is negative at n = 3..5; the root at 2 is computed
        # just below 2, so its floor is 1
        spec = su11_spec((124.1875, -39.25, 1.0), 0.5)
        assert ladder_sq(spec, 2) == ladder_sq(spec, 6) == 0.0
        assert 1.0 < deformation_roots(spec).roots[2].real < 2.0
        with pytest.raises(UnitarityViolation) as err:
            validate_unitarity(spec)
        assert "n=3:" in str(err.value)

    def test_negative_run_between_exact_integer_roots(self):
        # su(2) (-14, 1) at j = 3: chi_n = (n - 2)(n - 5), with both roots
        # exact, so psi_2 = psi_5 = 0 and only n = 3, 4 are negative
        assert deformation_roots(su2_spec((-14.0, 1.0), 3.0)).roots == (2, 5)
        with pytest.raises(UnitarityViolation) as err:
            validate_unitarity(su2_spec((-14.0, 1.0), 3.0))
        assert "n=3:" in str(err.value)

    def test_double_integer_root_passes(self):
        # rho_n = (b - 3.75)^2 >= 0, zero at n = 2 only
        validate_unitarity(su11_spec((12.1875, -7.25, 1.0), 0.5))

    @pytest.mark.parametrize(
        "spec, zero_at",
        [
            (su11_spec((12.1875, -7.25, 1.0), 0.5), 2),
            (su11_spec((0.4, -0.4, 0.1), 1.0), 1),  # rho_n = (n^2 + n - 2)^2 / 10
            (su2_spec((-1.0, 0.5), 1.0), 1),  # psi_1 = 0: the state |0>
            (higgs_su11(3.0), None),
        ],
    )
    def test_records_the_first_zero_element(self, spec, zero_at):
        # at a double root the solve misses n = 1 or 2 by 2e-8 to 3e-8, so the
        # element, not the root, tells the gate of a pole
        assert validate_unitarity(spec).zero_at == zero_at

    @given(
        coeffs=st.lists(
            st.sampled_from((-3.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0)), min_size=1, max_size=4
        ),
        kind=st.sampled_from(list(AlgebraKind)),
        twice_label=st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_a_scan(self, coeffs, kind, twice_label):
        spec = DeformationSpec(kind, coeffs, twice_label / 2.0)
        top = spec.two_j if spec.is_compact else 400

        def outcome(check):
            try:
                check()
            except UnitarityViolation as exc:
                return str(exc)
            return None

        def scan():
            for n in range(1, top + 1):
                ladder_sq(spec, n)

        assert outcome(lambda: validate_unitarity(spec)) == outcome(scan)

    def test_memoised_per_spec(self, monkeypatch):
        solves = []
        original = algebra.deformation_roots

        def counted(spec):
            solves.append(spec)
            return original(spec)

        monkeypatch.setattr(algebra, "deformation_roots", counted)
        spec = su11_spec((1.0, 1.0, 2.0), 3.0)
        assert spec.unitary_roots is spec.unitary_roots
        assert len(solves) == 1
        bad = su2_spec((1.0, -1.0), 1.0)
        for _ in range(2):
            with pytest.raises(UnitarityViolation):
                bad.unitary_roots
        assert len(solves) == 3  # a failed check is not memoised


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

    def test_rejects_empty_coefficients(self):
        for kind in AlgebraKind:
            with pytest.raises(DomainError, match="at least one coefficient"):
                DeformationSpec(kind, (), 1.0)

    def test_order_is_the_coefficient_count(self):
        for coeffs in GRID_COEFFS + P4_COEFFS:
            assert su11_spec(coeffs, 1.0).p == len(coeffs)

    @pytest.mark.parametrize("build", [su2_spec, su11_spec])
    def test_builds_from_a_generator(self, build):
        # the coefficients are read once, so a one-shot iterable is enough
        spec = build((c for c in (1.0, 2.0)), 1.0)
        assert spec.coeffs == (1.0, 2.0) and spec.p == 2

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_label_and_coefficient(self, kind, bad):
        with pytest.raises(DomainError, match="label must be positive and finite"):
            DeformationSpec(kind, (1.0,), bad)
        with pytest.raises(DomainError, match="coefficients must be finite and nonzero"):
            DeformationSpec(kind, (bad, 2.0), 1.0)
        with pytest.raises(DomainError, match="coefficients must be finite and nonzero"):
            DeformationSpec(kind, (1.0, bad), 1.0)
