import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycs.algebra import higgs_su2, higgs_su11, linear_su2, linear_su11
from polycs.errors import ConvergenceFailure, DivergentSeries, DomainError, ZeroDenominator
from polycs.hypergeom import (
    SeriesParams,
    SeriesResult,
    derivative_shift,
    pfq,
    pfq_derivative,
    pochhammer,
    shift_params,
    termination_index,
)
from polycs.states import CSFamily, cs_from_xbar, series_params
from polycs import gridseries, hypergeom
from polycs.gridseries import SeriesGrid


def mpmath_hyper(params):
    """pFq at 50 digits from mpmath's own evaluator, independent of the recurrence."""
    with mpmath.workdps(50):
        numer = [mpmath.mpc(a) for a in params.numer]
        denom = [mpmath.mpc(b) for b in params.denom]
        return complex(mpmath.hyper(numer, denom, params.arg))


def reference_pfq(params, eps=1e-14, max_terms=10_000):
    """The complex term loop of `pfq` before its float path: the bit oracle.

    Callers pass valid parameters; validation is not part of the copy.
    """
    stop = termination_index(params)
    term = complex(1.0)
    total = complex(1.0)
    comp = complex(0.0)
    small_run = 0
    n = 0
    while n < max_terms:
        if stop is not None and n >= stop:
            return SeriesResult(total, n + 1, True, 0.0)
        num = complex(1.0)
        for a in params.numer:
            num *= a + n
        den = complex(1.0)
        for b in params.denom:
            den *= b + n
        term = term * num * (params.arg / (n + 1)) / den
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        n += 1
        if abs(term) <= eps * abs(total):
            small_run += 1
            if small_run >= 5:
                return SeriesResult(total, n + 1, False, abs(term) / abs(total))
        else:
            small_run = 0
    raise ConvergenceFailure("reference loop did not settle")


@st.composite
def valid_rows(draw, pairs):
    """(numer, denom, args) of one valid parameter row and 1-4 arguments.

    Terminating rows lead with an upper parameter -m; the others keep at
    most one more upper than lower parameter, and balanced ones take
    |arg| < 0.9.  With pairs=True the lower parameters hold a conjugate pair
    and each further parameter may be one.
    """

    def block(count):
        out = []
        for _ in range(count):
            if pairs and draw(st.booleans()):
                w = complex(draw(st.floats(0.3, 3.0)), draw(st.floats(0.1, 2.0)))
                out += [w, w.conjugate()]
            else:
                out.append(complex(draw(st.floats(0.3, 3.0))))
        return out

    terminating = draw(st.booleans())
    numer = block(draw(st.integers(0, 1)))
    denom = block(draw(st.integers(0, 2)))
    if pairs:
        w = complex(draw(st.floats(0.3, 3.0)), draw(st.floats(0.1, 2.0)))
        denom += [w, w.conjugate()]
    if terminating:
        numer.insert(0, complex(-draw(st.integers(0, 12))))
    elif len(numer) > len(denom) + 1:
        numer = []
    reach = 0.9 if not terminating and len(numer) == len(denom) + 1 else 6.0
    args = draw(st.lists(st.floats(-reach, reach), min_size=1, max_size=4))
    return tuple(numer), tuple(denom), args


def bits(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


class TestPfqBitIdentity:
    """`pfq` on one series (float loop for real parameters) and on a
    SeriesGrid (numpy real pairs) against the complex reference loop, bit
    for bit."""

    @pytest.mark.parametrize("pairs", [False, True], ids=["real", "conjugate-pairs"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_scalar_matches_reference(self, pairs, data):
        numer, denom, args = data.draw(valid_rows(pairs))
        for arg in args:
            params = SeriesParams(numer, denom, arg)
            got, want = pfq(params), reference_pfq(params)
            assert got.value == want.value
            assert got.value.real.hex() == want.value.real.hex()
            assert got.terms_used == want.terms_used
            assert got.terminated == want.terminated
            assert got.est_error == want.est_error

    @pytest.mark.parametrize(
        "kind", ["real", "pairs", "mixed"], ids=["real", "conjugate-pairs", "mixed"]
    )
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_grid_matches_reference(self, kind, data):
        numer, denom, args = data.draw(valid_rows(kind != "real"))
        # a second row as the first derivative takes it, unless its prefactor vanishes
        rows = [SeriesParams(numer, denom, 0.0)]
        _, shifted = derivative_shift(rows[0], 1)
        rows += [shifted] if shifted is not None else []
        if kind == "mixed":
            # the pair row's real parts: a real row of the same widths, which
            # the grid's complex arithmetic must leave with the real bits
            rows.append(
                SeriesParams(
                    tuple(complex(a.real) for a in numer),
                    tuple(complex(b.real) for b in denom),
                    0.0,
                )
            )
        grid = SeriesGrid([r.numer for r in rows], [r.denom for r in rows], args)
        result = pfq(grid)
        want_terms = 0
        for g, arg in enumerate(args):
            for r, row in enumerate(rows):
                want = reference_pfq(SeriesParams(row.numer, row.denom, arg))
                got = complex(result.real[g, r], result.imag[g, r])
                assert bits(got) == bits(want.value)
                assert result.cell_terms[g, r] == want.terms_used
                want_terms += want.terms_used
        assert result.terms_used == want_terms

    def test_real_grid_takes_real_arithmetic(self, monkeypatch):
        # a fast mode that silently fell back to the pair loop would still
        # pass the bit tests; the complex quotient is reached only by it
        def refuse(*args):
            raise AssertionError("complex quotient reached")

        monkeypatch.setattr(gridseries, "_cdiv", refuse)
        real = SeriesGrid([(0.5,), (-3.0,)], [(1.5,), (2.0,)], [0.25, -0.5])
        result = pfq(real)
        for g, arg in enumerate(real.args):
            for r, (numer, denom) in enumerate(zip(real.numer, real.denom)):
                want = reference_pfq(SeriesParams(numer, denom, arg))
                assert bits(complex(result.real[g, r], result.imag[g, r])) == bits(want.value)
        with pytest.raises(AssertionError, match="complex quotient reached"):
            pfq(SeriesGrid([(0.5,), (-3.0,)], [(1.5 + 1j,), (2.0,)], [0.25]))

    def test_typed_errors(self, monkeypatch):
        with pytest.raises(DivergentSeries):
            pfq(SeriesParams((0.5,), (), 1.5))
        with pytest.raises(DivergentSeries):
            pfq(SeriesGrid([(0.5,)], [()], [0.2, -1.5]))
        with pytest.raises(DivergentSeries):
            pfq(SeriesGrid([(0.5j, -0.5j)], [(-1.0,)], [0.2]))
        with pytest.raises(DomainError):
            SeriesGrid([(0.5,), (0.5, 1.0)], [(), ()], [0.2])
        with pytest.raises(ZeroDenominator):
            derivative_shift(SeriesParams((-1.0,), (-1.0,), 0.5), 2)
        with pytest.raises(ZeroDenominator):
            pfq_derivative(SeriesParams((1j, -1j), (-1.0 + 0j,), 0.5), 2)
        for params in (SeriesParams((), (0.5,), 5.0), SeriesParams((), (0.5 + 1j, 0.5 - 1j), 5.0)):
            monkeypatch.setattr(hypergeom, "MAX_TERMS", 3)
            with pytest.raises(ConvergenceFailure):
                pfq(params)
            grid = SeriesGrid([()], [params.denom], [0.0, params.arg])
            # at arg 0 every term is zero, so the series settles when five
            # small terms have run (terms_used 6): past a cap of 3, within 6
            assert pfq(grid).cell_terms.tolist() == [[0], [0]]
            monkeypatch.setattr(hypergeom, "MAX_TERMS", 6)
            assert pfq(grid).cell_terms.tolist() == [[6], [0]]


class TestPochhammer:
    def test_zero_order(self):
        for a in (0.0, -3.5, 2 + 1j):
            assert pochhammer(a, 0) == 1.0

    def test_imaginary_argument(self):
        assert pochhammer(-1j, 2) == pytest.approx(-1 - 1j)

    def test_gamma_ratio(self):
        # (2k)_3 at k = 1/2 equals Gamma(4)/Gamma(1) = 3!
        assert pochhammer(1.0, 3) == pytest.approx(6.0)

    @given(
        a_re=st.floats(-4, 4),
        a_im=st.floats(-4, 4),
        n=st.integers(0, 25),
    )
    @settings(max_examples=80, deadline=None)
    def test_recurrence(self, a_re, a_im, n):
        a = complex(a_re, a_im)
        assert pochhammer(a, n + 1) == pytest.approx(pochhammer(a, n) * (a + n))

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)


class TestPfq:
    def test_binomial_terminating(self):
        # 1F0[-2; ; -1] = (1 + 1)^2, brute-force three-term sum
        params = SeriesParams((-2.0,), (), -1.0)
        brute = 1.0 + (-2.0) * (-1.0) + ((-2.0) * (-1.0)) * (-1.0) * (-1.0) / 2.0
        result = pfq(params)
        assert result.value.real == pytest.approx(brute)
        assert result.value.real == pytest.approx(4.0)
        assert result.terminated
        assert result.terms_used == 3

    def test_empty_argument(self):
        result = pfq(SeriesParams((), (1.0,), 0.0))
        assert result.value == 1.0

    def test_higgs_two_level_norm(self):
        # 3F0[-1, 1-(1+i), 1-(1-i); ; -x] = 1 + x
        for x in (0.25, 1.0, 7.0):
            params = SeriesParams((-1.0, -1j, 1j), (), -x)
            assert pfq(params).value.real == pytest.approx(1.0 + x, rel=1e-14)

    def test_su2_termination_count(self):
        for j in (0.5, 1.0, 3.0, 8.0):
            spec = cs_from_xbar(CSFamily.SU2_PCS, higgs_su2(j), 2.5)
            result = pfq(series_params(spec))
            assert result.terminated
            assert result.terms_used == int(2 * j) + 1

    def test_divergent_too_many_upper(self):
        with pytest.raises(DivergentSeries):
            pfq(SeriesParams((0.5, 0.3), (), 0.5))

    def test_divergent_outside_disc(self):
        with pytest.raises(DivergentSeries):
            pfq(SeriesParams((0.5,), (), 1.5))

    def test_terminating_escapes_disc_rule(self):
        # -2j upper parameter makes large arguments legal
        value = pfq(SeriesParams((-2.0,), (), -10.0)).value.real
        assert value == pytest.approx(121.0)  # (1+10)^2

    def test_pole_denominator_rejected(self):
        with pytest.raises(DivergentSeries):
            pfq(SeriesParams((0.5,), (-1.0,), 0.5))

    def test_pole_after_termination_allowed(self):
        # terminates at n=1 before the denominator pole at n=2
        result = pfq(SeriesParams((-1.0,), (-2.0,), 1.0))
        assert result.value.real == pytest.approx(1.5)

    def test_convergence_failure(self, monkeypatch):
        monkeypatch.setattr(hypergeom, "MAX_TERMS", 3)
        with pytest.raises(ConvergenceFailure):
            pfq(SeriesParams((), (0.5,), 5.0))

    def test_est_error_within_eps(self, monkeypatch):
        monkeypatch.setattr(hypergeom, "EPS", 1e-12)
        result = pfq(SeriesParams((), (1.5,), 2.0))
        assert not result.terminated
        assert result.est_error <= 1e-12

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 50:
            n_den = int(rng.integers(0, 3))
            denom = []
            for _ in range(n_den):
                if rng.random() < 0.5:
                    denom.append(complex(rng.uniform(0.5, 5.0)))
                else:
                    w = complex(rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0))
                    denom.extend([w, w.conjugate()])
            if rng.random() < 0.5:
                numer = [complex(-int(rng.integers(1, 9)))]
                arg = rng.uniform(-4.0, 4.0)
            else:
                numer = (
                    [complex(rng.uniform(0.2, 2.0))] if len(denom) >= 1 else []
                )
                arg = rng.uniform(-0.8, 0.8) if len(numer) > len(denom) else rng.uniform(-3.0, 3.0)
            params = SeriesParams(tuple(numer), tuple(denom), arg)
            got = pfq(params).value
            want = mpmath_hyper(params)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)
            checked += 1

    def test_reality_for_conjugate_pairs(self):
        for spec_fn, family in (
            (higgs_su2, CSFamily.SU2_PCS),
            (higgs_su11, CSFamily.SU11_BGCS),
            (higgs_su11, CSFamily.SU11_PCS),
        ):
            for label in (0.5, 1.0, 3.0):
                spec = cs_from_xbar(family, spec_fn(label), 2.0)
                value = pfq(series_params(spec)).value
                assert abs(value.imag) < 1e-10 * abs(value)


class TestPfqDerivative:
    def test_su2_linear_slope_at_origin(self):
        # d/dx (1+x)^{2j} at 0 is 2j; the series argument is -x (chain sign)
        params = SeriesParams((-2.0,), (), 0.0)
        assert -pfq_derivative(params, 1).value.real == pytest.approx(2.0)

    def test_bgcs_slope_at_origin(self):
        params = SeriesParams((), (1.0,), 0.0)  # 0F1[; 2k; y], k = 1/2
        assert pfq_derivative(params, 1).value.real == pytest.approx(1.0)

    def test_second_derivative_of_linear_polynomial(self):
        params = SeriesParams((-1.0,), (), -0.7)
        result = pfq_derivative(params, 2)
        assert result.value == 0.0

    def test_rejects_order_zero(self):
        with pytest.raises(DomainError):
            pfq_derivative(SeriesParams((), (), 0.5), 0)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            pfq_derivative(SeriesParams((0.5,), (0.0 + 0.0j,), 0.1), 1)

    def test_finite_difference_agreement(self):
        """Central finite differences reproduce the shift derivative on every
        family's normalization across the xbar grid (the linear noncompact
        displacement family runs on its z < 1 domain)."""
        cases = []
        for label in (0.5, 1.0, 3.0):
            cases.append((CSFamily.SU2_PCS, linear_su2(label), (0.1, 0.5, 1.0, 2.5, 5.0)))
            cases.append((CSFamily.SU2_PCS, higgs_su2(label), (0.1, 0.5, 1.0, 2.5, 5.0)))
            cases.append((CSFamily.SU11_BGCS, linear_su11(label), (0.1, 0.5, 1.0, 2.5, 5.0)))
            cases.append((CSFamily.SU11_BGCS, higgs_su11(label), (0.1, 0.5, 1.0, 2.5, 5.0)))
            cases.append((CSFamily.SU11_PCS, higgs_su11(label), (0.1, 0.5, 1.0, 2.5, 5.0)))
            cases.append((CSFamily.SU11_PCS, linear_su11(label), (0.1, 0.3, 0.5, 0.7, 0.9)))
        for family, deformation, grid in cases:
            for xbar in grid:
                params = series_params(cs_from_xbar(family, deformation, xbar))
                shift = pfq_derivative(params, 1).value.real
                h = 1e-6 * max(abs(params.arg), 1.0)
                up = pfq(SeriesParams(params.numer, params.denom, params.arg + h))
                down = pfq(SeriesParams(params.numer, params.denom, params.arg - h))
                fd = (up.value.real - down.value.real) / (2 * h)
                assert fd == pytest.approx(shift, rel=1e-6)


class TestShiftParams:
    def test_shifts_all_entries(self):
        params = SeriesParams((-2.0, 1j), (3.0,), -0.5)
        shifted = shift_params(shift_params(params))
        assert shifted.numer == (0.0 + 0j, 2.0 + 1j)
        assert shifted.denom == (5.0 + 0j,)
        assert shifted.arg == -0.5

    def test_termination_index(self):
        assert termination_index(SeriesParams((-3.0, 0.5), (), 0.1)) == 3
        assert termination_index(SeriesParams((0.5,), (), 0.1)) is None
