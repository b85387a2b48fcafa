import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycs import states, stats
from polycs.algebra import (
    NEGATIVE_TOL,
    higgs_su2,
    higgs_su11,
    linear_su2,
    linear_su11,
    structure_function,
    su2_spec,
    su11_spec,
)
from polycs.errors import ConvergenceFailure, DivergentSeries, DomainError, UnitarityViolation
from polycs.hypergeom import validate
from polycs.states import (
    CoefficientVector,
    CSFamily,
    CSSpec,
    apply_lowering,
    bg_eigen_residual,
    coefficients,
    cs_from_xbar,
    family_deformation,
    normalization,
    series_params,
)
from polycs.verify import _draw_cs

LABELS = (0.5, 1.0, 3.0, 8.0)


def basis_vector(n, size):
    arr = np.zeros(size, dtype=complex)
    arr[n] = 1.0
    return CoefficientVector(arr, 0.0)


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

    def test_oversized_su2_tower_rejected(self):
        # 2j + 1 = 10,000 entries is the cap; one more is refused, before any
        # array of the tower's size is allocated
        assert coefficients(cs_from_xbar(CSFamily.SU2_PCS, linear_su2(4999.5), 1.0)).coeffs.size == 10_000
        for j, dim in ((5000.0, 10001), (1e12, 2 * 10**12 + 1)):
            spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(j), 1.0)
            with pytest.raises(DomainError, match=f"dimension {dim} exceeds the cap of 10000"):
                coefficients(spec)

    def test_zero_eps_runs(self):
        # the recurrence runs until the trailing coefficient underflows to 0
        spec = CSSpec(CSFamily.SU11_BGCS, higgs_su11(1.0), 1.0)
        vec = coefficients(spec, eps=0.0)
        assert vec.coeffs[-1] == 0.0
        assert vec.coeffs.size > coefficients(spec).coeffs.size

    @pytest.mark.parametrize("family", [CSFamily.SU11_BGCS, CSFamily.SU11_PCS])
    @pytest.mark.parametrize("amplitude", [0.0, 200.0])
    def test_zero_noncompact_element_is_divergent(self, family, amplitude):
        # (-1, 2) at k = 1/2 has rho_1 = 0, a pole of the norm series
        spec = CSSpec(family, su11_spec((-1.0, 2.0), 0.5), amplitude)
        for route in (coefficients, normalization):
            with pytest.raises(DivergentSeries):
                route(spec)

    @pytest.mark.parametrize("family", list(CSFamily))
    def test_non_unitary_tower_refused(self, family):
        build = su2_spec if family is CSFamily.SU2_PCS else su11_spec
        spec = CSSpec(family, build((-3.0, 0.25), 1.5), 0.0)
        for route in (coefficients, normalization):
            with pytest.raises(UnitarityViolation, match="n=1:"):
                route(spec)


def reference_ladder_sq(d, n):
    """One squared ladder element from two `structure_function` calls."""
    if d.is_compact:
        j = d.rep_label
        value = structure_function(d, j) - structure_function(d, -j + n - 1.0)
    else:
        k = d.rep_label
        value = structure_function(d, k + n - 1.0) - structure_function(d, k - 1.0)
    if value < 0.0:
        if value >= -NEGATIVE_TOL:
            return 0.0
        raise UnitarityViolation(n, value)
    if not value < math.inf:
        raise DomainError(f"squared ladder element at index {n} is {value}")
    return value


def reference_ratio(spec, n):
    """Coefficient ratio c_{n+1} / c_n of the unnormalized expansion."""
    d = spec.deformation
    step = math.sqrt(reference_ladder_sq(d, n + 1))
    if spec.family is CSFamily.SU2_PCS:
        return spec.amplitude * step / (n + 1)
    if spec.family is CSFamily.SU11_BGCS:
        return spec.amplitude / step
    return spec.amplitude * (2.0 * d.rep_label + n) / step


def reference_coefficients(spec, eps):
    """`coefficients` as one ratio call per step: the bit oracle of the tower."""
    validate(series_params(spec))
    compact = spec.family is CSFamily.SU2_PCS
    if spec.amplitude == 0.0 and not compact:
        return CoefficientVector(np.ones(1, dtype=complex), 0.0)
    coeffs = [complex(1.0)]
    sumsq = 1.0
    recent = []
    n = 0
    top = spec.deformation.two_j if compact else 10_000
    while n < top:
        ratio = reference_ratio(spec, n)
        nxt = coeffs[-1] * ratio
        coeffs.append(nxt)
        n += 1
        size = abs(nxt)
        if size > 1e150:
            coeffs = [c / size for c in coeffs]
        if compact:
            continue
        try:
            sumsq += size**2
        except OverflowError:
            raise ConvergenceFailure(f"running norm of the tower overflows at n = {n}") from None
        if size > 1e150:
            sumsq /= size**2
        recent.append(abs(ratio))
        if len(recent) > 5:
            recent.pop(0)
        if n >= 5 and abs(coeffs[-1]) <= eps * math.sqrt(sumsq) and max(recent) < 0.999:
            break
    else:
        if not compact:
            raise ConvergenceFailure(f"coefficient recurrence did not truncate within {top} terms")
    arr = np.array(coeffs, dtype=complex)
    arr /= np.linalg.norm(arr)
    tail = 0.0 if compact else abs(arr[-1]) / (1.0 - min(max(recent), 0.999))
    return CoefficientVector(arr, tail)


def tower_outcome(build, spec, eps):
    """The vector's bytes (its length among them) and tail bits, or the error's
    type and text."""
    try:
        vec = build(spec, eps)
    except Exception as exc:  # the reference's own failures are compared too
        return type(exc), str(exc)
    return vec.coeffs.tobytes(), vec.tail_bound.hex()


@st.composite
def tower_states(draw):
    family = draw(st.sampled_from(list(CSFamily)))
    p = draw(st.integers(1, 4))
    signed = st.sampled_from((-1.0, 0.5, 1.0, 2.0, 3.0))
    lower = draw(st.lists(signed, min_size=p - 1, max_size=p - 1))
    coeffs = (*lower, draw(st.sampled_from((0.5, 1.0, 2.0, 3.0))))
    if family is CSFamily.SU2_PCS:
        label = draw(st.integers(1, 400)) / 2
    else:
        label = draw(st.floats(0.5, 200.0))
    if family is CSFamily.SU11_PCS and p == 1:
        xbar = draw(st.floats(1e-3, 0.99))
    else:
        xbar = 10.0 ** draw(st.floats(-3.0, 3.0))
    spec = cs_from_xbar(family, family_deformation(family, coeffs, label), xbar)
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    amplitude = spec.amplitude * complex(math.cos(turn), math.sin(turn)) if turn else spec.amplitude
    return CSSpec(family, spec.deformation, amplitude)


class TestTowerBitIdentity:
    """`coefficients` against the one-call-per-step reference, bit for bit."""

    @given(spec=tower_states(), eps=st.sampled_from((0.0, 1e-12, 1e-6)))
    # |c_n| passes 1e150 at n = 60 and would peak near 1e230: the tower rescales
    @example(spec=CSSpec(CSFamily.SU2_PCS, higgs_su2(50.0), 2.0 + 1.5j), eps=1e-12)
    # psi_1 and psi_7 both round to -5.7e-14, which the clamp makes 0
    @example(
        spec=cs_from_xbar(CSFamily.SU2_PCS, su2_spec((35.21875, -3.325, 0.1), 3.5), 0.5),
        eps=1e-12,
    )
    # the running norm decides n = 14 with size**2 and n = 13 with size * size
    @example(
        spec=cs_from_xbar(CSFamily.SU11_BGCS, linear_su11(3.0), 36.35434007804995),
        eps=0.002367876543678032,
    )
    # in the first array block the running norm truncates the tower at
    # n = 86 with size**2, and at n = 85 with size * size
    @example(
        spec=cs_from_xbar(CSFamily.SU11_BGCS, linear_su11(8.0), 7322.226182308802),
        eps=0.1988105065461168,
    )
    # 5,445 coefficients: the head, then array blocks up to the longest
    @example(
        spec=cs_from_xbar(CSFamily.SU11_PCS, su11_spec((0.5,), 50.0), 0.9585872037202317),
        eps=1e-12,
    )
    # the real twin of the rescaling example above rescales in the head, at
    # n = 60; at amplitude 30 it rescales in the head (n = 40) and in the
    # arrays (n = 87)
    @example(spec=CSSpec(CSFamily.SU2_PCS, higgs_su2(50.0), 2.5), eps=1e-12)
    @example(spec=CSSpec(CSFamily.SU2_PCS, higgs_su2(50.0), 30.0), eps=1e-12)
    # rescales at n = 110 and 334 in the arrays rescale the running norm too
    @example(spec=cs_from_xbar(CSFamily.SU11_BGCS, linear_su11(1.0), 1e6), eps=1e-12)
    # phi_116 is inf: read at xbar = 3e7, while at 1e7 the tower truncates at
    # n = 99, in the same array block, before reading it
    @example(spec=cs_from_xbar(CSFamily.SU11_BGCS, su11_spec((1.0, 1e300), 1.0), 3e7), eps=1e-12)
    @example(spec=cs_from_xbar(CSFamily.SU11_BGCS, su11_spec((1.0, 1e300), 1.0), 1e7), eps=1e-12)
    # the running norm overflows at n = 97, in the first array block
    @example(
        spec=cs_from_xbar(CSFamily.SU11_BGCS, linear_su11(1.0), 4183635935320.0234),
        eps=1e-12,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, spec, eps):
        assert tower_outcome(coefficients, spec, eps) == tower_outcome(
            reference_coefficients, spec, eps
        )

    @pytest.mark.parametrize(
        "xbar, steps",
        [
            (0.005998749687421856, 8),
            (0.018995498874718682, 9),
            (1.2971757939484871, 16),
            (1.8365408852213054, 17),
        ],
        ids=["last-head-step", "first-array-step", "block-end", "block-start"],
    )
    def test_seams_match_reference(self, monkeypatch, xbar, steps):
        # A head of 8 steps and blocks of 8 put the seam after step 8 and a
        # block edge after step 16; these towers truncate on either side of
        # each, with a window of five ratios that spans it.
        monkeypatch.setattr(states, "_HEAD", 8)
        monkeypatch.setattr(states, "_MAX_BLOCK", 8)
        spec = cs_from_xbar(CSFamily.SU11_BGCS, linear_su11(1.0), xbar)
        outcome = tower_outcome(coefficients, spec, 1e-12)
        assert outcome == tower_outcome(reference_coefficients, spec, 1e-12)
        assert len(outcome[0]) == 16 * (steps + 1)


def test_array_squares_round_as_the_loop():
    # The array blocks square by np.float_power, which calls libm pow per
    # element as the loop's ** does; x * x and np.power differ on a few
    # hundred of these doubles.
    rng = np.random.default_rng(7)
    x = rng.random(200_000) * 10.0 ** rng.uniform(-160.0, 150.0, 200_000)
    loop = np.array([v**2 for v in x.tolist()])
    assert np.float_power(x, 2.0).tobytes() == loop.tobytes()


class TestTowerLog:
    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                cs_from_xbar(CSFamily.SU11_PCS, su11_spec((0.5,), 50.0), 0.9585872037202317),
                "tower su11-pcs (0.5,) label 50: 5445 coefficients, 7 array blocks, 0 rescales",
            ),
            (
                cs_from_xbar(CSFamily.SU11_BGCS, linear_su11(1.0), 1e6),
                "tower su11-bgcs (1.0,) label 1: 1235 coefficients, 5 array blocks, 2 rescales",
            ),
        ],
        ids=["long", "rescaling"],
    )
    def test_one_debug_record_per_array_tower(self, caplog, spec, message):
        caplog.set_level(logging.DEBUG, logger="polycs.states")
        coefficients(spec)
        [record] = caplog.records
        assert record.name == "polycs.states"
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == message

    def test_silent_by_default_and_in_the_loop(self, caplog):
        coefficients(cs_from_xbar(CSFamily.SU11_PCS, su11_spec((0.5,), 50.0), 0.95))
        caplog.set_level(logging.DEBUG, logger="polycs.states")
        coefficients(cs_from_xbar(CSFamily.SU11_PCS, su11_spec((0.5,), 0.5), 0.1))
        coefficients(CSSpec(CSFamily.SU11_PCS, su11_spec((0.5,), 50.0), 0.6j))
        assert caplog.records == []


class TestLadderMaps:
    def test_lowering_annihilates_ground(self):
        out = apply_lowering(higgs_su2(1.0), basis_vector(0, 3))
        assert np.all(out.coeffs == 0.0)

    def test_lowering_matrix_element(self):
        out = apply_lowering(higgs_su2(0.5), basis_vector(1, 2))
        assert out.coeffs[0] == pytest.approx(math.sqrt(2.0))

    @given(scale=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, scale):
        spec = higgs_su11(1.0)
        vec = basis_vector(2, 4)
        scaled = CoefficientVector(scale * vec.coeffs, 0.0)
        out_scaled = apply_lowering(spec, scaled)
        out_base = apply_lowering(spec, vec)
        assert np.allclose(out_scaled.coeffs, scale * out_base.coeffs)


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
