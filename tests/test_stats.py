import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycs.algebra import (
    deformation_roots,
    higgs_su2,
    higgs_su11,
    linear_su2,
    linear_su11,
    su2_spec,
)
from polycs.errors import ConvergenceFailure, DegenerateInput
from polycs.hypergeom import pochhammer
from polycs.states import CSFamily, CSSpec, coefficients, cs_from_xbar
from polycs.stats import (
    MAX_GRID_POINTS,
    GridSpec,
    direct_moments,
    intensity_correlation,
    mandel_q,
    mean_photon,
    metric_factor,
    norm_derivatives,
    photon_distribution,
    stat_record,
)

LABELS = (0.5, 1.0, 3.0, 8.0)
XBAR_GRID = [0.5 * i for i in range(1, 21)]


def closed_form_distribution(spec, n_max):
    """Independent route: the family-specific closed forms built from
    binomials/pochhammers over the deformation roots.  The noncompact sums
    extend until the running tail is negligible before normalizing."""
    d = spec.deformation
    roots = deformation_roots(d).roots
    xbar = spec.xbar

    def chain(n):
        acc = complex(1.0)
        for r in roots:
            acc *= pochhammer(1.0 - r, n)
        return acc.real

    if spec.family is CSFamily.SU2_PCS:
        two_j = d.two_j
        weights = [
            math.comb(two_j, n) * chain(n) * xbar**n for n in range(two_j + 1)
        ]
    else:
        two_k = 2.0 * d.rep_label
        weights = []
        small = 0
        for n in range(400):
            poch = pochhammer(two_k, n).real
            if spec.family is CSFamily.SU11_BGCS:
                w = xbar**n / (math.factorial(n) * poch * chain(n))
            else:
                w = poch * xbar**n / (math.factorial(n) * chain(n))
            weights.append(w)
            small = small + 1 if w < 1e-17 * sum(weights) else 0
            if small >= 3:
                break
    full = np.array(weights) / sum(weights)
    out = np.zeros(n_max + 1)
    take = min(full.size, n_max + 1)
    out[:take] = full[:take]
    return out


def family_cases():
    return [
        (CSFamily.SU2_PCS, linear_su2, 1.0),
        (CSFamily.SU2_PCS, higgs_su2, 1.0),
        (CSFamily.SU11_BGCS, linear_su11, 2.0),
        (CSFamily.SU11_BGCS, higgs_su11, 2.0),
        (CSFamily.SU11_PCS, linear_su11, 0.6),
        (CSFamily.SU11_PCS, higgs_su11, 2.0),
    ]


class TestPhotonDistribution:
    def test_linear_su2_binomial(self):
        spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(1.0), 1.0)
        dist = photon_distribution(spec)
        assert dist == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_zero_amplitude(self):
        spec = CSSpec(CSFamily.SU11_BGCS, higgs_su11(1.0), 0.0)
        dist = photon_distribution(spec, n_max=4)
        assert dist[0] == 1.0
        assert np.all(dist[1:] == 0.0)

    def test_linear_pcs_negative_binomial(self):
        # k = 1: P(n) = (n+1) (1-z)^2 z^n
        spec = cs_from_xbar(CSFamily.SU11_PCS, linear_su11(1.0), 0.5)
        dist = photon_distribution(spec, n_max=12)
        for n in range(13):
            assert dist[n] == pytest.approx((n + 1) * 0.25 * 0.5**n, rel=1e-10)

    @pytest.mark.parametrize("family,builder,xbar", family_cases())
    def test_matches_closed_forms(self, family, builder, xbar):
        for label in LABELS:
            spec = cs_from_xbar(family, builder(label), xbar)
            dist = photon_distribution(spec, n_max=30)
            want = closed_form_distribution(spec, 60)[:31]
            assert np.max(np.abs(dist - want)) < 1e-10

    def test_normalized(self):
        for family, builder, xbar in family_cases():
            spec = cs_from_xbar(family, builder(3.0), xbar)
            assert abs(np.sum(photon_distribution(spec)) - 1.0) < 1e-10

    @pytest.mark.parametrize("n_max", [-1, -2])
    def test_negative_n_max_rejected(self, n_max):
        from polycs.errors import DomainError

        spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(1.0), 1.0)
        with pytest.raises(DomainError, match="n_max"):
            photon_distribution(spec, n_max=n_max)


class TestMeanPhoton:
    def test_linear_su2(self):
        spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(1.0), 1.0)
        assert mean_photon(spec) == pytest.approx(1.0, rel=1e-12)

    def test_zero_amplitude(self):
        spec = CSSpec(CSFamily.SU2_PCS, higgs_su2(1.0), 0.0)
        assert mean_photon(spec) == 0.0

    def test_higgs_two_level(self):
        spec = cs_from_xbar(CSFamily.SU2_PCS, higgs_su2(0.5), 1.0)
        assert mean_photon(spec) == pytest.approx(0.5, rel=1e-12)

    def test_large_j_norm_past_float_square(self):
        # N' ~ 1e200 here, so N'^2 overflows; I takes the ratio form
        x = 100.0
        spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(50.0), x)
        assert abs(intensity_correlation(spec) - 0.99) < 1e-12  # 1 - 1/(2j)
        assert mean_photon(spec) == pytest.approx(100.0 * x / (1 + x), rel=1e-12)
        assert mandel_q(spec) == pytest.approx(-x / (1 + x), rel=1e-12)
        assert metric_factor(spec) == pytest.approx(100.0 / (1 + x) ** 2, rel=1e-9)

    def test_product_overflow_takes_ratio_form(self):
        # su(2) (3, 2, 3), j = 20: N ~ 3e307, so xbar * N' leaves float range
        spec = cs_from_xbar(CSFamily.SU2_PCS, su2_spec((3.0, 2.0, 3.0), 20.0), 194.0)
        mean = mean_photon(spec)
        assert math.isfinite(mean)
        want = direct_moments(coefficients(spec))[0]
        assert mean == pytest.approx(want, rel=1e-8)

    def test_non_finite_norm_is_typed(self):
        # su(2) cubic j = 50, x = 10: the norm series comes out nan, which
        # must raise instead of reaching the statistics
        spec = cs_from_xbar(CSFamily.SU2_PCS, higgs_su2(50.0), 10.0)
        with pytest.raises(ConvergenceFailure):
            norm_derivatives(spec)
        with pytest.raises(ConvergenceFailure):
            mean_photon(spec)


class TestIntensityCorrelation:
    def test_linear_su2_constant(self):
        for x in (0.3, 1.0, 4.0):
            spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(1.0), x)
            assert intensity_correlation(spec) == pytest.approx(0.5, rel=1e-12)

    def test_linear_pcs(self):
        spec = cs_from_xbar(CSFamily.SU11_PCS, linear_su11(0.5), 0.25)
        assert intensity_correlation(spec) == pytest.approx(2.0, rel=1e-12)

    def test_two_level_cannot_double_emit(self):
        spec = cs_from_xbar(CSFamily.SU2_PCS, higgs_su2(0.5), 1.0)
        assert intensity_correlation(spec) == 0.0

    def test_degenerate_at_zero(self):
        spec = CSSpec(CSFamily.SU2_PCS, linear_su2(1.0), 0.0)
        with pytest.raises(DegenerateInput):
            intensity_correlation(spec)


class TestMandelQ:
    def test_linear_su2_closed_form(self):
        for j in LABELS:
            spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(j), 1.0)
            assert mandel_q(spec) == pytest.approx(-0.5, abs=1e-12)

    def test_zero_amplitude(self):
        spec = CSSpec(CSFamily.SU11_PCS, higgs_su11(1.0), 0.0)
        assert mandel_q(spec) == 0.0

    def test_linear_pcs_super_poissonian(self):
        spec = cs_from_xbar(CSFamily.SU11_PCS, linear_su11(0.5), 0.5)
        assert mandel_q(spec) == pytest.approx(1.0, rel=1e-12)

    def test_j_independence_linear_su2(self):
        for x in XBAR_GRID:
            values = [
                mandel_q(cs_from_xbar(CSFamily.SU2_PCS, linear_su2(j), x))
                for j in LABELS
            ]
            assert max(values) - min(values) < 1e-10
            assert values[0] == pytest.approx(-x / (1.0 + x), abs=1e-10)

    def test_sub_poissonian_families(self):
        for label in LABELS:
            for family, deformation in (
                (CSFamily.SU2_PCS, linear_su2(label)),
                (CSFamily.SU2_PCS, higgs_su2(label)),
                (CSFamily.SU11_BGCS, higgs_su11(label)),
                (CSFamily.SU11_PCS, higgs_su11(label)),
            ):
                for x in XBAR_GRID:
                    assert mandel_q(cs_from_xbar(family, deformation, x)) < 0.0

    def test_super_poissonian_linear_pcs(self):
        for label in LABELS:
            for z in [0.1 * i for i in range(1, 10)]:
                spec = cs_from_xbar(CSFamily.SU11_PCS, linear_su11(label), z)
                assert mandel_q(spec) > 0.0
                assert intensity_correlation(spec) > 1.0


class TestMetricFactor:
    def test_linear_su2_closed_form(self):
        for j in (0.5, 1.0, 3.0):
            for x in (0.0, 0.5, 2.0, 9.0):
                spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(j), x)
                assert metric_factor(spec) == pytest.approx(
                    2 * j / (1 + x) ** 2, abs=1e-10
                )

    def test_linear_pcs_closed_form(self):
        for k in (0.5, 1.0, 3.0):
            for z in (0.0, 0.3, 0.8):
                spec = cs_from_xbar(CSFamily.SU11_PCS, linear_su11(k), z)
                assert metric_factor(spec) == pytest.approx(
                    2 * k / (1 - z) ** 2, abs=1e-10
                )

    def test_bgcs_at_origin(self):
        # omega(0) = N'(0)/N(0) = 1/(2k)
        spec = CSSpec(CSFamily.SU11_BGCS, linear_su11(1.0), 0.0)
        assert metric_factor(spec) == pytest.approx(0.5, rel=1e-12)

    def test_asymptotic_flatness(self):
        for label in LABELS:
            for family, deformation in (
                (CSFamily.SU2_PCS, linear_su2(label)),
                (CSFamily.SU2_PCS, higgs_su2(label)),
                (CSFamily.SU11_BGCS, higgs_su11(label)),
            ):
                spec = cs_from_xbar(family, deformation, 1000.0)
                assert abs(metric_factor(spec)) < 1e-2

    def test_linear_bgcs_flatness_decay_law(self):
        """The linear eigenstate-family metric flattens like 1/(2 sqrt(y)),
        which is 1.58e-2 at y = 1e3 and drops under 1e-2 only past y = 2.5e3."""
        for label in LABELS:
            deformation = linear_su11(label)
            values = [
                metric_factor(cs_from_xbar(CSFamily.SU11_BGCS, deformation, y))
                for y in (10.0, 100.0, 1000.0)
            ]
            assert values[0] > values[1] > values[2] > 0.0
            assert values[2] == pytest.approx(1.0 / (2.0 * math.sqrt(1000.0)), rel=0.05)
            far = metric_factor(cs_from_xbar(CSFamily.SU11_BGCS, deformation, 2600.0))
            assert abs(far) < 1e-2


class TestDirectMoments:
    def test_ground_state(self):
        spec = CSSpec(CSFamily.SU11_BGCS, linear_su11(1.0), 0.0)
        assert direct_moments(coefficients(spec)) == (0.0, 0.0, 0.0)

    def test_fock_state(self):
        from polycs.states import CoefficientVector

        vec = CoefficientVector(np.array([0.0, 1.0], dtype=complex), 1, 0.0)
        mean, fact2, var = direct_moments(vec)
        assert (mean, fact2, var) == (1.0, 0.0, 0.0)

    def test_binomial_moments(self):
        spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(1.0), 1.0)
        mean, fact2, var = direct_moments(coefficients(spec))
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert fact2 == pytest.approx(0.5, abs=1e-12)
        assert var == pytest.approx(0.5, abs=1e-12)


class TestClosedVsOracle:
    def test_random_specs(self):
        rng = np.random.default_rng(101)
        count = 0
        while count < 50:
            family = list(CSFamily)[int(rng.integers(0, 3))]
            p = int(rng.integers(1, 3))
            label = float(rng.choice(LABELS))
            if family is CSFamily.SU2_PCS:
                deformation = (linear_su2 if p == 1 else higgs_su2)(label)
                xbar = rng.uniform(0.05, 5.0)
            else:
                deformation = (linear_su11 if p == 1 else higgs_su11)(label)
                if family is CSFamily.SU11_PCS and p == 1:
                    xbar = rng.uniform(0.05, 0.9)
                else:
                    xbar = rng.uniform(0.05, 5.0)
            spec = cs_from_xbar(family, deformation, xbar)
            mean_o, fact2_o, _ = direct_moments(coefficients(spec, eps=1e-14))
            assert mean_photon(spec) == pytest.approx(mean_o, rel=1e-8, abs=1e-8)
            corr_o = fact2_o / mean_o**2
            assert intensity_correlation(spec) == pytest.approx(corr_o, rel=1e-8)
            q_o = fact2_o / mean_o - mean_o
            assert mandel_q(spec) == pytest.approx(q_o, rel=1e-8, abs=1e-8)
            count += 1

    @given(xbar=st.floats(0.01, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_mandel_identity_hypothesis(self, xbar):
        spec = cs_from_xbar(CSFamily.SU11_BGCS, higgs_su11(1.0), xbar)
        q = mandel_q(spec)
        mean = mean_photon(spec)
        corr = intensity_correlation(spec)
        assert abs(q - mean * (corr - 1.0)) < 1e-10


class TestStatRecord:
    def test_assembles(self):
        spec = cs_from_xbar(CSFamily.SU2_PCS, linear_su2(1.0), 1.0)
        record = stat_record(spec)
        assert record.xbar == pytest.approx(1.0)
        assert record.mean_n == pytest.approx(1.0)
        assert record.intensity_corr == pytest.approx(0.5)
        assert record.mandel_q == pytest.approx(-0.5)
        assert record.metric == pytest.approx(0.5)
        assert sum(record.photon_dist) == pytest.approx(1.0, abs=1e-10)

    def test_norm_square_overflow_matches_direct_moments(self):
        # su(2) (1, 1, 2), j = 20, x = 10: N'^2 overflows
        spec = cs_from_xbar(CSFamily.SU2_PCS, su2_spec((1.0, 1.0, 2.0), 20.0), 10.0)
        record = stat_record(spec)
        mean, fact2, var = direct_moments(coefficients(spec))
        assert record.mean_n == pytest.approx(mean, rel=1e-8)
        assert record.intensity_corr == pytest.approx(fact2 / mean**2, rel=1e-8)
        assert record.mandel_q == pytest.approx(var / mean - 1.0, rel=1e-8)

    def test_zero_amplitude_nan_correlation(self):
        spec = CSSpec(CSFamily.SU2_PCS, linear_su2(1.0), 0.0)
        record = stat_record(spec)
        assert math.isnan(record.intensity_corr)
        assert record.mean_n == 0.0
        assert record.mandel_q == 0.0


class TestGridSpec:
    def test_values(self):
        grid = GridSpec(0.0, 1.0, 5, (1.0,))
        assert np.allclose(grid.values(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_negative_min(self):
        from polycs.errors import DomainError

        with pytest.raises(DomainError):
            GridSpec(-1.0, 1.0, 5, (1.0,))

    def test_rejects_empty_labels(self):
        from polycs.errors import DomainError

        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 5, ())

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0)])
    def test_rejects_non_finite_bounds(self, bounds):
        from polycs.errors import DomainError

        with pytest.raises(DomainError, match="finite"):
            GridSpec(*bounds, 3, (1.0,))

    def test_rejects_points_above_cap(self):
        from polycs.errors import DomainError

        GridSpec(0.0, 1.0, MAX_GRID_POINTS, (1.0,))
        with pytest.raises(DomainError, match="points must be in"):
            GridSpec(0.0, 1.0, MAX_GRID_POINTS + 1, (1.0,))

    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.3, 0.3), (0.1, 7.0)])
    def test_single_point_is_xbar_min(self, bounds):
        values = GridSpec(*bounds, 1, (1.0,)).values()
        assert values.tobytes() == np.array([bounds[0]]).tobytes()
