"""Every route to a state's numbers passes the one unitarity gate.

Signed deformations often break unitarity, and some put a zero squared
ladder element inside the tower.  Each public route must then give either a
finite value that agrees with `stat_record`, or a typed PolycsError: no
state of a non-unitary tower gets a number.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycs import figures, geometry, stats
from polycs.errors import PolycsError
from polycs.states import (
    CSFamily,
    cs_from_xbar,
    family_deformation,
    normalization,
    series_variable,
)
from polycs.stats import GridSpec

SIGNED = (-3.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0)


def _outcome(route):
    """The route's value, or None where it raises a PolycsError."""
    try:
        return route()
    except PolycsError:
        return None


@given(
    family=st.sampled_from(list(CSFamily)),
    lower=st.lists(st.sampled_from(SIGNED), min_size=1, max_size=2),
    leading=st.sampled_from((0.25, 0.5, 1.0, 2.0, 3.0)),
    label=st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)),
    xbar=st.sampled_from((0.0, 0.3, 1.0, 2.5)),
)
@example(CSFamily.SU2_PCS, [-1.0], 0.5, 1.0, 0.5)  # psi_1 = 0: |0>
@example(CSFamily.SU2_PCS, [-0.5], 1.0, 0.5, 4.0)  # psi_1 = 0: |0>
@example(CSFamily.SU11_PCS, [-1.0], 2.0, 0.5, 2.5)  # rho_1 = 0: a pole
@example(CSFamily.SU11_BGCS, [-3.0], 0.25, 1.5, 1.0)  # phi_1 < 0
@example(CSFamily.SU11_BGCS, [0.4, -0.4], 0.1, 1.0, 0.3)  # double root at n = 1
@example(CSFamily.SU11_PCS, [12.1875, -7.25], 1.0, 0.5, 2.5)  # double root at n = 2
@settings(max_examples=150, deadline=None)
def test_every_route_is_gated(family, lower, leading, label, xbar):
    coeffs = (*lower, leading)
    spec = cs_from_xbar(family, family_deformation(family, coeffs, label), xbar)
    record = _outcome(lambda: stats.stat_record(spec))

    def agrees(value, want, rel=0.0):
        assert value is None or (
            record is not None
            and math.isfinite(value)
            and math.isclose(value, want, rel_tol=rel, abs_tol=0.0)
        ), (value, record)

    agrees(_outcome(lambda: stats.mean_photon(spec)), record and record.mean_n)
    agrees(_outcome(lambda: stats.mandel_q(spec)), record and record.mandel_q)
    agrees(_outcome(lambda: stats.metric_factor(spec)), record and record.metric)
    corr = _outcome(lambda: stats.intensity_correlation(spec))
    agrees(corr, record and record.intensity_corr)
    norm = _outcome(lambda: normalization(spec))
    agrees(norm, record and 1.0 / record.photon_dist[0], rel=1e-8)
    dist = _outcome(lambda: stats.photon_distribution(spec))
    assert dist is None or tuple(dist.tolist()) == record.photon_dist

    # A = (J/2) N'/N, where N'/N is mean / xbar, or the metric at xbar = 0
    jacobian = series_variable(family, spec.deformation, 1.0)
    ratio = record and (record.mean_n / xbar if xbar > 0.0 else record.metric)
    a_val = _outcome(lambda: geometry.connection_coefficient(spec))
    agrees(a_val, record and 0.5 * jacobian * ratio, rel=1e-12)
    if a_val is not None:
        alpha, velocity = spec.amplitude, 1j
        closed = a_val * (alpha.conjugate() * velocity - velocity.conjugate() * alpha)
        fd = _outcome(lambda: geometry.overlap_derivative_fd(spec, velocity))
        assert fd is not None and abs(fd - closed) < 1e-6 * max(1.0, abs(closed))
    if xbar > 0.0:
        radius = abs(spec.amplitude)
        loop = geometry.LoopSpec(radius, 1.0)
        gamma = _outcome(lambda: geometry.berry_phase_loop(spec, loop))
        want = record and -2.0 * math.pi * jacobian * ratio * radius**2
        agrees(gamma, want, rel=1e-12)

    grid = GridSpec(xbar, xbar, 1, (label,))
    table = _outcome(lambda: figures._norm_table(family, coeffs, grid))
    if table is not None:
        cell = table[0][0]
        agrees(stats.mean_from_norms(*cell), record and record.mean_n, rel=1e-12)
        agrees(stats.metric_from_norms(*cell), record and record.metric, rel=1e-12)
