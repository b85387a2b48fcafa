"""Self-verification suites exposed through the command line.

This module is the single home of the cross-module property checks: the
acceptance tests run these suites and assert each check, so a check and its
tolerance live here only.  Each suite runs a batch of property checks with
pinned tolerances and reports the worst observed residual; suites are
deterministic (fixed seeds for the randomized draws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, geometry, stats
from .algebra import AlgebraKind, DeformationSpec
from .errors import UnitarityViolation
from .hypergeom import pochhammer
from .states import (
    CSFamily,
    CSSpec,
    bg_eigen_residual,
    coefficients,
    cs_from_xbar,
    normalization,
)

GRID_LABELS = (0.5, 1.0, 3.0, 8.0)
_GRID_COEFFS = {1: (2.0,), 2: (1.0, 2.0), 3: (1.0, 1.0, 2.0)}
_SEED = 20240817


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float
    threshold: float
    note: str = ""


def _grid_specs() -> list[DeformationSpec]:
    specs = []
    for kind in AlgebraKind:
        for p, coeffs in _GRID_COEFFS.items():
            for label in GRID_LABELS:
                specs.append(DeformationSpec(kind, p, coeffs, label))
    return specs


def _draw_cs(rng: np.random.Generator, family: CSFamily) -> CSSpec:
    p = int(rng.integers(1, 3))
    label = float(rng.choice(GRID_LABELS))
    coeffs = (1.0,) if p == 1 else (1.0, float(rng.choice((0.5, 1.0, 2.0, 3.0))))
    if family is CSFamily.SU2_PCS:
        deformation = algebra.su2_spec(coeffs, label)
        magnitude = rng.uniform(0.1, 1.5)
    else:
        deformation = algebra.su11_spec(coeffs, label)
        if family is CSFamily.SU11_PCS and p == 1:
            magnitude = math.sqrt(rng.uniform(0.05, 0.9) * coeffs[-1])
        else:
            magnitude = rng.uniform(0.1, 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return CSSpec(family, deformation, magnitude * complex(math.cos(phase), math.sin(phase)))


def suite_algebra(extra_specs: list[DeformationSpec] | None = None) -> list[CheckResult]:
    results = []
    specs = _grid_specs()

    err = 0.0
    for spec in specs:
        top = min(spec.two_j, 50) if spec.is_compact else 50
        for n in range(top + 1):
            lhs = algebra.ladder_sq(spec, n) - algebra.ladder_sq(spec, n + 1)
            rhs = algebra.commutator_poly(spec, algebra.diagonal_eigenvalue(spec, n))
            err = max(err, abs(lhs - rhs) / max(abs(rhs), 1.0))
    results.append(CheckResult("algebra/commutator-identity", err < 1e-10, err, 1e-10))

    err = 0.0
    for spec in specs:
        expected = algebra.casimir_eigenvalue(spec)
        top = min(spec.two_j, 50) if spec.is_compact else 50
        for n in range(top + 1):
            got = algebra.casimir_from_operators(spec, n)
            err = max(err, abs(got - expected) / max(abs(expected), 1.0))
    results.append(CheckResult("algebra/casimir-constancy", err < 1e-10, err, 1e-10))

    err = 0.0
    for spec in specs:
        roots = algebra.deformation_roots(spec)
        for n in range(21):
            direct = algebra.deformation_factor(spec, float(n))
            fact = algebra.factored_deformation_factor(roots, float(n))
            err = max(err, abs(fact - direct) / max(abs(direct), 1.0))
    results.append(CheckResult("algebra/root-factorization", err < 1e-10, err, 1e-10))

    err = 0.0
    for spec in specs:
        roots = algebra.deformation_roots(spec).roots
        for n in range(0, 21, 5):
            chain = complex(1.0)
            for r in roots:
                chain *= pochhammer(1.0 - r, n)
            if abs(chain) > 0.0:
                err = max(err, abs(chain.imag) / abs(chain))
    results.append(CheckResult("algebra/conjugate-reality", err < 1e-10, err, 1e-10))

    err = 0.0
    for spec in specs:
        if not spec.is_compact:
            continue
        err = max(err, abs(algebra.ladder_sq(spec, 0)))
        err = max(err, abs(algebra.ladder_sq(spec, spec.two_j + 1)))
    results.append(CheckResult("algebra/boundary-truncation", err == 0.0, err, 0.0))

    err = 0.0
    for label in GRID_LABELS:
        got = algebra.deformation_roots(algebra.higgs_su2(label)).roots
        want = sorted(
            (0.5 * (2 * label + 1) * (1 + 1j), 0.5 * (2 * label + 1) * (1 - 1j)),
            key=lambda w: (w.real, w.imag),
        )
        err = max(err, max(abs(g - w) for g, w in zip(got, want)))
        got = algebra.deformation_roots(algebra.higgs_su11(label)).roots
        want = sorted(
            (-0.5 * (2 * label - 1) * (1 + 1j), -0.5 * (2 * label - 1) * (1 - 1j)),
            key=lambda w: (w.real, w.imag),
        )
        err = max(err, max(abs(g - w) for g, w in zip(got, want)))
    results.append(CheckResult("algebra/higgs-closed-roots", err < 1e-12, err, 1e-12))

    check_specs = specs + list(extra_specs or [])
    failure = ""
    err = 0.0
    for spec in check_specs:
        try:
            algebra.validate_unitarity(spec, n_cap=200)
        except UnitarityViolation as exc:
            failure = f"{type(exc).__name__}: {exc}"
            err = -exc.value
            break
    results.append(
        CheckResult("algebra/unitarity", failure == "", err, 0.0, note=failure)
    )
    return results


def suite_stats() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(_SEED)

    norm_dual_err = 0.0
    dual_err = 0.0
    ident_err = 0.0
    norm_err = 0.0
    for family in CSFamily:
        for _ in range(50):
            spec = _draw_cs(rng, family)
            vec = coefficients(spec, eps=1e-14)
            direct = 1.0 / abs(vec.coeffs[0]) ** 2
            norm_dual_err = max(norm_dual_err, abs(normalization(spec) - direct) / direct)
            mean_o, fact2_o, _ = stats.direct_moments(vec)
            mean_c = stats.mean_photon(spec)
            dual_err = max(dual_err, abs(mean_c - mean_o) / max(abs(mean_o), 1.0))
            if spec.xbar > 0.0 and mean_o > 1e-12:
                corr_c = stats.intensity_correlation(spec)
                corr_o = fact2_o / mean_o**2
                dual_err = max(dual_err, abs(corr_c - corr_o) / max(abs(corr_o), 1.0))
                q_c = stats.mandel_q(spec)
                q_o = fact2_o / mean_o - mean_o
                dual_err = max(dual_err, abs(q_c - q_o) / max(abs(q_o), 1.0))
                ident_err = max(ident_err, abs(q_c - mean_c * (corr_c - 1.0)))
            norm_err = max(norm_err, abs(np.sum(np.abs(vec.coeffs) ** 2) - 1.0))
    results.append(
        CheckResult("stats/normalization-duality", norm_dual_err < 1e-9, norm_dual_err, 1e-9)
    )
    results.append(CheckResult("stats/closed-vs-oracle", dual_err < 1e-8, dual_err, 1e-8))
    results.append(CheckResult("stats/mandel-identity", ident_err < 1e-10, ident_err, 1e-10))
    results.append(CheckResult("stats/distribution-norm", norm_err < 1e-10, norm_err, 1e-10))

    worst = -math.inf  # most positive Q over the sub-Poissonian batch
    xbars = [0.5 * i for i in range(1, 21)]
    for label in GRID_LABELS:
        for deformation, family in (
            (algebra.linear_su2(label), CSFamily.SU2_PCS),
            (algebra.higgs_su2(label), CSFamily.SU2_PCS),
            (algebra.higgs_su11(label), CSFamily.SU11_BGCS),
            (algebra.higgs_su11(label), CSFamily.SU11_PCS),
        ):
            for xbar in xbars:
                worst = max(worst, stats.mandel_q(cs_from_xbar(family, deformation, xbar)))
    results.append(CheckResult("stats/sub-poissonian-signs", worst < 0.0, worst, 0.0))

    worst_q = math.inf
    worst_i = math.inf
    for label in GRID_LABELS:
        deformation = algebra.linear_su11(label)
        for z in [0.1 * i for i in range(1, 10)]:
            spec = cs_from_xbar(CSFamily.SU11_PCS, deformation, z)
            worst_q = min(worst_q, stats.mandel_q(spec))
            worst_i = min(worst_i, stats.intensity_correlation(spec))
    passed = worst_q > 0.0 and worst_i > 1.0
    results.append(
        CheckResult(
            "stats/super-poissonian-signs",
            passed,
            min(worst_q, worst_i - 1.0),
            0.0,
            note="min Q and min (I-1) must stay positive",
        )
    )

    err = 0.0
    for xbar in xbars:
        values = [
            stats.mandel_q(cs_from_xbar(CSFamily.SU2_PCS, algebra.linear_su2(j), xbar))
            for j in GRID_LABELS
        ]
        closed = -xbar / (1.0 + xbar)
        err = max(err, max(abs(v - closed) for v in values))
        err = max(err, max(values) - min(values))
    results.append(CheckResult("stats/linear-su2-j-independence", err < 1e-10, err, 1e-10))

    # The linear BGCS metric decays exactly like 1/(2 sqrt(y)): 1.58e-2 at
    # y = 1e3, below 1e-2 only past y = 2.5e3.  Its flatness is taken at
    # 2.6e3 and its decay law at 1e3.
    flat = 0.0
    law = 0.0
    for label in GRID_LABELS:
        for family, deformation, xbar in (
            (CSFamily.SU2_PCS, algebra.linear_su2(label), 1e3),
            (CSFamily.SU2_PCS, algebra.higgs_su2(label), 1e3),
            (CSFamily.SU11_BGCS, algebra.higgs_su11(label), 1e3),
            (CSFamily.SU11_BGCS, algebra.linear_su11(label), 2.6e3),
        ):
            omega = stats.metric_factor(cs_from_xbar(family, deformation, xbar))
            flat = max(flat, abs(omega))
        spec = cs_from_xbar(CSFamily.SU11_BGCS, algebra.linear_su11(label), 1e3)
        omega = stats.metric_factor(spec)
        law = max(law, abs(omega - 1.0 / (2.0 * math.sqrt(1e3))) / omega)
    results.append(CheckResult("stats/metric-flatness", flat < 1e-2, flat, 1e-2))
    results.append(CheckResult("stats/metric-bgcs-decay-law", law < 0.05, law, 0.05))

    err = 0.0
    for label in (0.5, 1.0, 3.0):
        for x in (0.0, 0.5, 2.0, 9.0):
            spec = cs_from_xbar(CSFamily.SU2_PCS, algebra.linear_su2(label), x)
            err = max(err, abs(stats.metric_factor(spec) - 2 * label / (1 + x) ** 2))
        for z in (0.0, 0.3, 0.8):
            spec = cs_from_xbar(CSFamily.SU11_PCS, algebra.linear_su11(label), z)
            err = max(err, abs(stats.metric_factor(spec) - 2 * label / (1 - z) ** 2))
    results.append(CheckResult("stats/metric-linear-closed-forms", err < 1e-10, err, 1e-10))
    return results


def suite_laplace() -> list[CheckResult]:
    results = []

    err = 0.0
    for k in (0.5, 1.0, 3.0):
        for n in range(7):
            got = geometry.gamma_quadrature_probe(n, k)
            want = math.gamma(n + 2.0 * k)
            err = max(err, abs(got - want) / want)
    results.append(CheckResult("laplace/gamma-quadrature", err < 1e-10, err, 1e-10))

    err = 0.0
    unit_ok = True
    for k in (0.5, 1.0, 3.0):
        probe = geometry.LaplaceProbe((1.0,), k, 1.5)
        lhs, rhs, gap = geometry.laplace_check(probe)
        unit_ok = unit_ok and lhs == 1.0
        err = max(err, gap)
    results.append(
        CheckResult("laplace/unit-probe", unit_ok and err < 1e-12, err, 1e-12)
    )

    rng = np.random.default_rng(_SEED + 1)
    err = 0.0
    for coeffs in ((1.0,), (1.0, 2.0)):
        for k in (0.5, 1.0, 3.0):
            for z_val in (1.0, 2.0):
                for _ in range(5):
                    length = int(rng.integers(1, 7))
                    raw = rng.normal(size=length) + 1j * rng.normal(size=length)
                    raw /= np.linalg.norm(raw)
                    probe = geometry.LaplaceProbe(
                        tuple(raw), k, z_val, deformation_coeffs=coeffs
                    )
                    _, _, gap = geometry.laplace_check(probe)
                    err = max(err, gap)
    results.append(CheckResult("laplace/bridge-identity", err < 1e-8, err, 1e-8))
    return results


def suite_berry() -> list[CheckResult]:
    results = []

    err = 0.0
    for j in (0.5, 1.0, 3.0):
        for radius in (0.5, 1.0, 2.0):
            loop = geometry.LoopSpec(radius, 1.0)
            template = CSSpec(CSFamily.SU2_PCS, algebra.linear_su2(j), complex(radius))
            gamma = geometry.berry_phase_loop(template, loop)
            closed = -4.0 * math.pi * j * radius**2 / (1.0 + radius**2)
            err = max(err, abs(gamma - closed))
    results.append(CheckResult("berry/linear-su2-closed-form", err < 1e-8, err, 1e-8))

    rng = np.random.default_rng(_SEED + 2)
    err = 0.0
    for family in CSFamily:
        for _ in range(10):
            spec = _draw_cs(rng, family)
            velocity = complex(rng.normal(), rng.normal())
            oracle = geometry.overlap_derivative_fd(spec, velocity)
            a_val = geometry.connection_coefficient(spec)
            closed = a_val * (
                spec.amplitude.conjugate() * velocity
                - velocity.conjugate() * spec.amplitude
            )
            err = max(err, abs(oracle - closed))
    results.append(CheckResult("berry/fd-oracle-agreement", err < 1e-6, err, 1e-6))

    err = 0.0
    for build in (algebra.linear_su11, algebra.higgs_su11):
        for k in (0.5, 1.0, 3.0):
            for magnitude in (0.5, 1.0, 2.0):
                for phase in (0.0, 2.2):
                    xi = magnitude * complex(math.cos(phase), math.sin(phase))
                    spec = CSSpec(CSFamily.SU11_BGCS, build(k), xi)
                    err = max(err, bg_eigen_residual(spec))
    results.append(CheckResult("states/bgcs-eigen-residual", err < 1e-9, err, 1e-9))
    return results


SUITES = {
    "algebra": suite_algebra,
    "stats": suite_stats,
    "laplace": suite_laplace,
    "berry": suite_berry,
}


def run_suites(
    names: list[str], extra_specs: list[DeformationSpec] | None = None
) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in names:
        if name == "algebra":
            results.extend(suite_algebra(extra_specs))
        else:
            results.extend(SUITES[name]())
    return results
