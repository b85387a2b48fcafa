"""Berry connection / loop phase and the Laplace bridge between the two
noncompact coherent-state families.

Berry connection.  For every family the exact overlap derivative collapses to

    <psi | d/dt | psi> = A(xbar) (alpha* dalpha/dt - dalpha*/dt alpha),

with a real scalar A(xbar) built from the one-step-shifted norm series over
the unshifted one:

    SU2_PCS    A = (2j [chi_1]! / 2)     * F(params+1) / F(params)
    SU11_BGCS  A = 1 / (2 (2k) [rho_1]!) * F(params+1) / F(params)
    SU11_PCS   A = (2k) / (2 [rho_1]!)   * F(params+1) / F(params)

The geometric phase over a closed amplitude loop is gamma =
i * integral_0^T <psi|d/dt|psi> dt.  On a circle of radius r, xbar and with
it A are constant, so gamma = -4 pi A r^2 times the traversal sign in closed
form, which for the linear compact family reproduces the classical
-4 pi j r^2 / (1 + r^2).

Laplace bridge.  A normalized tower vector c defines two entire series, one
on the eigenstate-family weights (F) and one on the displacement-family
weights (G); they satisfy

    G(1/Z, k) = Z^{2k} / Gamma(2k) * integral_0^inf xi^{2k-1} F(xi, k) e^{-Z xi} dxi.

The prefactor carries Gamma(2k), not its square root: the constant probe
c = (1, 0, ...) forces G = 1 and the integral equals Gamma(2k) Z^{-2k}, so
only the Gamma(2k) normalization closes the identity.  The integral is done
with generalized Gauss-Laguerre nodes (weight u^{2k-1} e^{-u} after scaling
by Z), exact for the polynomial series generated by finite c; an adaptive
fallback covers disagreement between node counts, and reports it as a DEBUG
record on the "polycs.geometry" logger.

Each probe computes its tower weights (the [rho_n]! and (2k)_n products)
once, on first use, and every series and quadrature node reads them.  The
Gauss-Laguerre rule is memoised per (node count, 2k - 1) and handed out as
read-only arrays, and F is summed over all nodes at once, term by term in
the order of the scalar series, so both routes give the same bits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import integrate
from scipy.special import roots_genlaguerre

from . import algebra
from .algebra import DeformationSpec
from .errors import ConvergenceFailure, DomainError, QuadratureFailure
from .hypergeom import pfq, pochhammer, shift_params
from .states import CSFamily, CSSpec, coefficients, series_params

_log = logging.getLogger(__name__)

# Gauss-Laguerre rules kept in memory, one per (node count, 2k - 1) pair; each
# holds two arrays of a few dozen floats.
_GAUSS_LAGUERRE_RULES = 32


@dataclass(frozen=True)
class LoopSpec:
    """Circular amplitude path alpha(t) = r exp(i w t)."""

    radius: float
    angular_rate: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise DomainError(f"loop radius must be positive, got {self.radius}")
        if self.angular_rate == 0.0:
            raise DomainError("angular rate must be nonzero")


@dataclass(frozen=True)
class LaplaceProbe:
    """Finite normalized tower vector plus the transform parameters.

    deformation_coeffs selects the noncompact deformation entering the
    [rho_n]! weights; the default (1,) is the undeformed case.
    """

    c: tuple[complex, ...]
    k: float
    Z: float
    quad_nodes: int = 64
    deformation_coeffs: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", tuple(complex(v) for v in self.c))
        norm = math.sqrt(sum(abs(v) ** 2 for v in self.c))
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"probe coefficients must be normalized, |c| = {norm}")
        if self.k <= 0.0:
            raise DomainError(f"k must be positive, got {self.k}")
        if self.Z <= 0.0:
            raise DomainError(f"Z must be positive, got {self.Z}")
        if self.quad_nodes < 4:
            raise DomainError("need at least 4 quadrature nodes")
        if not self.deformation_coeffs or self.deformation_coeffs[-1] <= 0.0:
            raise DomainError("probe deformation needs a positive leading coefficient")

    @cached_property
    def deformation(self) -> DeformationSpec:
        return algebra.su11_spec(self.deformation_coeffs, self.k)

    @cached_property
    def _weights(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(f, g) for n < len(c): the eigenstate weights
        f_n = 1/sqrt(n! (2k)_n [rho_n]!) and the displacement weights
        g_n = sqrt((2k)_n / (n! [rho_n]!)), computed once per probe."""
        two_k = 2.0 * self.k
        f, g = [], []
        for n in range(len(self.c)):
            poch = pochhammer(two_k, n).real  # Gamma(n+2k)/Gamma(2k), real and positive
            rho_fact = algebra.deformation_factorial(self.deformation, n)
            f.append(1.0 / math.sqrt(math.factorial(n) * poch * rho_fact))
            g.append(math.sqrt(poch / (math.factorial(n) * rho_fact)))
        return tuple(f), tuple(g)


def connection_coefficient(spec: CSSpec) -> float:
    """The scalar A(xbar) multiplying (alpha* alpha_dot - alpha_dot* alpha)."""
    d = spec.deformation
    factor1 = algebra.deformation_factor(d, 1.0)  # [chi_1]! resp. [rho_1]!
    if spec.family is CSFamily.SU2_PCS:
        prefactor = d.two_j * factor1 / 2.0
    elif spec.family is CSFamily.SU11_BGCS:
        prefactor = 1.0 / (2.0 * (2.0 * d.rep_label) * factor1)
    else:
        prefactor = (2.0 * d.rep_label) / (2.0 * factor1)
    params = series_params(spec)
    base = pfq(params).value.real
    shifted = pfq(shift_params(params, 1)).value.real
    a_val = prefactor * shifted / base
    if not (math.isfinite(base) and math.isfinite(shifted) and math.isfinite(a_val)):
        raise ConvergenceFailure(
            f"connection not finite at xbar={spec.xbar:g}: "
            f"series {base} and shifted {shifted} give A = {a_val}"
        )
    return a_val


def berry_phase_loop(spec_template: CSSpec, loop: LoopSpec) -> float:
    """gamma = i * integral of the overlap derivative around the loop.

    The amplitude magnitude is pinned to loop.radius, so xbar and with it
    the connection A are constant along the circle, and one traversal gives
    gamma = -4 pi A r^2 times the sign of the angular rate.
    """
    anchor = CSSpec(
        spec_template.family, spec_template.deformation, complex(loop.radius)
    )
    a_val = connection_coefficient(anchor)
    sign = math.copysign(1.0, loop.angular_rate)
    return -4.0 * math.pi * a_val * loop.radius**2 * sign


def overlap_derivative_fd(
    spec: CSSpec, velocity: complex, dt: float | None = None
) -> complex:
    """Finite-difference oracle for <psi | d/dt | psi> at amplitude velocity.

    Central difference of the normalized coefficient vectors; matches
    connection_coefficient(spec) * (alpha* v - v* alpha) up to O(dt^2) and
    the truncation tails.
    """
    velocity = complex(velocity)
    if velocity == 0.0:
        return complex(0.0)
    if dt is None:
        scale = max(abs(spec.amplitude), 1e-3)
        dt = 1e-5 * scale / abs(velocity)
    center = coefficients(spec).coeffs
    plus = coefficients(
        CSSpec(spec.family, spec.deformation, spec.amplitude + velocity * dt)
    ).coeffs
    minus = coefficients(
        CSSpec(spec.family, spec.deformation, spec.amplitude - velocity * dt)
    ).coeffs
    size = max(center.size, plus.size, minus.size)

    def pad(arr: np.ndarray) -> np.ndarray:
        out = np.zeros(size, dtype=complex)
        out[: arr.size] = arr
        return out

    derivative = (pad(plus) - pad(minus)) / (2.0 * dt)
    return complex(np.vdot(pad(center), derivative))


def bg_series(probe: LaplaceProbe, xi: complex) -> complex:
    """F(xi, k): the entire series on the eigenstate-family weights."""
    acc = complex(0.0)
    power = complex(1.0)
    for c_n, f_n in zip(probe.c, probe._weights[0]):
        acc += c_n * f_n * power
        power *= xi
    return acc


def pcs_series_at_inverse(probe: LaplaceProbe) -> complex:
    """G(1/Z, k): the series on the displacement-family weights at eta = 1/Z."""
    acc = complex(0.0)
    power = 1.0
    for c_n, g_n in zip(probe.c, probe._weights[1]):
        acc += c_n * g_n * power
        power /= probe.Z
    return acc


@lru_cache(maxsize=_GAUSS_LAGUERRE_RULES)
def _gauss_laguerre(nodes: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule for u^alpha e^{-u}; read-only, as they are shared."""
    u, w = roots_genlaguerre(nodes, alpha)
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def _laplace_quadrature(probe: LaplaceProbe, nodes: int) -> complex:
    """(Z^{2k}/Gamma(2k)) integral xi^{2k-1} F(xi) e^{-Z xi} dxi, u = Z xi.

    F is summed at all nodes at once, term by term as bg_series sums it.
    """
    two_k = 2.0 * probe.k
    u, w = _gauss_laguerre(nodes, two_k - 1.0)
    xi = u / probe.Z
    values = np.zeros(nodes, dtype=complex)
    power = np.ones(nodes)
    for c_n, f_n in zip(probe.c, probe._weights[0]):
        values += c_n * f_n * power
        power *= xi
    return complex(np.dot(w, values) / math.exp(math.lgamma(two_k)))


def laplace_check(probe: LaplaceProbe) -> tuple[complex, complex, float]:
    """(lhs, rhs, |lhs - rhs|) of the Laplace identity for this probe."""
    lhs = pcs_series_at_inverse(probe)
    rhs = _laplace_quadrature(probe, probe.quad_nodes)
    cross = _laplace_quadrature(probe, probe.quad_nodes + 16)
    disagreement = abs(rhs - cross)
    if disagreement > 1e-12 * max(abs(rhs), 1.0):
        _log.debug(
            "laplace_check k=%g Z=%g: %d- and %d-node Gauss-Laguerre differ by %.3e; "
            "adaptive fallback",
            probe.k, probe.Z, probe.quad_nodes, probe.quad_nodes + 16, disagreement,
        )
        rhs = _laplace_adaptive(probe)
    return lhs, rhs, abs(lhs - rhs)


def _laplace_adaptive(probe: LaplaceProbe, tol: float = 1e-10) -> complex:
    """The Laplace side by adaptive quadrature, with an error of at most tol.

    tol bounds the returned, Gamma(2k)-normalized value, so each part of the
    raw integral is asked for tol / (2 * prefactor) with no relative target.
    """
    two_k = 2.0 * probe.k
    prefactor = probe.Z**two_k / math.exp(math.lgamma(two_k))
    eps = 0.5 * tol / prefactor

    def integrand(xi: float, part: str) -> float:
        val = xi ** (two_k - 1.0) * bg_series(probe, xi) * math.exp(-probe.Z * xi)
        return val.real if part == "re" else val.imag

    quad = dict(epsabs=eps, epsrel=0.0, limit=200)
    re, re_err = integrate.quad(integrand, 0.0, np.inf, args=("re",), **quad)
    im, im_err = integrate.quad(integrand, 0.0, np.inf, args=("im",), **quad)
    err = prefactor * (re_err + im_err)
    if err > tol:
        raise QuadratureFailure(f"adaptive integration error {err:.3e} above {tol}")
    return prefactor * complex(re, im)


def gamma_quadrature_probe(n: int, k: float, nodes: int = 64) -> float:
    """Gamma(n + 2k) recovered through the same Gauss-Laguerre rule.

    This is the scaled integral representation Gamma(n+2k) =
    Z^{2k+n} integral xi^{2k+n-1} e^{-Z xi} dxi after u = Z xi, where the Z
    powers cancel identically.
    """
    u, w = _gauss_laguerre(nodes, 2.0 * k - 1.0)
    return float(np.dot(w, u ** float(n)))
