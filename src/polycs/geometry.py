"""Berry connection / loop phase and the Laplace bridge between the two
noncompact coherent-state families.

Berry connection.  For every family the exact overlap derivative collapses to

    <psi | d/dt | psi> = A(xbar) (alpha* dalpha/dt - dalpha*/dt alpha),

with the real scalar A = (1/2) (dxbar/d|alpha|^2) N'/N, read from the same
norm N(xbar) and its exact parameter-shift derivative as the photon
statistics (dxbar/d|alpha|^2 = c_p for su(2) PCS, 1/c_p for su(1,1)).

The geometric phase over a closed amplitude loop is gamma =
i * integral_0^T <psi|d/dt|psi> dt.  On a circle of radius r, xbar and with
it A are constant, so gamma = -4 pi A r^2 = -2 pi <n> times the traversal
sign in closed form, which for the linear compact family reproduces the
classical -4 pi j r^2 / (1 + r^2).

Laplace bridge.  A normalized tower vector c defines two entire series, one
on the eigenstate-family weights (F) and one on the displacement-family
weights (G); they satisfy

    G(1/Z, k) = Z^{2k} / Gamma(2k) * integral_0^inf xi^{2k-1} F(xi, k) e^{-Z xi} dxi.

The prefactor carries Gamma(2k), not its square root: the constant probe
c = (1, 0, ...) forces G = 1 and the integral equals Gamma(2k) Z^{-2k}, so
only the Gamma(2k) normalization closes the identity.  A length-L probe makes
F a polynomial of degree L - 1, which the generalized Gauss-Laguerre rule of
ceil(L/2) nodes (weight u^{2k-1} e^{-u}, u = Z xi), the fewest exact for it,
integrates exactly.  There is no other quadrature, fallback or log record:
the closed series G is the identity's independent oracle.

Tower terms come from ratio recurrences (t_n = t_{n-1} xi r_n for F, s_n =
s_{n-1} q_n for G, the families' coefficient ratios at unit amplitude on the
ladder rule, `algebra.ladder_elements`), computed once per probe, so no
factorial-sized quantity is formed.  The rule evaluates F with the scalar
series itself, bg_series on Python complexes at each node, so the quadrature
has that route's bits by construction; the weighted sum over the nodes is the
one numpy call.  A non-finite series raises QuadratureFailure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import algebra
from .algebra import DeformationSpec
from .errors import ConvergenceFailure, DomainError, QuadratureFailure
from .states import CSSpec, coefficients, series_params, series_variable
from .stats import norm_and_slope

# Gauss-Laguerre rules kept in memory, one per (node count, 2k) pair; each
# holds two arrays of at most a few hundred floats.
_GAUSS_LAGUERRE_RULES = 32
# Berry connections kept in memory, one float per state: a caller that asks
# for a state's connection and then its loop phase evaluates the series once.
_CONNECTIONS = 64
# Nodes of the rule behind gamma_quadrature_probe: exact for u^n up to n = 127.
_GAMMA_PROBE_NODES = 64


@dataclass(frozen=True)
class LoopSpec:
    """Circular amplitude path alpha(t) = r exp(i w t)."""

    radius: float
    angular_rate: float

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise DomainError(f"loop radius must be positive and finite, got {self.radius}")
        if not 0.0 < abs(self.angular_rate) < math.inf:
            raise DomainError(f"angular rate must be nonzero and finite, got {self.angular_rate}")


@dataclass(frozen=True)
class LaplaceProbe:
    """Finite normalized tower vector plus the transform parameters.

    deformation_coeffs selects the noncompact deformation entering the
    [phi_n]! weights; the default (1,) is the undeformed case.  The
    deformation at label k is built with the probe, so its rules on the
    label and the coefficients hold for every probe.
    """

    c: tuple[complex, ...]
    k: float
    Z: float
    deformation_coeffs: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", tuple(complex(v) for v in self.c))
        norm = math.sqrt(sum(abs(v) ** 2 for v in self.c))
        if not abs(norm - 1.0) <= 1e-12:
            raise DomainError(f"probe coefficients must be normalized, |c| = {norm}")
        if not 0.0 < self.Z < math.inf:
            raise DomainError(f"Z must be positive and finite, got {self.Z}")
        if self.deformation.coeffs[-1] <= 0.0:
            raise DomainError("probe deformation needs a positive leading coefficient")

    @cached_property
    def deformation(self) -> DeformationSpec:
        return algebra.su11_spec(self.deformation_coeffs, self.k)

    @cached_property
    def _ratios(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(r, q) for n = 1 .. len(c) - 1, the term ratios of F and G(1/Z):
        r_n = 1/sqrt(phi_n), q_n = (2k + (n - 1)) r_n / Z from one ladder walk;
        a phi_n < 0 is its UnitarityViolation, a phi_n of 0 a DomainError."""
        r, q = [], []
        elements = algebra.ladder_elements(self.deformation, 1, len(self.c))
        for n, phi in enumerate(elements, 1):
            if phi == 0.0:
                raise DomainError(f"probe deformation gives phi_{n} = 0")
            r.append(1.0 / math.sqrt(phi))
            q.append((2.0 * self.k + (n - 1)) * r[-1] / self.Z)
        return tuple(r), tuple(q)


@lru_cache(maxsize=_CONNECTIONS)
def connection_coefficient(spec: CSSpec) -> float:
    """A = (1/2) (dxbar/d|alpha|^2) N'/N, the scalar multiplying
    (alpha* alpha_dot - alpha_dot* alpha), by the route of norm_derivatives.

    Memoised per state (CSSpec is frozen): `berry_phase_loop` on an equal
    state reuses the value.
    """
    n0, n1 = norm_and_slope(spec.family, series_params(spec))
    jacobian = series_variable(spec.family, spec.deformation, 1.0)
    a_val = 0.5 * jacobian * n1 / n0
    if not (math.isfinite(n0) and math.isfinite(n1) and math.isfinite(a_val)):
        raise ConvergenceFailure(
            f"connection not finite at xbar={spec.xbar:g}: "
            f"N = {n0} and N' = {n1} give A = {a_val}"
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


def overlap_derivative_fd(spec: CSSpec, velocity: complex) -> complex:
    """Finite-difference oracle for <psi | d/dt | psi> at amplitude velocity.

    Central difference of the normalized coefficient vectors, over a step
    that moves the amplitude by 1e-5 of max(|alpha|, 1e-3); matches
    connection_coefficient(spec) * (alpha* v - v* alpha) up to O(dt^2) and
    the truncation tails.
    """
    velocity = complex(velocity)
    if velocity == 0.0:
        return complex(0.0)
    dt = 1e-5 * max(abs(spec.amplitude), 1e-3) / abs(velocity)
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


def _tower_sum(c, ratios, x, term):
    """sum c_n t_n, t_n = t_{n-1} x ratio_n."""
    acc = c[0] * term
    for c_n, ratio in zip(c[1:], ratios):
        term = term * x * ratio
        acc = acc + c_n * term
    return acc


def bg_series(probe: LaplaceProbe, xi: complex) -> complex:
    """F(xi, k): the entire series on the eigenstate-family weights."""
    return _tower_sum(probe.c, probe._ratios[0], xi, complex(1.0))


def pcs_series_at_inverse(probe: LaplaceProbe) -> complex:
    """G(1/Z, k): the series on the displacement-family weights at eta = 1/Z."""
    return _tower_sum(probe.c, probe._ratios[1], 1.0, 1.0)


def _laguerre_pair(n: int, two_k: float, u: np.ndarray):
    """(L_{n-1}, L_n)^(2k-1) at u, each step divided by max(|L_{m-1}|, |L_m|) so
    nothing overflows or vanishes, and the log of the scale divided out."""
    p0, p1 = np.ones_like(u), two_k - u
    log_scale = np.zeros_like(u)
    for m in range(1, n):
        p0, p1 = p1, ((2.0 * m + two_k - u) * p1 - (m - 1.0 + two_k) * p0) / (m + 1.0)
        scale = np.maximum(np.abs(p0), np.abs(p1))
        p0, p1 = p0 / scale, p1 / scale
        log_scale += np.log(scale)
    return p0, p1, log_scale


@lru_cache(maxsize=_GAUSS_LAGUERRE_RULES)
def _gauss_laguerre(nodes: int, two_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule for the density u^{2k-1} e^{-u} / Gamma(2k),
    read-only as they are shared.  Nodes are Jacobi-matrix eigenvalues after one
    Newton step on L_n; weights, proportional to 1/(L_{n-1} L_n'), are formed in
    logs and sum to 1, so each is accurate relative to its own size (squared
    eigenvector components are not) and no k overflows them."""
    diag = 2.0 * np.arange(nodes) + two_k
    i = np.arange(1.0, nodes)
    off = np.sqrt(i * (i - 1.0 + two_k))
    u = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p0, p1, _ = _laguerre_pair(nodes, two_k, u)
    u = u - u * p1 / (nodes * p1 - (nodes - 1.0 + two_k) * p0)
    p0, p1, log_scale = _laguerre_pair(nodes, two_k, u)
    u_derivative = nodes * p1 - (nodes - 1.0 + two_k) * p0  # u L_n', scaled like p0, p1
    log_w = np.log(u / np.abs(p0 * u_derivative)) - 2.0 * log_scale
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def _laplace_quadrature(probe: LaplaceProbe, nodes: int) -> complex:
    """(Z^{2k}/Gamma(2k)) integral xi^{2k-1} F(xi) e^{-Z xi} dxi, u = Z xi: the
    mean of F(u/Z) under the Gamma(2k) density.

    F is bg_series at each node; only the weighted sum is a numpy call.
    """
    u, w = _gauss_laguerre(nodes, 2.0 * probe.k)
    values = [bg_series(probe, node / probe.Z) for node in u.tolist()]
    if all(map(cmath.isfinite, values)):
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = complex(np.dot(w, values))
        if cmath.isfinite(rhs):
            return rhs
    raise QuadratureFailure(
        f"F not finite at the {nodes}-node rule (k={probe.k:g}, Z={probe.Z:g})"
    )


def laplace_check(probe: LaplaceProbe) -> tuple[complex, complex, float]:
    """(lhs, rhs, |lhs - rhs|) of the Laplace identity, on the smallest exact rule."""
    lhs = pcs_series_at_inverse(probe)
    if not cmath.isfinite(lhs):
        raise QuadratureFailure(f"G(1/Z) not finite (k={probe.k:g}, Z={probe.Z:g})")
    rhs = _laplace_quadrature(probe, (len(probe.c) + 1) // 2)
    return lhs, rhs, abs(lhs - rhs)


def gamma_quadrature_probe(n: int, k: float) -> float:
    """Gamma(n + 2k) recovered through the same Gauss-Laguerre rule.

    This is the scaled integral representation Gamma(n+2k) =
    Z^{2k+n} integral xi^{2k+n-1} e^{-Z xi} dxi after u = Z xi, where the Z
    powers cancel identically; the rule's weights carry 1/Gamma(2k).  An n
    outside 0..127, where the rule is exact, or a k not positive and finite
    is a DomainError.
    """
    if n not in range(2 * _GAMMA_PROBE_NODES):
        raise DomainError(f"n must be an integer in 0..{2 * _GAMMA_PROBE_NODES - 1}, got {n}")
    if not 0.0 < k < math.inf:
        raise DomainError(f"k must be positive and finite, got {k}")
    try:
        gamma_2k = math.gamma(2.0 * k)
    except OverflowError:
        raise DomainError(f"Gamma(2k) is past float range at k={k:g}") from None
    u, w = _gauss_laguerre(_GAMMA_PROBE_NODES, 2.0 * k)
    return gamma_2k * float(np.dot(w, u ** float(n)))
