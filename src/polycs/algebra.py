"""Polynomially deformed su(2) / su(1,1) ladder algebras.

Both algebras are encoded through a single structure function

    g(m) = sum_{r=1}^{p} c_r [m (m + 1)]^r,

whose differences give the deformed commutator polynomial (degree 2p-1 in the
diagonal generator) and whose boundary values give the Casimir eigenvalue and
the squared ladder matrix elements over the integer tower basis:

    compact     psi_n = g(j) - g(-j + n - 1) = n (2j + 1 - n) chi_n,
    noncompact  phi_n = g(k + n - 1) - g(k - 1) = n (2k - 1 + n) rho_n.

All of the nonlinearity sits in the deformation factor (chi_n or rho_n), a
polynomial of degree 2p-2 in the tower index n that reduces to the leading
coefficient for p = 1.  Its complex roots feed the hypergeometric
normalization constants used by the coherent-state layer.

The compact family has finite towers of dimension 2j+1 (j a non-negative
half-integer); the noncompact family has infinite towers labelled by a
Bargmann-type index k > 0.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, RootSolveFailure, UnitarityViolation

# Squared ladder elements may round to tiny negatives at exact zeros of the
# tower boundary; anything above this magnitude is a genuine violation.
NEGATIVE_TOL = 1e-12

_HALF_INT_TOL = 1e-9

# Largest normwise backward error accepted for a computed deformation root.
ROOT_TOL = 1e-12


class AlgebraKind(enum.Enum):
    """Compact (finite-dimensional) vs noncompact (infinite) deformation."""

    SU2_LIKE = "su2"
    SU11_LIKE = "su11"


@dataclass(frozen=True)
class DeformationSpec:
    """Parameters of one odd-degree (2p-1) polynomial deformation.

    coeffs holds the p structure-function coefficients (all nonzero).
    rep_label is j (half-integer, compact) or k (positive real, noncompact).
    A spec is constructible with parameters that break unitarity (so the
    validator can diagnose them); the coherent-state layer additionally
    demands a positive leading coefficient, which keeps its series variables
    non-negative.
    """

    kind: AlgebraKind
    p: int
    coeffs: tuple[float, ...]
    rep_label: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "rep_label", float(self.rep_label))
        if self.p < 1:
            raise DomainError(f"p must be a positive integer, got {self.p}")
        if len(self.coeffs) != self.p:
            raise DomainError(
                f"expected {self.p} coefficients, got {len(self.coeffs)}"
            )
        if not all(c != 0.0 and math.isfinite(c) for c in self.coeffs):
            raise DomainError(
                f"deformation coefficients must be finite and nonzero, got {self.coeffs}"
            )
        if not 0.0 < self.rep_label < math.inf:
            raise DomainError(
                f"representation label must be positive and finite, got {self.rep_label}"
            )
        if self.kind is AlgebraKind.SU2_LIKE:
            two_j = 2.0 * self.rep_label
            if abs(two_j - round(two_j)) > _HALF_INT_TOL:
                raise DomainError(f"j must be a half-integer, got {self.rep_label}")

    @property
    def degree(self) -> int:
        """Degree of the commutator polynomial."""
        return 2 * self.p - 1

    @property
    def is_compact(self) -> bool:
        return self.kind is AlgebraKind.SU2_LIKE

    @property
    def two_j(self) -> int:
        """2j as an exact integer (compact kind only)."""
        if not self.is_compact:
            raise DomainError("two_j is defined for the compact kind only")
        return int(round(2.0 * self.rep_label))

    @property
    def dimension(self) -> int:
        """Tower dimension 2j+1 (compact kind only)."""
        return self.two_j + 1


@dataclass(frozen=True)
class RootSet:
    """Leading coefficient and the 2p-2 complex roots of the deformation
    factor, so that factor(n) = leading * prod_i (n - roots[i])."""

    leading: float
    roots: tuple[complex, ...]


def su2_spec(coeffs, j) -> DeformationSpec:
    return DeformationSpec(AlgebraKind.SU2_LIKE, len(tuple(coeffs)), tuple(coeffs), j)


def su11_spec(coeffs, k) -> DeformationSpec:
    return DeformationSpec(AlgebraKind.SU11_LIKE, len(tuple(coeffs)), tuple(coeffs), k)


def structure_function(spec: DeformationSpec, m: float) -> float:
    """g(m) = sum_r c_r [m(m+1)]^r."""
    t = m * (m + 1.0)
    acc = 0.0
    power = 1.0
    for c in spec.coeffs:
        power *= t
        acc += c * power
    return acc


def commutator_poly(spec: DeformationSpec, m: float) -> float:
    """Value of the commutator polynomial at diagonal eigenvalue m.

    Compact: g(m) - g(m-1).  Noncompact: g(m-1) - g(m) (sign convention of
    the noncompact commutator [E+, E-]).
    """
    diff = structure_function(spec, m) - structure_function(spec, m - 1.0)
    return diff if spec.is_compact else -diff


def diagonal_eigenvalue(spec: DeformationSpec, n: int) -> float:
    """Diagonal-generator eigenvalue at tower index n: -j+n or k+n."""
    if spec.is_compact:
        return -spec.rep_label + n
    return spec.rep_label + n


def ladder_sq(spec: DeformationSpec, n: int) -> float:
    """Squared ladder matrix element psi_n (compact) or phi_n (noncompact).

    Raises UnitarityViolation when the value is negative beyond rounding;
    rounding-level negatives at the tower boundary are clamped to zero.
    """
    if n < 0:
        raise DomainError(f"tower index must be non-negative, got {n}")
    if spec.is_compact:
        if n > spec.two_j + 1:
            raise DomainError(
                f"index {n} outside the {spec.dimension}-dimensional tower"
            )
        j = spec.rep_label
        value = structure_function(spec, j) - structure_function(spec, -j + n - 1.0)
    else:
        k = spec.rep_label
        value = structure_function(spec, k + n - 1.0) - structure_function(spec, k - 1.0)
    if value < 0.0:
        if value >= -NEGATIVE_TOL:
            return 0.0
        raise UnitarityViolation(n, value)
    return value


def deformation_factor(spec: DeformationSpec, n: float) -> float:
    """chi_n / rho_n: the degree-(2p-2) polynomial part of the ladder element.

    Evaluated as the double sum over the structure-function expansion; equals
    the leading coefficient identically when p = 1.
    """
    if spec.is_compact:
        j = spec.rep_label
        a = j * (j + 1.0)
        b = (j - n) * (j - n + 1.0)
    else:
        k = spec.rep_label
        a = k * (k - 1.0)
        b = (k + n) * (k + n - 1.0)
    acc = 0.0
    for r in range(1, spec.p + 1):
        c_r = spec.coeffs[r - 1]
        inner = 0.0
        for s in range(1, r + 1):
            inner += a ** (r - s) * b ** (s - 1)
        acc += c_r * inner
    return acc


def deformation_factorial(spec: DeformationSpec, n: int) -> float:
    """Product of the deformation factor over tower indices 1..n."""
    acc = 1.0
    for ell in range(1, n + 1):
        acc *= deformation_factor(spec, float(ell))
    return acc


def deformation_poly_coeffs(spec: DeformationSpec) -> np.ndarray:
    """Ascending monomial coefficients (in n) of the deformation factor.

    Length 2p-1; the leading entry equals coeffs[-1] exactly.
    """
    label = spec.rep_label
    if spec.is_compact:
        a = label * (label + 1.0)
        base = np.array([a, -(2.0 * label + 1.0), 1.0])
    else:
        a = label * (label - 1.0)
        base = np.array([a, 2.0 * label - 1.0, 1.0])
    out = np.zeros(2 * spec.p - 1)
    q_pow = np.array([1.0])
    for s in range(1, spec.p + 1):
        weight = 0.0
        for r in range(s, spec.p + 1):
            weight += spec.coeffs[r - 1] * a ** (r - s)
        out[: q_pow.size] += weight * q_pow
        if s < spec.p:
            q_pow = npoly.polymul(q_pow, base)
    return out


def deformation_roots(spec: DeformationSpec) -> RootSet:
    """Roots of the deformation factor as a polynomial in the tower index.

    p = 1 has no roots; p = 2 uses the closed quadratic formula; higher p
    takes numpy's polyroots, and each root z must keep the normwise backward
    error |q(z)| / sum_i |c_i| |z|^i within ROOT_TOL, else RootSolveFailure.
    Roots are returned sorted by (real, imag) for reproducibility.
    """
    leading = spec.coeffs[-1]
    if spec.p == 1:
        return RootSet(leading=leading, roots=())
    if spec.p == 2:
        c1, c2 = spec.coeffs
        label = spec.rep_label
        if spec.is_compact:
            lin = 2.0 * label + 1.0
            disc = lin**2 - 8.0 * label * (label + 1.0) - 4.0 * c1 / c2
            root = cmath.sqrt(complex(disc))
            pair = (0.5 * (lin + root), 0.5 * (lin - root))
        else:
            lin = 2.0 * label - 1.0
            disc = lin**2 - 8.0 * label * (label - 1.0) - 4.0 * c1 / c2
            root = cmath.sqrt(complex(disc))
            pair = (-0.5 * (lin + root), -0.5 * (lin - root))
        roots = sorted(pair, key=lambda w: (w.real, w.imag))
        return RootSet(leading=leading, roots=tuple(roots))
    try:
        # overflow here is reported as RootSolveFailure below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = deformation_poly_coeffs(spec)
    except OverflowError:
        coeffs = np.array([np.inf])
    if not np.all(np.isfinite(coeffs)):
        raise RootSolveFailure(f"factor coefficients overflow at label {spec.rep_label:g}")
    raw = npoly.polyroots(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = npoly.polyval(np.abs(raw), np.abs(coeffs))
        residual = np.abs(npoly.polyval(raw, coeffs))
    # An infinite scale would pass any root as |q(z)| / inf = 0 untested.
    if not np.all(np.isfinite(scale)):
        raise RootSolveFailure(f"root backward error overflows at label {spec.rep_label:g}")
    # An exact zero root of a factor with c_0 = 0 gives 0/0; its error is 0.
    worst = np.max(residual / np.where(scale == 0.0, 1.0, scale))
    if not worst <= ROOT_TOL:
        raise RootSolveFailure(f"root backward error {worst:.3e} exceeds {ROOT_TOL:g}")
    roots = sorted((complex(w) for w in raw), key=lambda w: (w.real, w.imag))
    return RootSet(leading=leading, roots=tuple(roots))


def validate_unitarity(spec: DeformationSpec, n_cap: int = 1000) -> None:
    """Check positivity of the squared ladder elements over the tower.

    Compact towers are checked exhaustively (n = 1..2j); noncompact towers up
    to n_cap.  Raises UnitarityViolation naming the first offending index.
    """
    top = spec.two_j if spec.is_compact else n_cap
    for n in range(1, top + 1):
        ladder_sq(spec, n)


def casimir_eigenvalue(spec: DeformationSpec) -> float:
    """Casimir eigenvalue on the tower: g(j) compactly, g(k-1) noncompactly."""
    if spec.is_compact:
        return structure_function(spec, spec.rep_label)
    return structure_function(spec, spec.rep_label - 1.0)


def casimir_from_operators(spec: DeformationSpec, n: int) -> float:
    """Casimir evaluated through the operator combination at tower index n.

    Compact: (1/2)[psi_n + psi_{n+1} + g(-j+n) + g(-j+n-1)].
    Noncompact: (1/2)[g(k+n) + g(k+n-1) - phi_n - phi_{n+1}].
    Constancy across n is the representation-consistency check.
    """
    m = diagonal_eigenvalue(spec, n)
    g_here = structure_function(spec, m)
    g_below = structure_function(spec, m - 1.0)
    if spec.is_compact:
        return 0.5 * (ladder_sq(spec, n) + ladder_sq(spec, n + 1) + g_here + g_below)
    return 0.5 * (g_here + g_below - ladder_sq(spec, n) - ladder_sq(spec, n + 1))


def factored_deformation_factor(rootset: RootSet, n: float) -> complex:
    """Deformation factor reassembled from its root factorization."""
    acc = complex(rootset.leading)
    for root in rootset.roots:
        acc *= n - root
    return acc


def higgs_su2(j: float) -> DeformationSpec:
    """Cubic compact deformation with the conventional (1, 2) coefficients."""
    return su2_spec((1.0, 2.0), j)


def higgs_su11(k: float) -> DeformationSpec:
    """Cubic noncompact deformation with the conventional (1, 2) coefficients."""
    return su11_spec((1.0, 2.0), k)


def linear_su2(j: float) -> DeformationSpec:
    return su2_spec((1.0,), j)


def linear_su11(k: float) -> DeformationSpec:
    return su11_spec((1.0,), k)
