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
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, PolycsError, RootSolveFailure, UnitarityViolation

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

    coeffs holds the structure-function coefficients c_1 .. c_p (at least
    one, all finite and nonzero); their count is the order p.
    rep_label is j (half-integer, compact) or k (positive real, noncompact).
    A spec is constructible with parameters that break unitarity (so the
    validator can diagnose them).  The coherent-state layer reads the roots
    only through `unitary_roots` and also demands a positive leading
    coefficient, which keeps its series variables non-negative.
    """

    kind: AlgebraKind
    coeffs: tuple[float, ...]
    rep_label: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "rep_label", float(self.rep_label))
        if not self.coeffs:
            raise DomainError("a deformation needs at least one coefficient")
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
    def p(self) -> int:
        """Order of the deformation: the number of coefficients."""
        return len(self.coeffs)

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

    @cached_property
    def unitary_roots(self) -> RootSet:
        """`validate_unitarity(self)`, memoised: one root solve per spec."""
        return validate_unitarity(self)


@dataclass(frozen=True)
class RootSet:
    """Leading coefficient and the 2p-2 complex roots of the deformation
    factor, so that factor(n) = leading * prod_i (n - roots[i]).

    zero_at is the first tower index at which `validate_unitarity` found a
    squared ladder element of 0, and None where it found none or did not look.
    """

    leading: float
    roots: tuple[complex, ...]
    zero_at: int | None = None


def su2_spec(coeffs, j) -> DeformationSpec:
    return DeformationSpec(AlgebraKind.SU2_LIKE, coeffs, j)


def su11_spec(coeffs, k) -> DeformationSpec:
    return DeformationSpec(AlgebraKind.SU11_LIKE, coeffs, k)


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


def _ladder_ends(spec: DeformationSpec) -> tuple[float, float]:
    """(offset, end) of the ladder rule: m = offset + n - 1 at tower index n,
    and the constant end g(j) or g(k - 1)."""
    label = spec.rep_label
    if spec.is_compact:
        return -label, structure_function(spec, label)
    return label, structure_function(spec, label - 1.0)


def _ladder_rule(coeffs, compact, offset, end, n):
    """The squared ladder element at tower index n, a float or a float array
    of indices: each step is one IEEE operation on either, so an array entry
    has the bits of the scalar."""
    m = offset + n - 1.0
    t = m * (m + 1.0)
    acc = 0.0
    power = 1.0
    for c in coeffs:
        power *= t
        acc += c * power
    return end - acc if compact else acc - end


def _element_error(n: int, value: float) -> PolycsError:
    """The refusal of a squared ladder element beyond the clamp at index n."""
    if value < 0.0:
        return UnitarityViolation(n, value)
    return DomainError(f"squared ladder element at index {n} is {value}")


def ladder_elements(spec: DeformationSpec, start: int = 1, stop: int | None = None):
    """psi_n (compact) or phi_n for start <= n < stop, by default to the end of
    the tower (n = 2j + 1, or never): the one home of the ladder rule, reading
    the constant end g(j) or g(k - 1) once.  A rounding-level negative is
    clamped to zero; beyond NEGATIVE_TOL it raises UnitarityViolation, and a
    non-finite value DomainError, at its n.
    """
    coeffs, compact = spec.coeffs, spec.is_compact
    offset, end = _ladder_ends(spec)
    if stop is None and compact:
        stop = spec.two_j + 2
    for n in itertools.count(start) if stop is None else range(start, stop):
        value = _ladder_rule(coeffs, compact, offset, end, n)
        if value < 0.0:
            if value < -NEGATIVE_TOL:
                raise _element_error(n, value)
            value = 0.0
        elif not value < math.inf:
            raise _element_error(n, value)
        yield value


def ladder_array(
    spec: DeformationSpec, start: int, stop: int
) -> tuple[np.ndarray, PolycsError | None]:
    """`ladder_elements(spec, start, stop)` as one float64 array, with its bits.

    The array ends before the first index at which the generator raises, and
    that exception comes with it (else None).  numpy's floating-point
    warnings (an element past float range) are left to the caller's
    `np.errstate`.
    """
    offset, end = _ladder_ends(spec)
    n = np.arange(start, stop, dtype=float)
    values = _ladder_rule(spec.coeffs, spec.is_compact, offset, end, n)
    error = None
    if values.size:
        low = np.minimum.reduce(values)
        if not (low >= -NEGATIVE_TOL and np.maximum.reduce(values) < math.inf):
            bad = int(np.argmin((values >= -NEGATIVE_TOL) & (values < math.inf)))
            error = _element_error(start + bad, float(values[bad]))
            values = values[:bad]
        if not low >= 0.0:
            np.maximum(values, 0.0, out=values)
    return values, error


def ladder_sq(spec: DeformationSpec, n: int) -> float:
    """Squared ladder matrix element psi_n (compact) or phi_n (noncompact)."""
    if n < 0:
        raise DomainError(f"tower index must be non-negative, got {n}")
    if spec.is_compact and n > spec.two_j + 1:
        raise DomainError(f"index {n} outside the {spec.dimension}-dimensional tower")
    (value,) = ladder_elements(spec, n, n + 1)
    return value


def deformation_factor(spec: DeformationSpec, n: float) -> float:
    """chi_n / rho_n, the degree-(2p-2) polynomial part of the ladder element,
    as an oracle only: every tower walk reads `ladder_elements`.

    Evaluated as the double sum over the structure-function expansion; equals
    the leading coefficient identically when p = 1."""
    if spec.is_compact:
        j = spec.rep_label
        a = j * (j + 1.0)
        b = (j - n) * (j - n + 1.0)
    else:
        k = spec.rep_label
        a = k * (k - 1.0)
        b = (k + n) * (k + n - 1.0)
    acc = 0.0
    for r, c_r in enumerate(spec.coeffs, 1):
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


def deformation_poly_coeffs(spec: DeformationSpec) -> list[float]:
    """Ascending monomial coefficients (in n) of the deformation factor.

    Length 2p-1; the leading entry equals coeffs[-1] exactly.  The powers of
    the quadratic in n are `np.convolve` products, whose two-term dots numpy
    may contract into an FMA; the weighted sum of them is plain float
    arithmetic, with the bits of numpy's elementwise product and sum.
    """
    label = spec.rep_label
    if spec.is_compact:
        a = label * (label + 1.0)
        base = (a, -(2.0 * label + 1.0), 1.0)
    else:
        a = label * (label - 1.0)
        base = (a, 2.0 * label - 1.0, 1.0)
    p = spec.p
    out = [0.0] * (2 * p - 1)
    q_pow = [1.0]
    for s in range(1, p + 1):
        weight = 0.0
        for r in range(s, p + 1):
            weight += spec.coeffs[r - 1] * a ** (r - s)
        for i, q in enumerate(q_pow):
            out[i] += weight * q
        if s < p:
            q_pow = np.convolve(q_pow, base).tolist()
    return out


def _re_im(w: complex) -> tuple[float, float]:
    return w.real, w.imag


def deformation_roots(spec: DeformationSpec) -> RootSet:
    """Roots of the deformation factor as a polynomial in the tower index.

    p = 1 has no roots; p = 2 uses the closed quadratic formula; higher p
    takes the eigenvalues of the companion matrix, built as numpy's polyroots
    builds it, so the roots have its bits, in the one LAPACK call of the
    solve; the rest is Python float and complex arithmetic.  Each root z must
    keep the normwise backward error |q(z)| / sum_i |c_i| |z|^i within
    ROOT_TOL, else RootSolveFailure, as must a coefficient or companion entry
    past float range.  The error's Horner loop need not round as numpy's SIMD
    complex product and absolute value do, so where rounding noise dominates
    the error its last digits may differ from numpy's.  Roots are returned
    sorted by (real, imag) for reproducibility.
    """
    leading = spec.coeffs[-1]
    if spec.p == 1:
        return RootSet(leading=leading, roots=())
    if spec.p == 2:
        c1, c2 = spec.coeffs
        label = spec.rep_label
        sign = 1.0 if spec.is_compact else -1.0
        lin = 2.0 * label + sign
        try:
            disc = lin**2 - 8.0 * label * (label + sign) - 4.0 * c1 / c2
        except OverflowError:  # lin**2 past float range
            disc = math.inf
        root = cmath.sqrt(complex(disc))
        pair = (0.5 * sign * (lin + root), 0.5 * sign * (lin - root))
        if not all(cmath.isfinite(w) for w in pair):
            raise RootSolveFailure(f"closed-form roots overflow at label {label:g}")
        return RootSet(leading=leading, roots=tuple(sorted(pair, key=_re_im)))
    try:
        coeffs = deformation_poly_coeffs(spec)
        # numpy's fill: zeros minus the ratios, so a zero entry stays +0
        column = [0.0 - c / leading for c in coeffs[:-1]]
    except OverflowError:  # a power of the label's quadratic past float range
        column = [math.inf]
    if not all(map(math.isfinite, column)):
        raise RootSolveFailure(f"factor coefficients overflow at label {spec.rep_label:g}")
    dim = len(column)
    flat = [0.0] * (dim * dim)
    flat[dim :: dim + 1] = [1.0] * (dim - 1)
    flat[dim - 1 :: dim] = column
    raw = np.linalg.eigvals(np.array(flat).reshape(dim, dim))
    roots = sorted(map(complex, raw.tolist()), key=_re_im)
    worst = 0.0
    for z in roots:
        size = abs(z)
        scale, value = abs(leading), complex(leading)
        for c in coeffs[-2::-1]:
            scale = abs(c) + scale * size
            value = c + value * z
        # An infinite scale would pass any root as |q(z)| / inf = 0 untested.
        if not scale < math.inf:
            raise RootSolveFailure(f"root backward error overflows at label {spec.rep_label:g}")
        # An exact zero root of a factor with c_0 = 0 gives 0/0; its error is 0.
        error = abs(value) / (scale or 1.0)
        if error > worst or error != error:  # as np.max, a nan is the worst
            worst = error
    if not worst <= ROOT_TOL:
        raise RootSolveFailure(f"root backward error {worst:.3e} exceeds {ROOT_TOL:g}")
    return RootSet(leading=leading, roots=tuple(roots))


def validate_unitarity(spec: DeformationSpec) -> RootSet:
    """The roots, once every squared ladder element of the tower is >= 0.

    An element has the sign of chi_n or rho_n = c_p prod_i (n - r_i), which
    changes only across a real root r, so the elements at n = 1 and at
    floor(Re r) .. floor(Re r) + 2 (a root may come out just below an
    integer) decide the whole tower in O(p) steps of `ladder_elements`, one
    generator per run of consecutive indices.  In ascending order its first
    failure is the UnitarityViolation at the first bad index.  The first
    checked index whose element is 0, exact or clamped, is kept as `zero_at`.
    """
    rootset = deformation_roots(spec)
    compact = spec.is_compact
    top = spec.two_j if compact else math.inf
    stop = top + 1 if compact else None
    checks = {1}
    for low in {math.floor(root.real) for root in rootset.roots}:
        checks.update((low, low + 1, low + 2))
    zero_at = following = None
    for n in sorted(checks):
        if not 1 <= n <= top:
            continue
        if n != following:
            elements = ladder_elements(spec, n, stop)
        following = n + 1
        if next(elements) == 0.0 and zero_at is None:
            zero_at = n
    return RootSet(rootset.leading, rootset.roots, zero_at)


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
