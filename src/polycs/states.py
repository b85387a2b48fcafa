"""The three coherent-state families over the deformed algebras.

* SU2_PCS   -- displacement-type (Perelomov) state on a finite compact tower,
               coefficients sqrt(binom(2j, n) [chi_n]!) zeta^n.
* SU11_BGCS -- lowering-operator eigenstate (Barut-Girardello),
               coefficients xi^n / sqrt([phi_n]!).
* SU11_PCS  -- displacement-type state on the noncompact tower,
               coefficients sqrt((2k)_n / (n! [rho_n]!)) eta^n.

Each family's squared norm is a generalized hypergeometric series in the
non-negative variable

    x = c_p |zeta|^2,   y = |xi|^2 / c_p,   z = |eta|^2 / c_p,

(c_p the leading deformation coefficient), referred to throughout as xbar:

    SU2_PCS    {2p-1}F{0}[-2j, 1-a_1..1-a_{2p-2}; -; -x]
    SU11_BGCS  {0}F{2p-1}[-; 2k, 1-b_1..1-b_{2p-2}; y]
    SU11_PCS   {1}F{2p-2}[2k; 1-b_1..1-b_{2p-2}; z]

Coefficient vectors are built by a stable ratio recurrence (never by raw
factorials, which overflow near n = 170), normalized, and truncated so that
the trailing coefficient amplitude falls below eps of the running norm.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import AlgebraKind, DeformationSpec
from .errors import ConvergenceFailure, DomainError
from .hypergeom import SeriesParams, pfq

_RATIO_CAP = 0.999  # truncation requires the local term ratio below this
_RESCALE_AT = 1e150
_MAX_COEFFS = 10_000  # recurrence steps before the noncompact tower gives up


class CSFamily(enum.Enum):
    SU2_PCS = "su2-pcs"
    SU11_BGCS = "su11-bgcs"
    SU11_PCS = "su11-pcs"


_FAMILY_KIND = {
    CSFamily.SU2_PCS: AlgebraKind.SU2_LIKE,
    CSFamily.SU11_BGCS: AlgebraKind.SU11_LIKE,
    CSFamily.SU11_PCS: AlgebraKind.SU11_LIKE,
}


@dataclass(frozen=True)
class CSSpec:
    """One coherent state: family, deformation, and complex amplitude."""

    family: CSFamily
    deformation: DeformationSpec
    amplitude: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if self.deformation.kind is not _FAMILY_KIND[self.family]:
            raise DomainError(
                f"{self.family.value} requires a "
                f"{_FAMILY_KIND[self.family].value} deformation"
            )
        if self.deformation.coeffs[-1] <= 0.0:
            raise DomainError(
                "coherent states need a positive leading deformation "
                "coefficient (non-negative series variable)"
            )
        if not math.isfinite(self.xbar):
            raise DomainError(f"xbar must be finite, got {self.xbar}")
        if (
            self.family is CSFamily.SU11_PCS
            and self.deformation.p == 1
            and self.xbar >= 1.0
        ):
            raise DomainError(
                f"linear su(1,1) displacement state needs xbar < 1, got {self.xbar}"
            )

    @property
    def xbar(self) -> float:
        """The non-negative series variable (x, y or z per family)."""
        try:
            mag2 = abs(self.amplitude) ** 2
        except OverflowError:  # past float range; __post_init__ rejects it
            mag2 = math.inf
        return series_variable(self.family, self.deformation, mag2)


@dataclass(frozen=True)
class CoefficientVector:
    """Truncated expansion coefficients over the integer tower basis.

    tail_bound is an l2 amplitude bound on everything at and beyond the last
    kept index (0 for exact finite towers).
    """

    coeffs: np.ndarray
    truncation: int
    tail_bound: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


def series_variable(family: CSFamily, deformation: DeformationSpec, mag2: float) -> float:
    """xbar at |alpha|^2 = mag2; linear, so its value at mag2 = 1 is dxbar/d|alpha|^2."""
    leading = deformation.coeffs[-1]
    return leading * mag2 if family is CSFamily.SU2_PCS else mag2 / leading


def cs_from_xbar(
    family: CSFamily, deformation: DeformationSpec, xbar: float
) -> CSSpec:
    """Build a state with real positive amplitude from the series variable."""
    if xbar < 0.0:
        raise DomainError(f"xbar must be non-negative, got {xbar}")
    leading = deformation.coeffs[-1]
    if leading <= 0.0:
        raise DomainError("coherent states need a positive leading coefficient")
    if family is CSFamily.SU2_PCS:
        amp = math.sqrt(xbar / leading)
    else:
        amp = math.sqrt(xbar * leading)
    return CSSpec(family, deformation, complex(amp))


def family_deformation(
    family: CSFamily, coeffs: tuple[float, ...], label: float
) -> DeformationSpec:
    """The deformation of the family's kind with these coefficients and label."""
    if _FAMILY_KIND[family] is AlgebraKind.SU2_LIKE:
        return algebra.su2_spec(coeffs, label)
    return algebra.su11_spec(coeffs, label)


def norm_series(
    family: CSFamily, deformation: DeformationSpec, xbar: float
) -> SeriesParams:
    """pFq parameters of the family's squared-norm series at xbar."""
    d = deformation
    roots = algebra.deformation_roots(d).roots
    shifted = tuple(1.0 - r for r in roots)
    if family is CSFamily.SU2_PCS:
        return SeriesParams((-float(d.two_j),) + shifted, (), -xbar)
    two_k = 2.0 * d.rep_label
    if family is CSFamily.SU11_BGCS:
        return SeriesParams((), (two_k,) + shifted, xbar)
    return SeriesParams((two_k,), shifted, xbar)


def series_params(spec: CSSpec) -> SeriesParams:
    """pFq parameters of the squared-norm series at this state's xbar."""
    return norm_series(spec.family, spec.deformation, spec.xbar)


def arg_sign(family: CSFamily) -> float:
    """d(series argument)/d(xbar): -1 for the compact family, +1 otherwise."""
    return -1.0 if family is CSFamily.SU2_PCS else 1.0


def normalization(spec: CSSpec) -> float:
    """Squared-norm constant N(xbar) > 0 of the unnormalized expansion."""
    return pfq(series_params(spec)).value.real


def _ratio(spec: CSSpec, n: int) -> complex:
    """Coefficient ratio c_{n+1} / c_n of the unnormalized expansion."""
    d = spec.deformation
    step = math.sqrt(algebra.ladder_sq(d, n + 1))
    if spec.family is CSFamily.SU2_PCS:
        return spec.amplitude * step / (n + 1)
    if spec.family is CSFamily.SU11_BGCS:
        return spec.amplitude / step
    return spec.amplitude * (2.0 * d.rep_label + n) / step


def coefficients(spec: CSSpec, eps: float = 1e-12) -> CoefficientVector:
    """Normalized coefficient vector of the state.

    Compact states keep the full tower (truncation = 2j exactly).  Noncompact
    states grow until the last coefficient drops below eps (finite, >= 0) of
    the running norm while the local ratio signals decay.
    """
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and non-negative, got {eps}")
    if spec.family is CSFamily.SU2_PCS:
        dim = spec.deformation.dimension
        c = np.zeros(dim, dtype=complex)
        c[0] = 1.0
        for n in range(dim - 1):
            c[n + 1] = c[n] * _ratio(spec, n)
            if abs(c[n + 1]) > _RESCALE_AT:
                c /= abs(c[n + 1])
        c /= np.linalg.norm(c)
        return CoefficientVector(c, dim - 1, 0.0)

    if spec.amplitude == 0.0:
        return CoefficientVector(np.ones(1, dtype=complex), 0, 0.0)

    coeffs = [complex(1.0)]
    sumsq = 1.0
    recent: list[float] = []
    n = 0
    max_terms = _MAX_COEFFS  # a local: the loop compares against it every step
    while n < max_terms:
        ratio = _ratio(spec, n)
        nxt = coeffs[-1] * ratio
        coeffs.append(nxt)
        sumsq += abs(nxt) ** 2
        n += 1
        if abs(nxt) > _RESCALE_AT:
            scale = abs(nxt)
            coeffs = [c / scale for c in coeffs]
            sumsq /= scale**2
        recent.append(abs(ratio))
        if len(recent) > 5:
            recent.pop(0)
        if (
            n >= 5
            and abs(coeffs[-1]) <= eps * math.sqrt(sumsq)
            and max(recent) < _RATIO_CAP
        ):
            break
    else:
        raise ConvergenceFailure(
            f"coefficient recurrence did not truncate within {max_terms} terms"
        )
    arr = np.array(coeffs, dtype=complex)
    arr /= np.linalg.norm(arr)
    r_hat = min(max(recent), _RATIO_CAP)
    tail = abs(arr[-1]) / (1.0 - r_hat)
    return CoefficientVector(arr, n, tail)


def apply_lowering(spec: DeformationSpec, v: CoefficientVector) -> CoefficientVector:
    """Unnormalized lowering action: out_n = sqrt(ladder_sq(n+1)) v_{n+1}."""
    src = v.coeffs
    size = max(src.size - 1, 1)
    out = np.zeros(size, dtype=complex)
    for n in range(src.size - 1):
        out[n] = math.sqrt(algebra.ladder_sq(spec, n + 1)) * src[n + 1]
    return CoefficientVector(out, size - 1, v.tail_bound)


def apply_raising(spec: DeformationSpec, v: CoefficientVector) -> CoefficientVector:
    """Unnormalized raising action: out_n = sqrt(ladder_sq(n)) v_{n-1}.

    On a full compact tower the spill over the top carries the exact factor
    psi_{2j+1} = 0, so the output stays inside the representation.
    """
    src = v.coeffs
    size = src.size + 1
    if spec.is_compact:
        size = min(size, spec.dimension)
    out = np.zeros(size, dtype=complex)
    for n in range(1, size):
        out[n] = math.sqrt(algebra.ladder_sq(spec, n)) * src[n - 1]
    return CoefficientVector(out, size - 1, v.tail_bound)


def bg_eigen_residual(spec: CSSpec) -> float:
    """Norm of (K_- - xi) applied to the lowering eigenstate, truncated at the
    default eps."""
    if spec.family is not CSFamily.SU11_BGCS:
        raise DomainError("eigenstate residual is defined for the BGCS family")
    v = coefficients(spec)
    lowered = apply_lowering(spec.deformation, v)
    padded = np.zeros(v.coeffs.size, dtype=complex)
    padded[: lowered.coeffs.size] = lowered.coeffs
    return float(np.linalg.norm(padded - spec.amplitude * v.coeffs))
