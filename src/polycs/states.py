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
the trailing coefficient amplitude falls below eps of the running norm.  A
scalar step loop runs the first _HEAD steps of every tower.  The tower of a
positive real amplitude runs that loop on floats, and if it is still going
after the head it continues on float64 arrays, in blocks that double from
_HEAD steps up to _MAX_BLOCK: ratios from `algebra.ladder_array`,
coefficients and running norm as sequential accumulates, and squares from
libm `pow` (`np.float_power`), which rounds as the loop's `**` does where
x * x does not; a rescale ends its block.  Each step keeps the bits of the
complex loop, which alone runs every other amplitude.  No tower is rerun.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import AlgebraKind, DeformationSpec
from .errors import ConvergenceFailure, DivergentSeries, DomainError
from .hypergeom import MAX_TERMS, SeriesParams, pfq, validate

_RATIO_CAP = 0.999  # truncation requires the local term ratio below this
_RESCALE_AT = 1e150
# Recurrence steps before the noncompact tower gives up, and the largest su(2)
# tower dimension accepted: a larger one's norm series outruns `pfq`'s term cap.
_MAX_COEFFS = MAX_TERMS
# Loop steps before a tower of a positive real amplitude continues on arrays,
# and the longest array block; blocks double from _HEAD.  An array block has
# a fixed cost of some 50 loop steps, which a head of 32 pays on towers of 33
# to 100 elements.
_HEAD = 64
_MAX_BLOCK = 4096


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
        _positive_leading(self.deformation)
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

    The last kept index is coeffs.size - 1.  tail_bound is an l2 amplitude
    bound on everything at and beyond it (0 for exact finite towers).
    """

    coeffs: np.ndarray
    tail_bound: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


def _positive_leading(deformation: DeformationSpec) -> float:
    """The leading coefficient, which a coherent state needs positive."""
    leading = deformation.coeffs[-1]
    if leading <= 0.0:
        raise DomainError(
            "coherent states need a positive leading deformation "
            "coefficient (non-negative series variable)"
        )
    return leading


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
    leading = _positive_leading(deformation)
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
    """pFq parameters of the family's squared-norm series at xbar.

    The gate of every route to a state's numbers: it refuses an su(2) tower
    of more than _MAX_COEFFS states (DomainError, before any root is solved),
    then a non-unitary deformation (UnitarityViolation, from the memoised
    `DeformationSpec.unitary_roots`), then a noncompact tower with an element
    of 0 (DivergentSeries: a pole of the norm series, which the computed
    roots may miss by 1e-8 at a double root).
    """
    d = deformation
    if d.is_compact and d.dimension > _MAX_COEFFS:
        raise DomainError(
            f"su(2) tower of dimension {d.dimension} exceeds the cap of "
            f"{_MAX_COEFFS} coefficients"
        )
    rootset = d.unitary_roots
    if rootset.zero_at is not None and not d.is_compact:
        raise DivergentSeries(
            f"squared ladder element at index {rootset.zero_at} is 0, "
            "a pole of the norm series"
        )
    shifted = tuple(1.0 - r for r in rootset.roots)
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


def check_eps(eps: float) -> None:
    """Raise DomainError unless the truncation tolerance eps is finite and >= 0."""
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and non-negative, got {eps}")


def coefficients(spec: CSSpec, eps: float = 1e-12) -> CoefficientVector:
    """Normalized coefficient vector of the state.

    The state first meets the norm series' refusals (`norm_series`, then
    `hypergeom.validate`: a zero noncompact element is DivergentSeries).  One
    ratio recurrence builds the tower: compact states keep all of it
    (2j + 1 coefficients exactly); noncompact states grow until the last
    coefficient drops below eps (finite, >= 0) of the running norm while the
    local ratio signals decay.  A coefficient or a running norm past float
    range is ConvergenceFailure at its index.  The amplitude picks the path
    once (`_tower`), and no tower is run twice.
    """
    check_eps(eps)
    validate(series_params(spec))
    compact = spec.family is CSFamily.SU2_PCS
    if spec.amplitude == 0.0 and not compact:
        return CoefficientVector(np.ones(1, dtype=complex), 0.0)
    coeffs, recent = _tower(spec, eps)
    arr = np.array(coeffs, dtype=complex)
    arr /= np.linalg.norm(arr)
    tail = 0.0 if compact else abs(arr[-1]) / (1.0 - min(max(recent), _RATIO_CAP))
    return CoefficientVector(arr, tail)


def _tower(spec: CSSpec, eps: float):
    """(unnormalized coefficients, |ratio| of the last five steps) of the
    truncated tower.

    The step loop reads its squared ladder elements from
    `algebra.ladder_elements`.  A positive real amplitude (imaginary part +0)
    runs it on floats for at most _HEAD steps, then `_array_blocks`; every
    other amplitude runs it on complexes to the end.
    """
    d = spec.deformation
    compact = spec.family is CSFamily.SU2_PCS
    bgcs = spec.family is CSFamily.SU11_BGCS
    two_k = 2.0 * d.rep_label
    amp = spec.amplitude
    arrays = amp.real > 0.0 and amp.imag == 0.0 and math.copysign(1.0, amp.imag) > 0.0
    amp, last = (amp.real, 1.0) if arrays else (amp, complex(1.0))
    coeffs = [last]
    sumsq = 1.0  # running squared norm, for the noncompact truncation test
    recent = [0.0] * 5  # |ratio| of the last five steps, as a ring
    top = d.two_j if compact else _MAX_COEFFS
    head = min(top, _HEAD) if arrays else top
    for n, value in zip(range(1, head + 1), algebra.ladder_elements(d)):
        if compact:
            ratio = amp * math.sqrt(value) / n
        elif bgcs:
            ratio = amp / math.sqrt(value)
        else:
            ratio = amp * (two_k + (n - 1)) / math.sqrt(value)
        last = last * ratio
        coeffs.append(last)
        size = abs(last)
        if not size <= _RESCALE_AT:
            if not size < math.inf:
                raise ConvergenceFailure(f"coefficient of the tower overflows at n = {n}")
            coeffs = [c / size for c in coeffs]
            last = coeffs[-1]
        if compact:  # no truncation test; |c_n|**2 overflows past 1e154
            continue
        try:
            sumsq += size**2
        except OverflowError:
            raise ConvergenceFailure(f"running norm of the tower overflows at n = {n}") from None
        if size > _RESCALE_AT:
            sumsq /= size**2
            size = abs(last)  # the rescaled last coefficient, for the truncation test
        recent[n % 5] = abs(ratio)
        if n >= 5 and size <= eps * math.sqrt(sumsq) and max(recent) < _RATIO_CAP:
            return coeffs, recent
    if head < top:
        window = [recent[(head - i) % 5] for i in (3, 2, 1, 0)]
        return _array_blocks(spec, eps, coeffs, sumsq, window)
    if not compact:
        raise ConvergenceFailure(f"coefficient recurrence did not truncate within {top} terms")
    return coeffs, recent


def _array_blocks(spec: CSSpec, eps: float, head: list, sumsq: float, window: list):
    """`_tower`'s step loop from step len(head) on, on float64 arrays.

    head holds the loop's coefficients, sumsq its running norm and window its
    last four |ratio|, oldest first.  The arrays repeat the loop's real IEEE
    operations in its order: the ratios from `algebra.ladder_array` on the
    block's index array, the coefficients by `np.multiply.accumulate` from
    the last one and the running norm by `np.add.accumulate`, both
    sequential left folds, of squares by `np.float_power`, libm `pow` per
    element as the loop's `**`.  A coefficient past _RESCALE_AT ends its
    block: it divides every coefficient before it, and the next block's fold
    starts from 1, as the loop does.  An element's error is raised only
    where the loop would have read it, and the truncation test reads the
    five ratios across block edges.  The blocks take _HEAD steps, and a block
    that runs to its end doubles the next, up to _MAX_BLOCK.
    """
    d, amp = spec.deformation, spec.amplitude.real
    compact = d.is_compact
    bgcs = spec.family is CSFamily.SU11_BGCS
    top = d.two_j if compact else _MAX_COEFFS
    n = len(head) - 1  # steps taken
    chunks = [np.array(head)]
    last = head[-1]
    carried = window  # |ratio| of the steps so far, the newest last
    length, blocks, rescales = _HEAD, 0, 0
    with np.errstate(all="ignore"):
        while True:
            index = np.arange(n + 1, min(n + length, top) + 1, dtype=float)
            values, error = algebra.ladder_array(d, index)
            ratios = np.sqrt(values)
            if compact:
                ratios = amp * ratios / index[: values.size]
            elif bgcs:
                ratios = amp / ratios
            else:
                ratios = amp * (2.0 * d.rep_label + (index[: values.size] - 1.0)) / ratios
            carried = np.concatenate((carried[-4:], ratios))  # block ratio k at k + 4
            ratios[:1] *= last
            prods = np.multiply.accumulate(ratios)
            cut = prods.size
            if not np.maximum.reduce(prods, initial=0.0) <= _RESCALE_AT:  # a rescale, or nan
                cut = int(np.argmin(prods <= _RESCALE_AT))
            kept = prods[:cut]
            if cut and not compact:
                sums = np.float_power(kept, 2.0)
                sums[0] += sumsq
                np.add.accumulate(sums, out=sums)
                sumsq = float(sums[-1])
                stop = _truncation(kept, sums, carried[: cut + 4], eps)
                if stop is not None:
                    chunks.append(kept[: stop + 1])
                    return _finish(spec, chunks, blocks + 1, rescales, carried[stop : stop + 5])
            blocks += 1
            n += cut
            if cut < prods.size:  # the rescale that ends the block
                n += 1
                size = float(prods[cut])
                if not size < math.inf:
                    raise ConvergenceFailure(f"coefficient of the tower overflows at n = {n}")
                chunks.append(prods[: cut + 1])
                for chunk in chunks:
                    chunk /= size  # the last to exactly 1.0, where the next fold starts
                rescales += 1
                carried = carried[: cut + 5]
                if not compact:
                    try:
                        square = size**2
                    except OverflowError:
                        raise ConvergenceFailure(
                            f"running norm of the tower overflows at n = {n}"
                        ) from None
                    # no truncation here: this step's ratio exceeds 1
                    sumsq = (sumsq + square) / square
            else:
                chunks.append(kept)
                if error is not None:
                    raise error
                length = min(2 * length, _MAX_BLOCK)
            last = float(chunks[-1][-1])
            if n == top:
                if compact:
                    return _finish(spec, chunks, blocks, rescales, carried[-5:])
                raise ConvergenceFailure(
                    f"coefficient recurrence did not truncate within {top} terms"
                )


def _truncation(sizes: np.ndarray, sums: np.ndarray, ratios: np.ndarray, eps: float):
    """The first k with sizes[k] <= eps * sqrt(sums[k]) and all of
    ratios[k : k + 5] below _RATIO_CAP (the loop's truncation test), or None."""
    # eps * sqrt(sums) rounds monotonically: past the last sum's bound no size passes
    if np.minimum.reduce(sizes) > eps * math.sqrt(sums[-1]):
        return None
    done = sizes <= eps * np.sqrt(sums)
    peak = ratios[: sizes.size]
    for k in range(1, 5):
        peak = np.maximum(peak, ratios[k : k + sizes.size])
    done &= peak < _RATIO_CAP
    k = int(done.argmax())
    return k if done[k] else None


def _finish(spec: CSSpec, chunks: list, blocks: int, rescales: int, recent: np.ndarray):
    """`_array_blocks`' result, with its DEBUG record."""
    import logging  # loaded by the first array tower, not with the package

    coeffs = np.concatenate(chunks)
    logging.getLogger(__name__).debug(
        "tower %s %s label %g: %d coefficients, %d array blocks, %d rescales",
        spec.family.value, spec.deformation.coeffs, spec.deformation.rep_label,
        coeffs.size, blocks, rescales,
    )
    return coeffs, recent.tolist()


def apply_lowering(spec: DeformationSpec, v: CoefficientVector) -> CoefficientVector:
    """Unnormalized lowering action: out_n = sqrt(ladder element n+1) v_{n+1}."""
    src = v.coeffs
    if spec.is_compact and src.size > spec.dimension + 1:
        raise DomainError(f"{src.size} entries outrun the {spec.dimension}-state tower")
    with np.errstate(all="ignore"):  # an element past float range is the error below
        values, error = algebra.ladder_array(spec, np.arange(1.0, src.size))
    if error is not None:
        raise error
    out = np.zeros(max(src.size - 1, 1), dtype=complex)
    out[: values.size] = np.sqrt(values) * src[1:]
    return CoefficientVector(out, v.tail_bound)


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
