"""Generalized hypergeometric series pFq with complex parameters.

Every normalization constant and statistic in this package reduces to a pFq
evaluation at a real argument, with upper/lower parameters that are either
real or occur in complex-conjugate pairs.  The evaluator uses the term
recurrence

    t_0 = 1,    t_{n+1} = t_n * prod_i (a_i + n) / prod_j (b_j + n) * x / (n + 1)

with compensated (Kahan) accumulation: the compact-case series terminate but
alternate in sign, and plain summation loses digits at large argument.

Terminating series (an upper parameter equal to a non-positive integer) are
summed exactly; otherwise summation stops once five consecutive terms fall
below EPS relative to the partial sum, which guards series whose early terms
are not monotone.

`pfq` runs one loop body on Python floats when every parameter has a zero
imaginary part, and on complex numbers otherwise.  Both give the same bits:
with zero imaginary parts, CPython's complex product (ac - bd, ad + bc) and
its Smith quotient reduce to the same IEEE operations on the real parts, the
extra terms being exact zeros.  The two can differ only in the sign of a
zero and in which non-finite value (inf or nan) an overflow leaves.  (The
same argument runs the coefficient tower of a positive real amplitude on
floats and float64 arrays in `polycs.states`.)  The loop is `for n in
range(limit)` with limit = min(stop, MAX_TERMS), so a terminating series
takes no per-term stop test: its sum returns after the loop, while a stop
at or past the cap raises ConvergenceFailure, as a series that does not
settle within the cap does.

Given a `polycs.gridseries.SeriesGrid` (parameter rows x arguments), `pfq`
runs every cell of the table in one numpy loop, with the complex loop's
bits, and returns a `GridResult`; the figure catalog's norm tables
(`polycs.figures`) are evaluated this way.  The loop advances all active
cells in blocks of steps, keeps each step's term and total in history
rows, and applies the settle test, the termination index and the term cap
once per block, reading a finished cell's sum from the row of its last
term; blocks lengthen as cells finish, so the few slow series of a table
pay numpy's per-call cost once per block rather than once per step.  The
same rule picks the arithmetic once per grid: a grid whose parameters all
have zero imaginary parts runs on real arrays, for the reason above, and
any other grid on real pairs that copy the complex operations.

Non-finite inputs (a nan or infinite parameter part or argument) are
refused by `validate` with DomainError before any term.

Argument-derivatives are computed by parameter shifting,

    d/dx pFq(a; b; x) = (prod a_i / prod b_j) pFq(a+1; b+1; x),

never by finite differences.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConvergenceFailure, DivergentSeries, DomainError, ZeroDenominator

if TYPE_CHECKING:
    from .gridseries import GridResult, SeriesGrid

# An upper parameter counts as a non-positive integer (series terminator)
# when within this distance of one; -2j is exact by construction, the
# tolerance only guards float parsing.
TERMINATION_TOL = 1e-12

EPS = 1e-14
MAX_TERMS = 10_000
SMALL_RUN = 5


@dataclass(frozen=True)
class SeriesParams:
    """One pFq evaluation request: upper/lower parameters and real argument."""

    numer: tuple[complex, ...]
    denom: tuple[complex, ...]
    arg: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "numer", tuple(complex(a) for a in self.numer))
        object.__setattr__(self, "denom", tuple(complex(b) for b in self.denom))
        object.__setattr__(self, "arg", float(self.arg))


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    terminated: bool
    est_error: float


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise DomainError(f"pochhammer order must be non-negative, got {n}")
    acc = complex(1.0)
    a = complex(a)
    for i in range(n):
        acc *= a + i
    return acc


def _nonpositive_integer_hit(a: complex) -> int | None:
    """Index m >= 0 with a == -m (within tolerance), else None."""
    m = round(-a.real)
    if m >= 0 and abs(a + m) <= TERMINATION_TOL:
        return m
    return None


def termination_index(params: SeriesParams) -> int | None:
    """Index of the last nonzero term for a terminating series, else None."""
    hits = [
        m for m in (_nonpositive_integer_hit(a) for a in params.numer) if m is not None
    ]
    return min(hits) if hits else None


def validate(params: SeriesParams) -> int | None:
    """Termination index of the series (None if it does not terminate).

    Raises DomainError for a nan or infinite parameter part or argument, and
    DivergentSeries for a series that cannot converge: too many upper
    parameters, |arg| >= 1 on a balanced series, or a lower-parameter pole
    reached before termination.
    """
    finite = all(map(cmath.isfinite, params.numer + params.denom))
    if not (finite and math.isfinite(params.arg)):
        raise DomainError(f"series input not finite: {params}")
    stop = termination_index(params)
    if stop is None:
        if len(params.numer) > len(params.denom) + 1:
            raise DivergentSeries(
                "more upper than lower+1 parameters and no terminating entry"
            )
        if len(params.numer) == len(params.denom) + 1 and abs(params.arg) >= 1.0:
            raise DivergentSeries(
                f"|arg| = {abs(params.arg)} outside the unit disc for a "
                "balanced series"
            )
    for b in params.denom:
        pole = _nonpositive_integer_hit(b)
        if pole is not None and (stop is None or stop > pole):
            raise DivergentSeries(
                f"lower parameter {b} is a non-positive integer reached "
                "before termination"
            )
    return stop


def shift_params(params: SeriesParams) -> SeriesParams:
    """All parameters moved up by one, argument unchanged."""
    return SeriesParams(
        tuple(a + 1 for a in params.numer),
        tuple(b + 1 for b in params.denom),
        params.arg,
    )


def pfq(params: SeriesParams | SeriesGrid) -> SeriesResult | GridResult:
    """Evaluate pFq(numer; denom; arg) by the term recurrence.

    With all parameters real the loop runs on floats, with the bits of the
    complex loop (see the module docstring).  A SeriesGrid runs in one numpy
    loop instead; a cell that does not settle within MAX_TERMS reports 0
    terms there rather than raising.
    """
    if not isinstance(params, SeriesParams):
        from .gridseries import pfq_grid

        return pfq_grid(params)
    stop = validate(params)
    eps, max_terms = EPS, MAX_TERMS  # locals for the term loop
    numer, denom, kind = params.numer, params.denom, complex
    if all(v.imag == 0.0 for v in numer + denom):
        numer = tuple(a.real for a in numer)
        denom = tuple(b.real for b in denom)
        kind = float
    one = kind(1.0)
    term = total = one
    comp = kind(0.0)  # Kahan compensation
    small_run = 0
    limit = max_terms if stop is None else min(stop, max_terms)
    arg = params.arg
    # Each product starts from its first factor: 1 * (a + n) is exactly
    # a + n, as `gridseries._shifted_product` argues.
    a0, numer = (numer[0], numer[1:]) if numer else (None, numer)
    b0, denom = (denom[0], denom[1:]) if denom else (None, denom)
    for n in range(limit):
        num = one if a0 is None else a0 + n
        for a in numer:
            num *= a + n
        den = one if b0 is None else b0 + n
        for b in denom:
            den *= b + n
        term = term * num * (arg / (n + 1)) / den
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= eps * abs(total):
            small_run += 1
            if small_run >= SMALL_RUN:
                return SeriesResult(
                    complex(total), n + 2, False, abs(term) / abs(total)
                )
        else:
            small_run = 0
    if stop is not None and stop < max_terms:
        return SeriesResult(complex(total), stop + 1, True, 0.0)
    raise ConvergenceFailure(
        f"series did not settle within {max_terms} terms (arg={params.arg})"
    )


def derivative_shift(
    params: SeriesParams, order: int
) -> tuple[complex, SeriesParams | None]:
    """(prefactor, shifted) with d^order/dx^order pFq(params) equal to
    prefactor * pFq(shifted).

    Each shift multiplies the prefactor by prod a / prod b and moves every
    parameter up by one.  A lower parameter on a pole raises ZeroDenominator.
    A vanishing prefactor (the upper parameter chain hitting zero on a
    terminating series) returns (0, None) at once: the shifted series, which
    may no longer converge on its own, is not needed.
    """
    if order < 1:
        raise DomainError(f"derivative order must be >= 1, got {order}")
    prefactor = complex(1.0)
    shifted = params
    for _ in range(order):
        num = complex(1.0)
        for a in shifted.numer:
            num *= a
        den = complex(1.0)
        for b in shifted.denom:
            if abs(b) <= TERMINATION_TOL:
                raise ZeroDenominator(
                    f"parameter shift drove lower parameter {b} onto a pole"
                )
            den *= b
        prefactor *= num / den
        if prefactor == 0.0:
            return complex(0.0), None
        shifted = shift_params(shifted)
    return prefactor, shifted


def pfq_derivative(params: SeriesParams, order: int) -> SeriesResult:
    """Order-th derivative of pFq with respect to its argument.

    Computed exactly through iterated parameter shifts (`derivative_shift`);
    a vanishing prefactor short-circuits to zero.
    """
    prefactor, shifted = derivative_shift(params, order)
    if shifted is None:
        return SeriesResult(complex(0.0), 0, True, 0.0)
    inner = pfq(shifted)
    return SeriesResult(
        prefactor * inner.value, inner.terms_used, inner.terminated, inner.est_error
    )
