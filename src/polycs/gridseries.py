"""A table of pFq series in one numpy loop, with the bits of the scalar loop.

`hypergeom.pfq` hands a `SeriesGrid` (every parameter row at every
argument) to `pfq_grid`, which runs the term recurrence on every active
cell at once, in blocks of steps.  Within a block only the chain that
depends on the term runs step by step (term x numerator x x / (n + 1) /
denominator, then the compensated sum), and each step's term and total go
into a history row.  The factors that do not depend on the term are
computed for the whole block first; after it, one pass over the history
applies the settle test (five consecutive terms below EPS relative to the
sum, the run carried across block edges), the termination index and the
term cap, reads each finished cell's total from the row of the step where
it finished, and drops finished cells from the active set.  numpy's
per-call cost is so paid per block, not per step.

The block length follows the active cell count: about BLOCK_CELL_STEPS
cell-steps, so blocks stay short (and the history small) while thousands
of cells are active, and grow long in the tail of a few slow series, where
the per-call cost dominates.  A block grows at most twice as long as the
one before, since a cell past its finish keeps computing until its block
ends (`GridResult.cell_steps` counts those steps), and it ends at the
first termination index of its cells, so no cell runs past one.

A grid whose parameters all have zero imaginary parts (every linear
figure table) runs on float64 arrays; any other grid carries every value as
a real pair.  `_cmul` and `_cdiv` copy CPython's complex product
(_Py_c_prod) and Smith quotient (_Py_c_quot) operation by operation, one
ufunc call each, so that nothing can fuse into an FMA: each cell has the
bits `pfq` gives it, for real parameters and for conjugate root pairs
alike.  In the real mode the imaginary parts are absent (None): `_cmul`,
the summation and the size test take the real operations and the quotient
is a plain division, which give the complex loop's bits for the reason the
`hypergeom` docstring gives.  A block still costs some 40 numpy calls
beyond its steps, so the loop only wins over the scalar loop when it
covers many cells: single states keep the scalar loop.

`polycs.figures` imports this module and `pfq` loads it for a grid, so
`import polycs` does not compile it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError
from . import hypergeom
from .hypergeom import SMALL_RUN, SeriesParams, validate

# A block runs BLOCK_CELL_STEPS // (active cells) steps, within
# MIN_BLOCK_STEPS..MAX_BLOCK_STEPS, at most twice the block before and up to
# the first termination index or the term cap.
BLOCK_CELL_STEPS = 8192
MIN_BLOCK_STEPS = 4
MAX_BLOCK_STEPS = 256


@dataclass(frozen=True)
class SeriesGrid:
    """pFq(numer[r]; denom[r]; args[g]) for every argument g and row r.

    All rows have the same numbers of upper and lower parameters.
    """

    numer: tuple[tuple[complex, ...], ...]
    denom: tuple[tuple[complex, ...], ...]
    args: tuple[float, ...]

    def __post_init__(self) -> None:
        numer = tuple(tuple(complex(a) for a in row) for row in self.numer)
        denom = tuple(tuple(complex(b) for b in row) for row in self.denom)
        widths = ({len(r) for r in numer}, {len(r) for r in denom})
        if len(numer) != len(denom) or any(len(w) > 1 for w in widths):
            raise DomainError("grid rows need matching, equal-length parameter tuples")
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "args", tuple(float(x) for x in self.args))


@dataclass(frozen=True, eq=False)
class GridResult:
    """Real parts, imaginary parts and terms of every cell, each (args, rows).

    cell_terms is the terms_used `pfq` reports for the cell, or 0 where its
    series did not settle within `hypergeom.MAX_TERMS`; the caller, which
    knows what a cell stands for, raises.  terms_used sums cell_terms.
    cell_steps counts the recurrence steps computed over all cells, which
    includes a cell's steps past its finish inside its last block: at least
    terms_used minus one per finished cell.
    """

    real: np.ndarray
    imag: np.ndarray
    cell_terms: np.ndarray
    terms_used: int
    cell_steps: int


def _cmul(ar, ai, br, bi):
    """CPython's complex product (_Py_c_prod) on real pairs.

    Without an imaginary part (ai is None) it is the real product.
    """
    if ai is None:
        return ar * br, None
    return ar * br - ai * bi, ar * bi + ai * br


def _shifted_product(pairs, n):
    """prod_i (re_i + n, im_i) as CPython's `acc = 1; acc *= a + n` loop.

    The first product, (1, 0) * (u, v), is (u, v) exactly: u is never -0
    (re + n with n >= 0), v never -0 (im carries + 0.0), and both are finite.
    """
    if not pairs:
        return np.float64(1.0), np.float64(0.0)
    (re, im), rest = pairs[0], pairs[1:]
    acc = (re + n, im)
    for re, im in rest:
        acc = _cmul(*acc, re + n, im)
    return acc


def _smith(br, bi):
    """The divisor's share of CPython's complex quotient (_Py_c_quot).

    Smith's algorithm divides through by the larger of |br| and |bi|:
    (ratio, denom) of the |br| >= |bi| branch, then (flip, ratio, denom) of
    the other branch where it is taken anywhere, else three None.  Where
    either part is nan the first branch gives nan, as CPython does; a zero
    divisor gives nan where CPython raises ZeroDivisionError.
    """
    ratio = bi / br
    flip = np.abs(bi) > np.abs(br)
    if not flip.any():
        return ratio, br + bi * ratio, None, None, None
    flip_ratio = br / bi
    return ratio, br + bi * ratio, flip, flip_ratio, br * flip_ratio + bi


def _cdiv(ar, ai, ratio, denom, flip, flip_ratio, flip_denom, out):
    """a / b with b given by `_smith`, as CPython's complex quotient, into out."""
    qr = np.divide(ar + ai * ratio, denom, out[0])
    qi = np.divide(ai - ar * ratio, denom, out[1])
    if flip is not None:
        np.copyto(qr, (ar * flip_ratio + ai) / flip_denom, where=flip)
        np.copyto(qi, (ai * flip_ratio - ar) / flip_denom, where=flip)
    return qr, qi


def _kahan(total, comp, term, out):
    """One compensated-summation step on one part: (total, compensation).

    The new total is written to out.  An absent part (None) stays absent.
    """
    if term is None:
        return None, None
    y = term - comp
    t = np.add(total, y, out)
    return t, (t - total) - y


def _modulus(re, im, out=None):
    """abs() of each value, as CPython's C hypot; |re| without an imaginary part."""
    return np.abs(re, out) if im is None else np.hypot(re, im, out)


def _copy(values):
    """A copy of an array; None stays None."""
    return None if values is None else values.copy()


def _rows(values, shape):
    """A block value at each step: the rows of a (steps, cells) array.

    A scalar (or None) stays one at every step, where numpy's scalar loops
    are faster than a broadcast row.
    """
    if values is None or np.ndim(values) == 0:
        return repeat(values)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _block_factors(upper, lower, arg, n, steps, real):
    """The term's factors at steps n .. n + steps - 1, computed for the block at once.

    Yields (num_re, num_im, scale, divisor) per step: prod (a + n),
    x / (n + 1), and prod (b + n) as `_cdiv` takes it (a 1-tuple in the real
    mode, holding None without lower parameters).  The block's arrays are
    freed once its last step is taken.
    """
    ns = np.arange(n, n + steps)[:, None]
    shape = (steps, arg.size)
    if real:
        div = zip(_rows(_shifted_product(lower, ns)[0] if lower else None, shape))
    else:
        div = zip(*(_rows(v, shape) for v in _smith(*_shifted_product(lower, ns))))
    num_re, num_im = _shifted_product(upper, ns)
    yield from zip(_rows(num_re, shape), _rows(num_im, shape), arg / (ns + 1), div)


def _sum_block(term, total, comp, factors, history):
    """A block's steps of the term recurrence, with compensated summation.

    term, total and comp are the carried (re, im) pairs of the active cells
    (im None in the real mode), factors is `_block_factors` and history the
    (steps, cells) pairs that receive each step's term and total.  Returns
    the pairs carried out of the last step; term and total are copies, as
    the next block reuses the history's buffers.
    """
    real = term[1] is None
    hist_term, hist_total = history
    (term_re, term_im), (total_re, total_im), (comp_re, comp_im) = term, total, comp
    rows = zip(*(repeat(None) if h is None else h for h in hist_term + hist_total))
    for (num_re, num_im, scale, by), (*term_out, total_out_re, total_out_im) in zip(
        factors, rows
    ):
        if real:
            term_re = np.multiply(term_re, num_re, term_out[0])
            term_re *= scale
            if by[0] is not None:  # without lower parameters x / 1.0 is exact: skipped
                term_re /= by[0]
        else:
            term_re, term_im = _cmul(term_re, term_im, num_re, num_im)
            term_re, term_im = _cmul(term_re, term_im, scale, 0.0)
            term_re, term_im = _cdiv(term_re, term_im, *by, term_out)
        total_re, comp_re = _kahan(total_re, comp_re, term_re, total_out_re)
        total_im, comp_im = _kahan(total_im, comp_im, term_im, total_out_im)
    term, total = (_copy(term_re), _copy(term_im)), (_copy(total_re), _copy(total_im))
    return term, total, (comp_re, comp_im)


def pfq_grid(grid: SeriesGrid) -> GridResult:
    """Every cell of `grid` by the term recurrence, as `pfq` computes it.

    `validate` runs once per row, at the argument of largest modulus: its
    one argument-dependent check (a balanced series needs |arg| < 1) fails
    there if it fails at any argument of the row.
    """
    eps, max_terms = hypergeom.EPS, hypergeom.MAX_TERMS
    n_rows = len(grid.numer)
    p, q = (len(grid.numer[0]), len(grid.denom[0])) if n_rows else (0, 0)
    numer = np.array(grid.numer, dtype=complex).reshape(n_rows, p)
    denom = np.array(grid.denom, dtype=complex).reshape(n_rows, q)
    args = np.array(grid.args, dtype=float)
    n_args = args.size
    widest = float(args[np.argmax(np.abs(args))]) if n_args else 0.0
    stops = []
    for a_row, b_row in zip(grid.numer, grid.denom, strict=True):
        stop = validate(SeriesParams(a_row, b_row, widest))
        # `pfq` checks a stop only below the cap; one at or past it never comes
        stops.append(stop if stop is not None and stop < max_terms else max_terms + 1)

    # One entry per cell in (argument, row) order.  Imaginary parts of the
    # parameters carry the + 0.0 of CPython's complex + int; in the real
    # mode, chosen when every one is zero, they are absent.
    real = not (numer.imag.any() or denom.imag.any())

    def per_cell(row_values):
        return np.tile(row_values, n_args)

    def column(col):
        return per_cell(col.real), None if real else per_cell(col.imag) + 0.0

    def zeros():
        return None if real else np.zeros(cell.size)

    cell = np.arange(n_args * n_rows)
    stop = per_cell(np.array(stops, dtype=np.int64))
    arg = np.repeat(args, n_rows)
    upper = [column(col) for col in numer.T]
    lower = [column(col) for col in denom.T]
    # (re, im) pairs of the carried term, total and Kahan compensation.
    term, total = (np.ones(cell.size), zeros()), (np.ones(cell.size), zeros())
    comp = (np.zeros(cell.size), zeros())
    # The settle test of the last SMALL_RUN - 1 steps, carried across blocks.
    recent = np.zeros((SMALL_RUN - 1, cell.size), dtype=bool)

    out_re = np.zeros(n_args * n_rows)
    out_im = np.zeros(n_args * n_rows)
    terms = np.zeros(n_args * n_rows, dtype=np.int64)

    def finish(done, value_re, value_im, used):
        nonlocal cell, stop, arg, upper, lower, term, total, comp, recent
        index = cell[done]
        out_re[index] = value_re
        if not real:
            out_im[index] = value_im
        terms[index] = used
        keep = ~done

        def kept(values):
            return None if values is None else values[keep]

        cell, stop, arg = cell[keep], stop[keep], arg[keep]
        upper, lower = ([(re[keep], kept(im)) for re, im in pairs] for pairs in (upper, lower))
        term, total, comp = ((re[keep], kept(im)) for re, im in (term, total, comp))
        recent = recent.compress(keep, axis=1)

    finish(stop == 0, 1.0, 0.0, 1)  # the series of an upper parameter 0 is its first term
    # The (re, im) term and total histories and the settle test's bound, as
    # buffers of the largest block that every block reuses.
    capacity = max(BLOCK_CELL_STEPS, MIN_BLOCK_STEPS * cell.size)
    history = [(np.empty(capacity), None if real else np.empty(capacity)) for _ in range(2)]
    bound = np.empty(capacity)

    def block_of(buffer):
        return None if buffer is None else buffer[: steps * cell.size].reshape(steps, -1)

    cell_steps = 0
    n = steps = 0
    with np.errstate(all="ignore"):  # overflow surfaces as a non-finite value
        while n < max_terms and cell.size:
            # A block ends at the first stop of its cells, so no cell runs past one.
            steps = min(
                max(BLOCK_CELL_STEPS // cell.size, MIN_BLOCK_STEPS),
                MAX_BLOCK_STEPS,
                max(2 * steps, MIN_BLOCK_STEPS),
                int(stop.min()) - n,
                max_terms - n,
            )
            cell_steps += steps * cell.size
            factors = _block_factors(upper, lower, arg, n, steps, real)
            hist_term, hist_total = ((block_of(re), block_of(im)) for re, im in history)
            term, total, comp = _sum_block(term, total, comp, factors, (hist_term, hist_total))
            limit = _modulus(*hist_total, block_of(bound))
            limit *= eps
            small = _modulus(*hist_term, hist_term[0]) <= limit  # |term| over the terms
            # Row i settles a cell when it ends a run of SMALL_RUN small terms, and
            # a cell whose stop ends the block finishes at its last row.
            runs = np.concatenate([recent, small])
            settled = runs[:steps].copy()
            for back in range(1, SMALL_RUN):
                settled &= runs[back : back + steps]
            settled[-1] |= stop == n + steps
            recent = runs[steps:]
            # The first finishing row of each cell (steps where none); row i
            # holds the sum of n + i + 2 terms.
            countdown = np.arange(steps, 0, -1, dtype=np.int16)[:, None]
            end = steps - (settled * countdown).max(axis=0)
            done = end < steps
            if done.any():
                at = end[done]
                col = np.flatnonzero(done)
                finish(
                    done,
                    hist_total[0][at, col],
                    None if real else hist_total[1][at, col],
                    n + at + 2,
                )
            n += steps
    shape = (n_args, n_rows)
    return GridResult(
        out_re.reshape(shape),
        out_im.reshape(shape),
        terms.reshape(shape),
        int(terms.sum()),
        cell_steps,
    )
