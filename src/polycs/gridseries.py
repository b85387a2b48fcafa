"""A table of pFq series in one numpy loop, with the bits of the scalar loop.

`hypergeom.pfq` hands a `SeriesGrid` (every parameter row at every
argument) to `pfq_grid`, which runs all its cells in lockstep with a stop
mask per cell; cells leave the active set as they terminate or settle.

A grid whose parameters all have zero imaginary parts (every linear
figure table) runs on float64 arrays; any other grid carries every value as
a real pair.  `_cmul` and `_cdiv` copy CPython's complex product
(_Py_c_prod) and Smith quotient (_Py_c_quot) operation by operation, one
ufunc call each, so that nothing can fuse into an FMA: each cell has the
bits `pfq` gives it, for real parameters and for conjugate root pairs
alike.  In the real mode the imaginary parts are absent (None): `_cmul`,
the summation and the size test take the real operations and the quotient
is a plain division, which give the complex loop's bits for the reason the
`hypergeom` docstring gives.  The loop pays numpy's per-call cost on every
step, so it only wins over the scalar loop when a step covers many cells:
single states keep the scalar loop.

`polycs.figures` imports this module and `pfq` loads it for a grid, so
`import polycs` does not compile it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import hypergeom
from .hypergeom import SMALL_RUN, SeriesParams, validate


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
    """

    real: np.ndarray
    imag: np.ndarray
    cell_terms: np.ndarray
    terms_used: int


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
        return 1.0, 0.0
    (re, im), rest = pairs[0], pairs[1:]
    acc = (re + n, im)
    for re, im in rest:
        acc = _cmul(*acc, re + n, im)
    return acc


def _cdiv(ar, ai, br, bi):
    """CPython's complex quotient (_Py_c_quot) on real pairs.

    Smith's algorithm divides through by the larger of |br| and |bi|.  Where
    either is nan both branches give nan, as CPython does; a zero divisor
    gives nan where CPython raises ZeroDivisionError.
    """
    ratio = bi / br
    denom = br + bi * ratio
    qr = (ar + ai * ratio) / denom
    qi = (ai - ar * ratio) / denom
    flip = np.abs(bi) > np.abs(br)
    if flip.any():
        ratio = br / bi
        denom = br * ratio + bi
        qr = np.where(flip, (ar * ratio + ai) / denom, qr)
        qi = np.where(flip, (ai * ratio - ar) / denom, qi)
    return qr, qi


def _kahan(total, comp, term):
    """One compensated-summation step on one part: (total, compensation).

    An absent part (None) stays absent.
    """
    if term is None:
        return None, None
    y = term - comp
    t = total + y
    return t, (t - total) - y


def _modulus(re, im):
    """abs() of each value, as CPython's C hypot; |re| without an imaginary part."""
    return np.abs(re) if im is None else np.hypot(re, im)


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
        stops.append(max_terms if stop is None else stop)

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
    term_re, term_im = np.ones(cell.size), zeros()
    total_re, total_im = np.ones(cell.size), zeros()
    comp_re, comp_im = np.zeros(cell.size), zeros()
    small_run = np.zeros(cell.size, dtype=np.int64)

    out_re = np.zeros(n_args * n_rows)
    out_im = np.zeros(n_args * n_rows)
    terms = np.zeros(n_args * n_rows, dtype=np.int64)

    def finish(done, used):
        nonlocal cell, stop, arg, upper, lower, small_run
        nonlocal term_re, term_im, total_re, total_im, comp_re, comp_im
        out_re[cell[done]] = total_re[done]
        if not real:
            out_im[cell[done]] = total_im[done]
        terms[cell[done]] = used
        keep = ~done

        def kept(values):
            return None if values is None else values[keep]

        cell, stop, arg, small_run = cell[keep], stop[keep], arg[keep], small_run[keep]
        upper = [(re[keep], kept(im)) for re, im in upper]
        lower = [(re[keep], kept(im)) for re, im in lower]
        term_re, term_im = term_re[keep], kept(term_im)
        total_re, total_im = total_re[keep], kept(total_im)
        comp_re, comp_im = comp_re[keep], kept(comp_im)

    stop_points = set(stops)
    n = 0
    with np.errstate(all="ignore"):  # overflow surfaces as a non-finite value
        while n < max_terms and cell.size:
            if n in stop_points:
                finish(stop <= n, n + 1)
                if not cell.size:
                    break
            num_re, num_im = _shifted_product(upper, n)
            den_re, den_im = _shifted_product(lower, n)
            term_re, term_im = _cmul(term_re, term_im, num_re, num_im)
            term_re, term_im = _cmul(term_re, term_im, arg / (n + 1), 0.0)
            if not real:
                term_re, term_im = _cdiv(term_re, term_im, den_re, den_im)
            elif lower:  # without lower parameters x / 1.0 is exact: skipped
                term_re = term_re / den_re
            total_re, comp_re = _kahan(total_re, comp_re, term_re)
            total_im, comp_im = _kahan(total_im, comp_im, term_im)
            n += 1
            small = _modulus(term_re, term_im) <= eps * _modulus(total_re, total_im)
            small_run = np.where(small, small_run + 1, 0)
            settled = small_run >= SMALL_RUN
            if settled.any():
                finish(settled, n + 1)
    shape = (n_args, n_rows)
    return GridResult(
        out_re.reshape(shape), out_im.reshape(shape), terms.reshape(shape), int(terms.sum())
    )
