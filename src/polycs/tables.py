"""Norm tables for the figure catalog: every series of a table in one loop.

A curve figure needs (N, N', N'') at every grid point and label.  Per state
that is three pFq series (the norm and its two parameter-shift derivatives),
each a scalar `hypergeom.pfq` loop.  `norm_table` instead solves the
deformation roots and the shift prefactors once per label and hands every
series of the table (grid points x labels x the three shifts) to `pfq` as one
`SeriesGrid`, which runs them in one numpy loop (`polycs.gridseries`) with
each state's bits.

Only `polycs.figures` imports this module, so `import polycs` does not
compile it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure
from .gridseries import SeriesGrid
from .hypergeom import derivative_shift, pfq
from .states import CSFamily, arg_sign, cs_from_xbar, family_deformation, norm_series
from .stats import GridSpec


def norm_table(
    family: CSFamily, coeffs: tuple[float, ...], grid: GridSpec
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """`stats.norm_derivatives` for every grid value and label, in one loop.

    Returns the states' own xbar per grid value (they differ from the grid
    values by rounding), (N, N', N'') of shape (points, labels, 3) with the
    bits `norm_derivatives` gives each state, and the terms each of those
    series used (0 where a vanishing shift prefactor needs no series).

    Roots and shift prefactors are solved once per label, and all series of
    the table run in one `pfq` call on a SeriesGrid.  The checks are those of the scalar
    path, raised in this order: DomainError for a bad xbar, ZeroDenominator
    and DivergentSeries per label, then ConvergenceFailure naming the xbar
    and label of the first cell whose series did not settle or whose triple
    is not finite.
    """
    deformations = [family_deformation(family, coeffs, v) for v in grid.labels]
    # A state's xbar depends on its deformation only through the shared
    # leading coefficient.
    first = deformations[0]
    xbars = [cs_from_xbar(family, first, float(v)).xbar for v in grid.values()]
    sign = arg_sign(family)
    rows, numer, denom = [], [], []
    for col, deformation in enumerate(deformations):
        params = norm_series(family, deformation, 0.0)  # arguments come per cell
        chain = [(complex(1.0), params)] + [derivative_shift(params, s) for s in (1, 2)]
        for shift, (prefactor, shifted) in enumerate(chain):
            if shifted is not None:
                rows.append((col, shift, prefactor))
                numer.append(shifted.numer)
                denom.append(shifted.denom)
    result = pfq(SeriesGrid(tuple(numer), tuple(denom), tuple(sign * np.array(xbars))))
    values_re, values_im, used = result.real, result.imag, result.cell_terms

    points, labels = len(xbars), len(deformations)
    norms = np.zeros((points, labels, 3))
    norms[:, :, 1] = sign * 0.0  # a vanishing prefactor gives N' = sign * 0
    terms = np.zeros((points, labels, 3), dtype=np.int64)
    settled = np.ones((points, labels), dtype=bool)
    for k, (col, shift, prefactor) in enumerate(rows):
        value = values_re[:, k]
        if shift:
            value = prefactor.real * value - prefactor.imag * values_im[:, k]
        norms[:, col, shift] = sign * value if shift == 1 else value
        terms[:, col, shift] = used[:, k]
        settled[:, col] &= used[:, k] > 0

    bad = ~settled | ~np.isfinite(norms).all(axis=2)
    if bad.any():
        point, col = np.unravel_index(np.argmax(bad), bad.shape)
        reason = (
            "norm derivatives not finite" if settled[point, col]
            else "a norm series did not settle within its term cap"
        )
        raise ConvergenceFailure(
            f"{reason} at xbar={xbars[point]:g}, label={grid.labels[col]:g}: "
            f"{tuple(norms[point, col].tolist())}"
        )
    return xbars, norms, terms
