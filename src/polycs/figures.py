"""Figure catalog: every plotted panel as a reproducible data table.

Figure ids follow ``[n]{su2|su11-bgcs|su11-pcs}-{quantity}``, where the ``n``
prefix selects the cubic (nonlinear) deformation with coefficients (1, 2) and
its absence the linear algebra.  Quantities: photdist, mean, intcorr, mandel,
metric.  All 30 panels of the reference set are covered.

Curve figures tabulate quantity(xbar) with one column per representation
label (default 1/2, 1, 3, 8); distribution figures tabulate P(n) at a fixed
xbar (default 1).  Output is CSV (17 significant digits, LF line endings) or
JSON lines; identical requests produce identical bytes, and files are
written atomically.

The four curve quantities all derive from the squared norm N and its xbar
derivatives, so one (family, deformation, grid) table of (N, N', N'') per
state is computed once per process and shared by the four curve figures.
A table solves the deformation roots and shift prefactors once per label
and hands every series (grid points x labels x the three shifts) to `pfq`
as one `SeriesGrid`, which runs them in one numpy loop
(`polycs.gridseries`) with each state's bits.  The loop takes blocks of
steps over the cells still active, keeps each step's terms and totals in
history rows and settles or stops cells once per block; a block is short
while the table's thousands of cells run and long in the tail, where only
the slow series near the edge of the unit disc (linear su(1,1) PCS up to
z = 0.95, 1,309 steps) remain.  Linear tables (p = 1) and any other table
with real parameters run on real arrays; a Higgs table with complex roots
runs on real pairs (the bit argument is in the `polycs.hypergeom`
docstring).  Each table logs one DEBUG record on the ``polycs.figures``
logger with its cells, series, recurrence steps (its longest series),
terms summed and cell-steps computed (terms plus the steps that cells
computed past their finish inside their last block).

A curve figure applies its statistic (`stats.*_from_norms`) in one pass over
the cached table's cells and regroups the values into rows.  Its CSV rows
come from templates cached per grid, which carry each row's xbar text, so a
cached figure formats only its statistic values.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass
from itertools import chain, starmap
from pathlib import Path

import numpy as np

from . import stats
from .errors import ConvergenceFailure, DomainError
from .gridseries import SeriesGrid
from .hypergeom import derivative_shift, pfq
from .states import CSFamily, arg_sign, check_eps, cs_from_xbar, family_deformation, norm_series
from .stats import GridSpec

_log = logging.getLogger(__name__)

DEFAULT_LABELS = (0.5, 1.0, 3.0, 8.0)
HIGGS_COEFFS = (1.0, 2.0)
LINEAR_COEFFS = (1.0,)
DEFAULT_POINTS = 200
DEFAULT_DIST_XBAR = 1.0
DEFAULT_DIST_NMAX_SU11 = 40
# Norm tables kept per process: every family x linear/Higgs pair at one grid.
_NORM_TABLE_CACHE = 6
# CSV row templates kept per process: one per grid of a kept norm table.
_ROW_TEMPLATE_CACHE = _NORM_TABLE_CACHE

_FAMILY_TOKENS = {
    "su2": CSFamily.SU2_PCS,
    "su11-bgcs": CSFamily.SU11_BGCS,
    "su11-pcs": CSFamily.SU11_PCS,
}
_QUANTITIES = ("photdist", "mean", "intcorr", "mandel", "metric")


@dataclass(frozen=True)
class FigureDef:
    """One catalog panel; its id is its `FIGURE_CATALOG` key."""

    family: CSFamily
    higgs: bool
    quantity: str

    @property
    def coeffs(self) -> tuple[float, ...]:
        return HIGGS_COEFFS if self.higgs else LINEAR_COEFFS

    @property
    def is_distribution(self) -> bool:
        return self.quantity == "photdist"

    def default_grid(self) -> GridSpec:
        # The linear noncompact displacement family only converges for z < 1.
        if self.family is CSFamily.SU11_PCS and not self.higgs:
            return GridSpec(0.0, 0.95, DEFAULT_POINTS, DEFAULT_LABELS)
        return GridSpec(0.0, 10.0, DEFAULT_POINTS, DEFAULT_LABELS)

    @property
    def default_dist_xbar(self) -> float:
        if self.family is CSFamily.SU11_PCS and not self.higgs:
            return 0.5
        return DEFAULT_DIST_XBAR


def _build_catalog() -> dict[str, FigureDef]:
    catalog: dict[str, FigureDef] = {}
    for prefix, higgs in (("", False), ("n", True)):
        for token, family in _FAMILY_TOKENS.items():
            for quantity in _QUANTITIES:
                catalog[f"{prefix}{token}-{quantity}"] = FigureDef(family, higgs, quantity)
    return catalog


FIGURE_CATALOG: dict[str, FigureDef] = _build_catalog()


@dataclass(frozen=True)
class FigureRequest:
    """One figure rendering request; None fields fall back to the catalog."""

    figure_id: str
    grid: GridSpec | None = None
    output_path: str | None = None
    fmt: str = "csv"
    dist_xbar: float | None = None
    n_max: int | None = None
    eps: float = 1e-12

    def __post_init__(self) -> None:
        if self.figure_id not in FIGURE_CATALOG:
            raise DomainError(f"unknown figure id: {self.figure_id!r}")
        if self.fmt not in ("csv", "jsonl"):
            raise DomainError(f"format must be csv or jsonl, got {self.fmt!r}")
        check_eps(self.eps)


_STATISTICS = {
    "mean": stats.mean_from_norms,
    "intcorr": stats.corr_from_norms,
    "mandel": stats.mandel_from_norms,
    "metric": stats.metric_from_norms,
}


@functools.lru_cache(maxsize=_NORM_TABLE_CACHE)
def _norm_table(
    family: CSFamily, coeffs: tuple[float, ...], grid: GridSpec
) -> tuple[tuple[tuple[float, float, float, float], ...], ...]:
    """(xbar, N, N', N'') per grid point and label, shared by the curve figures.

    xbar is the state's own, which differs from the grid value by rounding;
    (N, N', N'') has the bits `stats.norm_derivatives` gives that state.
    The checks are those of the scalar path, raised in this order:
    DomainError for a bad xbar, per label the gate of `norm_series`,
    ZeroDenominator and DivergentSeries, then ConvergenceFailure naming the
    xbar and label of the first cell unsettled, not finite or with N'**2 underflowed.
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

    norms = np.zeros((len(xbars), len(deformations), 3))
    norms[:, :, 1] = sign * 0.0  # a vanishing prefactor gives N' = sign * 0
    settled = np.ones(norms.shape[:2], dtype=bool)
    for k, (col, shift, prefactor) in enumerate(rows):
        value = result.real[:, k]
        if shift:
            # overflow surfaces as a non-finite value, raised below
            with np.errstate(over="ignore", invalid="ignore"):
                value = prefactor.real * value - prefactor.imag * result.imag[:, k]
        norms[:, col, shift] = sign * value if shift == 1 else value
        settled[:, col] &= result.cell_terms[:, k] > 0

    bad = ~settled | ~np.isfinite(norms).all(axis=2) | stats.slope_underflows(norms[:, :, 1])
    if bad.any():
        point, col = np.unravel_index(np.argmax(bad), bad.shape)
        reason = (
            "a norm series did not settle within its term cap" if not settled[point, col]
            else "norm derivatives not finite" if not np.isfinite(norms[point, col]).all()
            else "N'**2 underflows"
        )
        raise ConvergenceFailure(
            f"{reason} at xbar={xbars[point]:g}, label={grid.labels[col]:g}: "
            f"{tuple(norms[point, col].tolist())}"
        )
    _log.debug(
        "norm table %s %s: %d cells, %d series, %d recurrence steps, %d terms, "
        "%d cell-steps",
        family.value,
        coeffs,
        settled.size,
        result.cell_terms.size,
        result.cell_terms.max(),
        result.terms_used,
        result.cell_steps,
    )
    return tuple(
        tuple((xbar, *cell) for cell in row)
        for xbar, row in zip(xbars, norms.tolist(), strict=True)
    )


def _label_column(label: float) -> str:
    return f"label_{format(label, 'g')}"


def _grid(req: FigureRequest) -> GridSpec:
    return req.grid if req.grid is not None else FIGURE_CATALOG[req.figure_id].default_grid()


def figure_rows(req: FigureRequest) -> tuple[list[str], list[list[float]]]:
    """(header, rows) of the requested figure."""
    fig = FIGURE_CATALOG[req.figure_id]
    grid = _grid(req)
    labels = grid.labels
    header_tail = [_label_column(v) for v in labels]

    if fig.is_distribution:
        xbar = req.dist_xbar if req.dist_xbar is not None else fig.default_dist_xbar
        if fig.family is CSFamily.SU2_PCS:
            n_cap = int(round(2 * max(labels)))
        else:
            n_cap = DEFAULT_DIST_NMAX_SU11
        if req.n_max is not None:
            n_cap = req.n_max
        columns = []
        for label in labels:
            deformation = family_deformation(fig.family, fig.coeffs, label)
            spec = cs_from_xbar(fig.family, deformation, xbar)
            columns.append(stats.photon_distribution(spec, n_max=n_cap, eps=req.eps))
        # Trim trailing all-zero rows (finite compact towers, xbar = 0).
        n_eff = 0
        for n in range(n_cap, -1, -1):
            if any(col[n] != 0.0 for col in columns):
                n_eff = n
                break
        rows = [[float(n)] + [col[n] for col in columns] for n in range(n_eff + 1)]
        return ["n"] + header_tail, rows

    # One pass of the statistic over the table's cells, regrouped into rows.
    table = _norm_table(fig.family, fig.coeffs, grid)
    values = starmap(_STATISTICS[fig.quantity], chain.from_iterable(table))
    per_row = zip(*[values] * len(labels))
    rows = [[xbar, *cells] for xbar, cells in zip(grid.values().tolist(), per_row, strict=True)]
    return ["xbar"] + header_tail, rows


@functools.lru_cache(maxsize=_ROW_TEMPLATE_CACHE)
def _row_templates(grid: GridSpec) -> tuple[str, ...]:
    """Per grid point, the CSV row template of a curve figure, its xbar text filled in."""
    tail = ",%.17g" * len(grid.labels)
    return tuple("%.17g" % xbar + tail for xbar in grid.values().tolist())


def render_figure(req: FigureRequest) -> str:
    """Figure serialized to its textual format."""
    header, rows = figure_rows(req)
    if req.fmt == "csv":
        # "%" and format() share CPython's float formatter: nan prints "nan"
        lines = [",".join(header)]
        if FIGURE_CATALOG[req.figure_id].is_distribution:
            template = ",".join(["%.17g"] * len(header))
            lines.extend(template % tuple(row) for row in rows)
        else:
            templates = _row_templates(_grid(req))
            lines.extend(t % tuple(row[1:]) for t, row in zip(templates, rows, strict=True))
        return "\n".join(lines) + "\n"
    lines = []
    for row in rows:
        record = {
            key: (None if math.isnan(v) else v) for key, v in zip(header, row)
        }
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


def write_figure(req: FigureRequest) -> Path:
    """Render and write atomically; returns the output path."""
    suffix = "csv" if req.fmt == "csv" else "jsonl"
    path = Path(req.output_path or f"{req.figure_id}.{suffix}")
    text = render_figure(req)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path
