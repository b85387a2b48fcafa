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
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import algebra, stats
from .errors import DomainError
from .states import CSFamily, cs_from_xbar
from .stats import GridSpec

DEFAULT_LABELS = (0.5, 1.0, 3.0, 8.0)
HIGGS_COEFFS = (1.0, 2.0)
LINEAR_COEFFS = (1.0,)
DEFAULT_POINTS = 200
DEFAULT_DIST_XBAR = 1.0
DEFAULT_DIST_NMAX_SU11 = 40
# Norm tables kept per process: every family x linear/Higgs pair at one grid.
_NORM_TABLE_CACHE = 6

_FAMILY_TOKENS = {
    "su2": CSFamily.SU2_PCS,
    "su11-bgcs": CSFamily.SU11_BGCS,
    "su11-pcs": CSFamily.SU11_PCS,
}
_QUANTITIES = ("photdist", "mean", "intcorr", "mandel", "metric")


@dataclass(frozen=True)
class FigureDef:
    figure_id: str
    family: CSFamily
    higgs: bool
    quantity: str

    @property
    def coeffs(self) -> tuple[float, ...]:
        return HIGGS_COEFFS if self.higgs else LINEAR_COEFFS

    @property
    def is_distribution(self) -> bool:
        return self.quantity == "photdist"

    def default_grid(self, labels: tuple[float, ...] = DEFAULT_LABELS) -> GridSpec:
        # The linear noncompact displacement family only converges for z < 1.
        if self.family is CSFamily.SU11_PCS and not self.higgs:
            return GridSpec(0.0, 0.95, DEFAULT_POINTS, labels)
        return GridSpec(0.0, 10.0, DEFAULT_POINTS, labels)

    @property
    def default_dist_xbar(self) -> float:
        if self.family is CSFamily.SU11_PCS and not self.higgs:
            return 0.5
        return DEFAULT_DIST_XBAR


def _deformation(
    family: CSFamily, coeffs: tuple[float, ...], label: float
) -> algebra.DeformationSpec:
    if family is CSFamily.SU2_PCS:
        return algebra.su2_spec(coeffs, label)
    return algebra.su11_spec(coeffs, label)


def _build_catalog() -> dict[str, FigureDef]:
    catalog: dict[str, FigureDef] = {}
    for prefix, higgs in (("", False), ("n", True)):
        for token, family in _FAMILY_TOKENS.items():
            for quantity in _QUANTITIES:
                fid = f"{prefix}{token}-{quantity}"
                catalog[fid] = FigureDef(fid, family, higgs, quantity)
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

    xbar is the state's own, which differs from the grid value by rounding.
    """
    deformations = [_deformation(family, coeffs, label) for label in grid.labels]
    table = []
    for xbar in grid.values():
        cells = []
        for deformation in deformations:
            spec = cs_from_xbar(family, deformation, float(xbar))
            cells.append((spec.xbar, *stats.norm_derivatives(spec)))
        table.append(tuple(cells))
    return tuple(table)


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "nan"
    return format(value, ".17g")


def _label_column(label: float) -> str:
    return f"label_{format(label, 'g')}"


def figure_rows(req: FigureRequest) -> tuple[list[str], list[list[float]]]:
    """(header, rows) of the requested figure."""
    fig = FIGURE_CATALOG[req.figure_id]
    grid = req.grid if req.grid is not None else fig.default_grid()
    if fig.family is CSFamily.SU11_PCS and not fig.higgs and grid.xbar_max >= 1.0:
        raise DomainError(
            "linear su(1,1) displacement figures need an xbar grid below 1"
        )
    labels = grid.labels
    header_tail = [_label_column(v) for v in labels]

    if fig.is_distribution:
        xbar = req.dist_xbar if req.dist_xbar is not None else fig.default_dist_xbar
        if xbar < 0.0:
            raise DomainError(f"xbar must be non-negative, got {xbar}")
        if fig.family is CSFamily.SU2_PCS:
            n_cap = int(round(2 * max(labels)))
        else:
            n_cap = DEFAULT_DIST_NMAX_SU11
        if req.n_max is not None:
            n_cap = req.n_max
        columns = []
        for label in labels:
            deformation = _deformation(fig.family, fig.coeffs, label)
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

    stat = _STATISTICS[fig.quantity]
    table = _norm_table(fig.family, fig.coeffs, grid)
    rows = [
        [float(xbar)] + [stat(*cell) for cell in cells]
        for xbar, cells in zip(grid.values(), table, strict=True)
    ]
    return ["xbar"] + header_tail, rows


def render_figure(req: FigureRequest) -> str:
    """Figure serialized to its textual format."""
    header, rows = figure_rows(req)
    if req.fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_format_value(v) for v in row))
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
