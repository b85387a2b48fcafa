"""Photon statistics and the metric factor of a coherent state.

With N(xbar) the squared-norm constant and primes denoting d/d(xbar):

    mean photon number      N_mean  = xbar N'/N
    intensity correlation   I       = N'' N / N'^2        (g2; undefined at 0)
    Mandel parameter        Q       = xbar (N''/N' - N'/N)
    metric factor           omega   = N'/N + xbar (N''/N - N'^2/N^2)

All derivatives are exact parameter shifts of the hypergeometric norm, not
finite differences.  `direct_moments` provides the independent brute-force
route through the coefficient vector; the two must agree and tests hold them
to it.  "Photon number" always means the tower index n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DegenerateInput, DomainError
from .hypergeom import SeriesParams, pfq, pfq_derivative
from .states import CoefficientVector, CSFamily, CSSpec, arg_sign, coefficients, series_params

# Largest xbar grid a GridSpec accepts: 500 times the figure catalog's 200
# points, and refused before any array is allocated.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class StatRecord:
    """Photon statistics of one state at one grid point."""

    xbar: float
    photon_dist: tuple[float, ...]
    mean_n: float
    intensity_corr: float  # nan at xbar = 0, where it is 0/0
    mandel_q: float
    metric: float


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid over xbar for a set of representation labels."""

    xbar_min: float
    xbar_max: float
    points: int
    labels: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.xbar_min) and math.isfinite(self.xbar_max)):
            raise DomainError(
                f"xbar bounds must be finite, got {self.xbar_min}, {self.xbar_max}"
            )
        if self.xbar_min < 0.0:
            raise DomainError(f"xbar_min must be non-negative, got {self.xbar_min}")
        if self.xbar_max < self.xbar_min:
            raise DomainError("xbar_max must be >= xbar_min")
        if not 1 <= self.points <= MAX_GRID_POINTS:
            raise DomainError(
                f"points must be in 1..{MAX_GRID_POINTS}, got {self.points}"
            )
        if not self.labels:
            raise DomainError("labels must be nonempty")
        object.__setattr__(self, "labels", tuple(float(v) for v in self.labels))

    def values(self) -> np.ndarray:
        return np.linspace(self.xbar_min, self.xbar_max, self.points)


def norm_and_slope(family: CSFamily, params: SeriesParams) -> tuple[float, float]:
    """(N, dN/dxbar) of the family's norm series, N' by one parameter shift; unchecked."""
    n0 = pfq(params).value.real
    n1 = arg_sign(family) * pfq_derivative(params, 1).value.real
    return n0, n1


def norm_derivatives(spec: CSSpec) -> tuple[float, float, float]:
    """(N, N', N'') with respect to xbar, by parameter shifts.

    Raises ConvergenceFailure when any of the three is not finite.
    """
    params = series_params(spec)
    n0, n1 = norm_and_slope(spec.family, params)
    n2 = pfq_derivative(params, 2).value.real
    if not (math.isfinite(n0) and math.isfinite(n1) and math.isfinite(n2)):
        raise ConvergenceFailure(
            f"norm derivatives not finite at xbar={spec.xbar:g}: ({n0}, {n1}, {n2})"
        )
    return n0, n1, n2


def photon_distribution(
    spec: CSSpec, n_max: int | None = None, eps: float = 1e-12
) -> np.ndarray:
    """P(n) = |c_n|^2 of the normalized coefficient vector.

    With n_max given, the result is padded or trimmed to length n_max + 1.
    """
    if n_max is not None and n_max < 0:
        raise DomainError(f"n_max must be non-negative, got {n_max}")
    probs = np.abs(coefficients(spec, eps=eps).coeffs) ** 2
    if n_max is None:
        return probs
    out = np.zeros(n_max + 1)
    take = min(probs.size, n_max + 1)
    out[:take] = probs[:take]
    return out


# Each statistic from (N, N', N''), shared by the public functions, stat_record
# and the figure tables, with the xbar = 0 rules: mean and Q vanish, I is 0/0
# (nan in tables).  Where n1**2 or xbar * n1 leaves float range (large su(2)
# j), I and the mean take the ratio form; all other values keep their bits.
def mean_from_norms(xbar: float, n0: float, n1: float, n2: float) -> float:
    if xbar == 0.0:
        return 0.0
    mean = xbar * n1 / n0
    return mean if math.isfinite(mean) else xbar * (n1 / n0)


def corr_from_norms(xbar: float, n0: float, n1: float, n2: float) -> float:
    if xbar == 0.0:
        return math.nan
    try:
        return n2 * n0 / n1**2
    except OverflowError:
        return (n2 / n1) * (n0 / n1)


def mandel_from_norms(xbar: float, n0: float, n1: float, n2: float) -> float:
    if xbar == 0.0:
        return 0.0
    return xbar * (n2 / n1 - n1 / n0)


def metric_from_norms(xbar: float, n0: float, n1: float, n2: float) -> float:
    ratio = n1 / n0
    return ratio + xbar * (n2 / n0 - ratio**2)


def mean_photon(spec: CSSpec) -> float:
    return mean_from_norms(spec.xbar, *norm_derivatives(spec))


def intensity_correlation(spec: CSSpec) -> float:
    if spec.xbar == 0.0:  # where corr_from_norms gives nan
        raise DegenerateInput("intensity correlation is 0/0 at xbar = 0")
    return corr_from_norms(spec.xbar, *norm_derivatives(spec))


def mandel_q(spec: CSSpec) -> float:
    return mandel_from_norms(spec.xbar, *norm_derivatives(spec))


def metric_factor(spec: CSSpec) -> float:
    return metric_from_norms(spec.xbar, *norm_derivatives(spec))


def direct_moments(v: CoefficientVector) -> tuple[float, float, float]:
    """(mean, <n(n-1)>, variance) by direct summation over |c_n|^2."""
    probs = np.abs(v.coeffs) ** 2
    n = np.arange(probs.size)
    mean = float(np.dot(n, probs))
    fact2 = float(np.dot(n * (n - 1), probs))
    second = float(np.dot(n * n, probs))
    return mean, fact2, second - mean**2


def stat_record(
    spec: CSSpec, n_max: int | None = None, eps: float = 1e-12
) -> StatRecord:
    """Assemble the full statistics record for one state."""
    dist = photon_distribution(spec, n_max=n_max, eps=eps)
    xbar, norms = spec.xbar, norm_derivatives(spec)
    return StatRecord(
        xbar=xbar,
        photon_dist=tuple(float(p) for p in dist),
        mean_n=mean_from_norms(xbar, *norms),
        intensity_corr=corr_from_norms(xbar, *norms),
        mandel_q=mandel_from_norms(xbar, *norms),
        metric=metric_from_norms(xbar, *norms),
    )
