"""Coherent states of polynomially deformed su(2) and su(1,1) algebras.

Numerics for the three families (compact displacement states, noncompact
lowering-operator eigenstates, noncompact displacement states): photon
statistics, the metric factor, the Berry connection, and the Laplace
transform linking the two noncompact families.
"""

from .algebra import (
    AlgebraKind,
    DeformationSpec,
    RootSet,
    casimir_eigenvalue,
    commutator_poly,
    deformation_factor,
    deformation_roots,
    higgs_su2,
    higgs_su11,
    ladder_sq,
    linear_su2,
    linear_su11,
    structure_function,
    su2_spec,
    su11_spec,
    validate_unitarity,
)
from .errors import (
    ConvergenceFailure,
    DegenerateInput,
    DivergentSeries,
    DomainError,
    PolycsError,
    QuadratureFailure,
    RootSolveFailure,
    UnitarityViolation,
    ZeroDenominator,
)
from .geometry import (
    LaplaceProbe,
    LoopSpec,
    berry_phase_loop,
    bg_series,
    connection_coefficient,
    laplace_check,
    overlap_derivative_fd,
)
from .hypergeom import SeriesParams, SeriesResult, pfq, pfq_derivative, pochhammer
from .states import (
    CoefficientVector,
    CSFamily,
    CSSpec,
    apply_lowering,
    bg_eigen_residual,
    coefficients,
    cs_from_xbar,
    normalization,
)
from .stats import (
    GridSpec,
    StatRecord,
    direct_moments,
    intensity_correlation,
    mandel_q,
    mean_photon,
    metric_factor,
    photon_distribution,
    stat_record,
)

__version__ = "0.1.0"
