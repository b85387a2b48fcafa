"""Exception hierarchy shared by all polycs modules."""


class PolycsError(Exception):
    """Base class for every error raised by this package."""


class UnitarityViolation(PolycsError):
    """A squared ladder matrix element came out negative: the deformation
    parameters do not admit a unitary representation at this label.  value
    holds the offending element."""

    def __init__(self, n: int, value: float) -> None:
        super().__init__(f"squared ladder element is negative at n={n}: {value}")
        self.value = value


class RootSolveFailure(PolycsError):
    """The deformation roots miss their backward-error target or overflow."""


class DivergentSeries(PolycsError):
    """Series parameters lie outside the convergence domain."""


class ConvergenceFailure(PolycsError):
    """An iterative evaluation hit its term or iteration cap."""


class ZeroDenominator(PolycsError):
    """A parameter shift drove a lower series parameter onto a pole."""


class DomainError(PolycsError, ValueError):
    """Argument outside a function's domain."""


class DegenerateInput(PolycsError):
    """The requested quantity is undefined (0/0) at this input."""


class QuadratureFailure(PolycsError):
    """Numerical integration could not reach the requested tolerance."""
