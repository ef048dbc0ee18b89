"""Exception types shared across the package."""


class MFGError(Exception):
    """Base class for all package errors."""


class NonPositiveDensity(MFGError):
    """A density touched zero or went negative where positivity is required.

    Raised for solver states, for the base state of a coercivity probe, and for
    a manufactured density that is not uniformly positive.
    """


class BadExponent(MFGError):
    """A moment exponent r <= alpha was requested; the inverse-moment machinery needs r > alpha."""


class NotASolution(MFGError):
    """An identity that only holds on solutions was evaluated at a non-solution state."""


class SolverFailure(MFGError):
    """Base class for Newton-level failures; continuation reacts by shrinking its step."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class LinearSolveFailure(SolverFailure):
    """The band LU met a zero pivot or a non-finite answer, or GMRES missed its forcing term in its restarts."""


class NoDescent(SolverFailure):
    """Damping underflowed without finding a residual-decreasing, positivity-preserving step."""


class NonFiniteResidual(SolverFailure):
    """The residual, or a manufactured source (the continuum residual of its pair), overflowed to inf or NaN."""


class MaxItersExceeded(SolverFailure):
    """Newton hit the iteration cap before reaching the residual tolerance."""


class ContinuationStalled(MFGError):
    """The continuation step underflowed, or MAX_ATTEMPTS Newton solves ran out; carries the partial trace."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace


class ConfigError(MFGError):
    """A run configuration failed schema validation."""
