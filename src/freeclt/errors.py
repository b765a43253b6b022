"""Exception types shared across the package."""


class FreecltError(Exception):
    """Base class for all library errors."""


class InvalidSpecError(FreecltError):
    """Measure specification (JSON or dict) is malformed or inconsistent."""


class InvalidArgumentError(FreecltError):
    """A function argument is outside its documented domain."""


class DegenerateMeasureError(FreecltError):
    """Operation requires positive variance but the measure is a point mass."""


class DivergenceError(FreecltError):
    """A quantity that must be finite diverges."""


class DomainError(FreecltError):
    """Evaluation point lies outside the allowed complex domain."""


class QuadratureError(FreecltError):
    """Numerical integration failed to reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InversionError(FreecltError):
    """Boundary-value extrapolation failed to converge at some point."""

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


class CompanionRecoveryError(FreecltError):
    """Recovered companion measure fails its mass or consistency gates."""


class ConsistencyError(FreecltError):
    """An internal mathematical invariant was violated (likely a bug upstream)."""


class FixedPointError(FreecltError):
    """Subordination fixed-point iteration did not reach tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
