"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands declared with incompatible spatial dimensions."""


class NodeBudgetError(RuntimeError):
    """A requested quadrature grid would exceed the global node budget."""


class CoincidentPointsError(ValueError):
    """A difference quotient was requested at coincident points."""


class NonFiniteFieldError(ValueError):
    """A field returned a value that is not finite (NaN, or an overflow to infinity)."""


class MissingDerivativeError(ValueError):
    """An operation needs derivative access the field does not provide."""


class SingularHessianError(RuntimeError):
    """A Newton step hit an ill-conditioned curvature matrix."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class NoBracketError(RuntimeError):
    """Subset search could not bracket a sign change at the queried point."""


class RejectionOverflowError(RuntimeError):
    """Rejection sampler exceeded its attempt budget."""


class UnknownCheckError(ValueError):
    """A convergence sweep was asked for a check that is not registered."""


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""
