"""Exception types shared across the package.

Numerical routines raise these instead of bare ValueError so callers can
tell a domain violation from a genuine loss of numerical control.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""


class SingularityError(ArithmeticError):
    """Evaluation requested too close to a pole or vanishing denominator."""


class ResourceLimitError(RuntimeError):
    """Request exceeds the configured memory/size budget."""


class NumericalInstabilityError(ArithmeticError):
    """A finite-difference ladder or iteration failed to converge."""


class TruncationError(ValueError):
    """Requested range extends past the available tabulated data."""

    def __init__(self, message, largest_valid=None):
        super().__init__(message)
        self.largest_valid = largest_valid


class DegenerateInputError(ValueError):
    """Input is structurally valid but degenerate (for example all-zero masses)."""
