"""Exception taxonomy shared by all solver modules."""


class ShbifError(Exception):
    """Base class for all library errors."""


class DomainMismatch(ShbifError):
    """Two fields with incompatible domains were combined."""


class BandTooSmall(ShbifError):
    """Retained band does not contain the minimizers of the quartic symbol."""


class ExplicitDegeneracy(ShbifError):
    """Critical eigenvalue attained by modes with distinct |kappa|^2."""


class NonFinite(ShbifError):
    """A state reached inf or NaN during time stepping."""


class NoConvergence(ShbifError):
    """Newton iteration failed to reach the residual tolerance."""


class SingularJacobian(ShbifError):
    """Inner linear solver stagnated on a (near-)singular Jacobian."""


class EigsNoConvergence(ShbifError):
    """Iterative eigensolver did not converge."""


class DegenerateState(ShbifError):
    """A steady state has a Jacobian eigenvalue too close to zero to classify."""


class ParseError(ShbifError):
    """Config text could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RangeError(ShbifError):
    """A config value is outside its legal range."""


class UsageError(ShbifError):
    """Bad command-line usage (unknown scenario, missing flag)."""
