"""Shared exception types.

Most are thin ValueError/RuntimeError subclasses so callers can either catch
the specific condition or fall back on the builtin hierarchy.
"""


class HorizonExceeded(ValueError):
    """A semigroup application was requested beyond the configured horizon."""


class StepMismatch(ValueError):
    """A time or shift is not a lattice multiple of the configured step."""


class GridTooLarge(ValueError):
    """A grid past the node ceiling, refused before any array is allocated."""

    def __init__(self, count, spacing, ceiling):
        self.count, self.spacing = count, spacing
        self.span = spacing * (count - 1)
        super().__init__(f"grid of {count:.6g} nodes (spacing {spacing!r}, "
                         f"span {self.span!r}) exceeds the ceiling {ceiling}")


class NotInStateSpace(RuntimeError):
    """Reconstruction from regularized coordinates left the state space.

    This is a legitimate diagnostic outcome (the element genuinely lives in
    the extrapolation space only), not an internal fault.  The curvature
    estimate that tripped the threshold is attached when available.
    """

    def __init__(self, message, curvature=None, threshold=None):
        super().__init__(message)
        self.curvature = curvature
        self.threshold = threshold


class GuardViolation(RuntimeError):
    """A smallness guard failed: the perturbation is too large for the window."""


class NonConvergence(RuntimeError):
    """The Neumann series did not reach its tolerance within the term cap."""


class StepSizeError(ValueError):
    """An implicit quadrature step lost positivity of its diagonal weight."""


class DegenerateProfile(ValueError):
    """The correction profile pairs to 1 and the closed-form scale blows up."""


class NonMultiplicative(ValueError):
    """A candidate superoperator is not a right-module homomorphism."""


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending field name."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
