"""Exception types shared across the package."""


class HormspaceError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleConstraintError(HormspaceError, ValueError):
    """Constraint set of a least-norm extension problem is empty."""


class ConditioningError(HormspaceError, RuntimeError):
    """A linear system is too ill-conditioned for its solution to be trusted."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class UnsupportedParameterError(HormspaceError, ValueError):
    """Parameter combination excluded by the underlying theory."""


class StabilityError(HormspaceError, RuntimeError):
    """A per-mode evolution would grow exponentially."""

    def __init__(self, message, lam=None):
        super().__init__(message)
        self.lam = lam


class StructuralSymbolError(HormspaceError, ValueError):
    """A principal symbol violates a structural requirement."""


class DegenerateFrameError(HormspaceError, RuntimeError):
    """A boundary frame produced a degenerate polynomial problem."""


class CoveringPreconditionError(HormspaceError, RuntimeError):
    """Root counts are unbalanced, so the covering check cannot proceed."""
