"""Exception types shared across the toolkit."""


class PhononLabError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PhononLabError, ValueError):
    """An argument is outside the physical domain (non-finite, wrong sign, ...)."""


class GridError(PhononLabError, ValueError):
    """A frequency/time grid is malformed or does not cover the requested range."""


class TruncationError(PhononLabError, ValueError):
    """Requested operation would leak population past the Hilbert-space cutoff."""


class FitError(PhononLabError, RuntimeError):
    """A fit could not be set up or produced no usable result."""


class ConvergenceError(FitError):
    """A solver hit its step cap or took a singular step. Carries its best parameters."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class IdentifiabilityError(FitError):
    """Data cannot constrain the requested parameters (too few points / too narrow)."""


class ConfigError(PhononLabError, ValueError):
    """A scenario configuration failed validation."""


class IllConditionedFitWarning(UserWarning):
    """The fit is formally solvable but poorly conditioned."""
