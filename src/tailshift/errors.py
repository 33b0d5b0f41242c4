"""Exception types shared across the engine."""


class TailshiftError(Exception):
    """Base class for all engine errors."""


class DomainError(TailshiftError, ValueError):
    """An argument lies outside its mathematical domain."""


class ConfigError(TailshiftError, ValueError):
    """Invalid run configuration; the message names the offending field."""


class NoSurvivors(TailshiftError):
    """A weighted batch contains no sample at or above the current level."""


class NotConverged(TailshiftError):
    """Newton solve hit its iteration cap or its line search stalled."""


class DegenerateBatch(TailshiftError):
    """All responses are identical and below the target level; no level can rise."""


class MaxLevelsExceeded(TailshiftError):
    """The level ladder stalled or ran past its cap.

    ``trace`` holds the levels completed before the failure.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class BudgetExhausted(TailshiftError):
    """Run budget hit before the precision target.

    ``report`` holds the partial result; ``trace`` the exploration levels
    when available.
    """

    def __init__(self, message, report=None, trace=None):
        super().__init__(message)
        self.report = report
        self.trace = trace


class NonMonotoneBracket(TailshiftError):
    """Quantile search could not bracket the target probability."""


class SimulatorError(TailshiftError):
    """External simulator failed; ``indices`` are the affected batch positions."""

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)
