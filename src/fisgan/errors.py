"""Exception types shared across the package."""


class FisGanError(Exception):
    """Base class for all package errors."""


class ShapeError(FisGanError):
    """Array dimensions do not satisfy an operation's contract."""


class StateError(FisGanError):
    """An operation was called with stale or missing cached state."""


class NumericError(FisGanError):
    """A computation produced or received non-finite values."""


class ConvergenceError(FisGanError):
    """A LAPACK routine failed to converge."""


class NotPsdError(FisGanError):
    """A matrix required to be positive semi-definite is not."""


class DegenerateBatchError(FisGanError):
    """A batch carries no usable importance mass (all norms zero)."""


class InsufficientSampleError(FisGanError):
    """Too few rows to estimate the requested statistic."""


class FormatError(FisGanError):
    """A file does not conform to its declared binary/text format."""


class ConfigError(FisGanError):
    """An experiment configuration is invalid or contains unknown keys."""


class TrainError(FisGanError):
    """Training aborted; carries the iteration at which it happened."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration
