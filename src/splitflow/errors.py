"""Exception taxonomy shared across the library."""


class SplitflowError(Exception):
    """Base class for all library errors."""


class InputError(SplitflowError):
    """Caller passed inconsistent data (wrong shape, bad interval, ...)."""


class ConfigurationError(SplitflowError):
    """A configured object is malformed (singular matrix, invalid parameter, ...)."""


class InvariantError(SplitflowError):
    """An identity the library checks on its own results does not hold."""


class NumericalError(SplitflowError):
    """An iterative solve failed to reach its tolerance.

    Carries whatever certificate the failing routine could produce, e.g. a
    duality-gap estimate or the length of the iterate history.
    """

    def __init__(self, message, *, gap=None, iterations=None, best=None):
        super().__init__(message)
        self.gap = gap
        self.iterations = iterations
        self.best = best
