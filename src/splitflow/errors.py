"""Exception taxonomy shared across the library, and the guard of its
immutable records."""


class Frozen:
    """Instances reject assigning and deleting attributes.

    A constructor sets its attributes through ``object.__setattr__``.  The
    guard acts on instances only: methods of the classes can still be
    replaced.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to attribute {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete attribute {name!r} of an immutable "
                             f"{type(self).__name__}")


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
