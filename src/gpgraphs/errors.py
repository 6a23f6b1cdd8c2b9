"""Exception types raised across the package."""


class GPGraphError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(GPGraphError):
    """A parameter that must be prime is composite."""


class NotPrimePower(GPGraphError):
    """A parameter that must be a prime power is not one."""


class SizeBudgetExceeded(GPGraphError):
    """The requested object is larger than the configured size budget."""


class DivisionByZero(GPGraphError):
    """Multiplicative inverse of the zero element was requested."""


class ZeroHasNoLog(GPGraphError):
    """Discrete logarithm of the zero element was requested."""


class MixedRootOrders(GPGraphError):
    """Arithmetic between cyclotomic integers over different root orders."""


class IndexOutOfRange(GPGraphError):
    """A coset or period index lies outside its valid range."""


class NotDirected(GPGraphError):
    """An operation that requires a directed graph received an undirected one."""


class NumberDoesNotExist(GPGraphError):
    """A Waring-type number does not exist for the given parameters."""


class HypothesisViolated(GPGraphError):
    """A family descriptor violates the hypotheses of its family."""


class PreconditionViolated(GPGraphError):
    """A stated precondition of an operation does not hold."""


class InvariantViolated(GPGraphError):
    """A law the computation must satisfy failed: a defect, never a bad input."""
