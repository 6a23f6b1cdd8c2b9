"""Exception types raised across the package."""


class GPGraphError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(GPGraphError):
    """A parameter that must be prime is composite."""


class NotPrimePower(GPGraphError):
    """A parameter that must be a prime power is not one."""


class SizeBudgetExceeded(GPGraphError):
    """The requested object is larger than the configured size budget."""


class NumberDoesNotExist(GPGraphError):
    """A Waring-type number does not exist for the given parameters."""


class HypothesisViolated(GPGraphError):
    """A family descriptor violates the hypotheses of its family."""


class InvariantViolated(GPGraphError):
    """A law the computation must satisfy failed: a defect, never a bad input."""


def check(holds, law: str) -> None:
    """Raise InvariantViolated unless a law holds; unlike assert, this survives python -O."""
    if not holds:
        raise InvariantViolated(law)
