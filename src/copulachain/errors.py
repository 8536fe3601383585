"""Exception types shared across the package, and the integer checks that raise them."""


class CopulaChainError(Exception):
    """Base class for all library errors."""


class DomainError(CopulaChainError):
    """An argument lies outside the domain an operation is defined on."""


class EvalError(CopulaChainError):
    """A computation produced a value that violates a known identity."""


class EmptyData(CopulaChainError):
    """An operation received no usable data points."""


class DegenerateData(CopulaChainError):
    """Observed data pins an estimate to the boundary of the parameter space.

    Carries the boundary values so callers can still report them. ``a`` or
    ``p`` may be None when the failing estimator has no notion of that
    parameter.
    """

    def __init__(self, message, a=None, p=None, point=None, method=None):
        super().__init__(message)
        self.a = a
        self.p = p
        self.point = point
        self.method = method


def _whole(name: str, value, least: int) -> int:
    """``value`` as an int, if it equals an integer of at least ``least``; anything
    else (a fraction, NaN, an infinity, no number) raises DomainError naming ``name``."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < least:
        raise DomainError(f"{name} must be an integer of at least {least}, got {value!r}")
    return whole


def _seed(name: str, value) -> int:
    """``value`` as an int, if it equals an integer in [0, 2**64); anything else raises
    DomainError naming ``name``.  A Philox key holds 64 bits, so a seed outside
    that range would silently give the stream of the seed it equals modulo 2**64."""
    seed = _whole(name, value, 0)
    if seed >= 2**64:
        raise DomainError(f"{name} must be below 2**64, got {value!r}")
    return seed
