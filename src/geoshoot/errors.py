"""Exception types shared across the package, and the scalar input rules
that raise them."""

import math
import numbers


class GeoshootError(Exception):
    """Base class for all geoshoot errors."""


class ConfigurationError(GeoshootError, ValueError):
    """A spec or config object carries invalid parameters."""


class DegenerateConfigurationError(GeoshootError, ValueError):
    """A point set is degenerate (coincident points, singular Gram matrix)."""


class DivergenceError(GeoshootError, RuntimeError):
    """A trajectory or iteration produced a non-finite state."""


def require_positive(name: str, value) -> None:
    """Reject a value that is not positive and finite; NaN fails too."""
    if not (value > 0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")


def require_count(name: str, value, minimum: int) -> None:
    """Reject a count that is not an integer >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
