"""Exception types shared across the package, and the parameter checks that raise one."""

import math
import numbers


class ConfigurationError(ValueError):
    """A problem definition or mesh parameter is invalid."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its accuracy contract."""


def _require_positive(owner: str, **params: float) -> None:
    """Refuse, by name, the first parameter that is not finite and > 0; NaN included."""
    for name, value in params.items():
        if not 0.0 < value < math.inf:
            raise ConfigurationError(f"{owner} requires 0 < {name} < inf, got {name} = {value!r}")


def _require_integer(owner: str, **params) -> None:
    """Refuse, by name, the first parameter that is not an integer, bools included."""
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{owner} requires an integer {name}, got {name} = {value!r}")
