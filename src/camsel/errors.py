"""Exception types shared across the package, and the type check of config values."""

import numbers


class ConfigError(ValueError):
    """A configuration, schema, or parameter value is invalid."""


def typed(name: str, value, kind=numbers.Integral, what="an integer"):
    """``value`` if it is a ``kind``, where a bool counts only as a bool:
    config files pass values through unchanged, so "12" or 30.7 must not run."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{name}: expected {what}, got {value!r}")
    return value


class ScheduleError(ConfigError):
    """A perspective-shift schedule references unknown cameras or groups."""


class GenerationError(RuntimeError):
    """World generation could not satisfy its constraints."""


class NumericError(RuntimeError):
    """A numerical routine produced a non-finite iterate."""
