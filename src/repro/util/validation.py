"""Small argument-validation helpers with consistent error messages."""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` is a probability in ``[0, 1]``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number > 0."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")
    return float(value)


def check_range(name: str, value: float, low: float, high: float) -> float:
    """Validate that ``value`` lies in the closed interval ``[low, high]``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if math.isnan(value) or not low <= value <= high:
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")
    return float(value)


def check_int_at_least(name: str, value: int, minimum: int) -> int:
    """Validate that ``value`` is an integer >= ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value
