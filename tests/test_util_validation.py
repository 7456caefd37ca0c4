"""Tests for repro.util.validation."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.util.validation import (
    check_int_at_least,
    check_positive,
    check_probability,
    check_range,
)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan"), "x", True])
    def test_rejects_invalid(self, value):
        with pytest.raises(ConfigurationError):
            check_probability("p", value)


class TestCheckPositive:
    def test_accepts(self):
        assert check_positive("x", 0.001) == 0.001

    @pytest.mark.parametrize("value", [0, -1, math.inf, math.nan, "a", False])
    def test_rejects(self, value):
        with pytest.raises(ConfigurationError):
            check_positive("x", value)


class TestCheckRange:
    def test_inclusive_bounds(self):
        assert check_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_rejects_outside(self):
        with pytest.raises(ConfigurationError):
            check_range("x", 2.1, 1.0, 2.0)

    def test_error_message_names_argument(self):
        with pytest.raises(ConfigurationError, match="myarg"):
            check_range("myarg", 5.0, 0.0, 1.0)


class TestCheckIntAtLeast:
    def test_accepts(self):
        assert check_int_at_least("n", 3, 3) == 3

    @pytest.mark.parametrize("value", [2, 2.5, True])
    def test_rejects(self, value):
        with pytest.raises(ConfigurationError):
            check_int_at_least("n", value, 3)
