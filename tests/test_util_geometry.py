"""Tests for repro.util.geometry."""

import math

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.util.geometry import (
    WORST_CASE_OVERLAP_FRACTION,
    Vec2,
    disk_area,
    lens_area,
    lens_area_integral,
    sample_in_disk,
)


class TestVec2:
    def test_add_sub(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)
        assert Vec2(3, 4) - Vec2(1, 2) == Vec2(2, 2)

    def test_scalar_multiplication_both_sides(self):
        assert Vec2(1, 2) * 3 == Vec2(3, 6)
        assert 3 * Vec2(1, 2) == Vec2(3, 6)

    def test_distance(self):
        assert Vec2(0, 0).distance_to(Vec2(3, 4)) == pytest.approx(5.0)

    def test_norm(self):
        assert Vec2(3, 4).norm() == pytest.approx(5.0)

    def test_rotation_quarter_turn(self):
        rotated = Vec2(1, 0).rotated(math.pi / 2)
        assert rotated.x == pytest.approx(0.0, abs=1e-12)
        assert rotated.y == pytest.approx(1.0)

    def test_iteration_unpacks(self):
        x, y = Vec2(5, 7)
        assert (x, y) == (5, 7)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Vec2(0, 0).x = 1  # type: ignore[misc]


class TestAreas:
    def test_disk_area(self):
        assert disk_area(1.0) == pytest.approx(math.pi)
        assert disk_area(100.0) == pytest.approx(math.pi * 1e4)

    def test_disk_area_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            disk_area(0.0)

    def test_lens_area_coincident_is_full_disk(self):
        assert lens_area(100.0, 0.0) == pytest.approx(disk_area(100.0))

    def test_lens_area_disjoint_is_zero(self):
        assert lens_area(100.0, 200.0) == 0.0
        assert lens_area(100.0, 250.0) == 0.0

    def test_lens_area_worst_case_closed_form(self):
        # d = R: An = R^2 (2 pi / 3 - sqrt(3)/2)
        r = 100.0
        expected = r * r * (2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0)
        assert lens_area(r, r) == pytest.approx(expected)

    def test_lens_area_monotone_decreasing_in_distance(self):
        values = [lens_area(100.0, d) for d in np.linspace(0, 199, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_lens_area_rejects_negative_distance(self):
        with pytest.raises(AnalysisError):
            lens_area(100.0, -1.0)

    def test_integral_form_matches_closed_form(self):
        # The paper's own integral (Figure 4(b)) must agree with the
        # circular-segment formula at the worst case and elsewhere.
        for d in (10.0, 50.0, 100.0, 150.0):
            assert lens_area_integral(100.0, d) == pytest.approx(
                lens_area(100.0, d), rel=1e-6
            )

    def test_integral_form_edge_cases(self):
        assert lens_area_integral(100.0, 0.0) == pytest.approx(disk_area(100.0))
        assert lens_area_integral(100.0, 200.0) == 0.0

    def test_worst_case_fraction_value(self):
        # a = (2 pi/3 - sqrt(3)/2) / pi ~= 0.391
        assert WORST_CASE_OVERLAP_FRACTION == pytest.approx(0.3910022, rel=1e-5)
        assert lens_area(100.0, 100.0) / disk_area(100.0) == pytest.approx(
            WORST_CASE_OVERLAP_FRACTION
        )


class TestSampling:
    def test_sample_in_disk_within_bounds(self, rng):
        center = Vec2(10.0, -5.0)
        for _ in range(500):
            p = sample_in_disk(rng, center, 50.0)
            assert p.distance_to(center) <= 50.0 + 1e-9

    def test_sample_in_disk_is_area_uniform(self, rng):
        # Under area-uniformity, P(r <= R/2) = 1/4.
        center = Vec2(0.0, 0.0)
        inner = sum(
            1
            for _ in range(20_000)
            if sample_in_disk(rng, center, 1.0).distance_to(center) <= 0.5
        )
        assert 0.22 <= inner / 20_000 <= 0.28
