"""Tests for placement generators."""

import math

import numpy as np
import pytest

from repro.cluster.geometric import build_clusters
from repro.errors import TopologyError
from repro.topology.graph import UnitDiskGraph
from repro.topology.placement import (
    cluster_disk_placement,
    gaussian_blobs_placement,
    grid_placement,
    uniform_disk_placement,
    uniform_rect_placement,
)
from repro.util.geometry import Vec2


class TestUniformDisk:
    def test_count_ids_and_bounds(self, rng):
        placement = uniform_disk_placement(50, 100.0, rng, first_id=10)
        assert sorted(placement) == list(range(10, 60))
        for pos in placement.values():
            assert pos.norm() <= 100.0 + 1e-9

    def test_center_offset(self, rng):
        center = Vec2(500.0, 500.0)
        placement = uniform_disk_placement(20, 50.0, rng, center=center)
        for pos in placement.values():
            assert pos.distance_to(center) <= 50.0 + 1e-9


class TestUniformRect:
    def test_bounds(self, rng):
        placement = uniform_rect_placement(100, 300.0, 200.0, rng)
        for pos in placement.values():
            assert 0.0 <= pos.x <= 300.0
            assert 0.0 <= pos.y <= 200.0

    def test_invalid_count(self, rng):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            uniform_rect_placement(0, 10.0, 10.0, rng)


class TestGrid:
    def test_exact_lattice(self):
        placement = grid_placement(2, 3, spacing=10.0)
        assert len(placement) == 6
        assert placement[0] == Vec2(0.0, 0.0)
        assert placement[2] == Vec2(20.0, 0.0)
        assert placement[3] == Vec2(0.0, 10.0)

    def test_jitter_requires_rng(self):
        with pytest.raises(TopologyError):
            grid_placement(2, 2, spacing=10.0, jitter=1.0)

    def test_jitter_bounded(self, rng):
        placement = grid_placement(3, 3, spacing=10.0, jitter=0.5, rng=rng)
        clean = grid_placement(3, 3, spacing=10.0)
        for nid in placement:
            assert placement[nid].distance_to(clean[nid]) <= math.sqrt(2) * 0.5


class TestGaussianBlobs:
    def test_counts_per_blob(self, rng):
        placement = gaussian_blobs_placement(
            [5, 7], [Vec2(0, 0), Vec2(1000, 0)], sigma=10.0, rng=rng
        )
        assert len(placement) == 12
        near_second = sum(
            1 for p in placement.values() if p.distance_to(Vec2(1000, 0)) < 100
        )
        assert near_second == 7

    def test_mismatched_lengths(self, rng):
        with pytest.raises(TopologyError):
            gaussian_blobs_placement([5], [Vec2(0, 0), Vec2(1, 1)], 1.0, rng)


class TestClusterDisk:
    def test_ch_at_center_with_lowest_id(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        assert placement[0] == Vec2(0.0, 0.0)
        assert min(placement) == 0
        assert len(placement) == 11

    def test_worst_case_member_on_circumference(self, rng):
        placement = cluster_disk_placement(
            10, 100.0, rng, worst_case_member=True
        )
        edge = placement[max(placement)]
        assert edge.norm() == pytest.approx(100.0)

    def test_worst_case_member_stays_in_range(self):
        """Rounding can put v just past R (19 of these seeds), which
        would split the analysis cluster in two: v must pass the range
        test and stay within a few ulps of R."""
        for seed in range(200):
            placement = cluster_disk_placement(
                50, 100.0, np.random.default_rng(seed), worst_case_member=True
            )
            layout = build_clusters(UnitDiskGraph(placement, 100.0))
            assert layout.heads == (0,), seed
            assert not layout.unclustered
            edge = placement[50]
            assert abs(edge.norm() - 100.0) <= 4 * np.spacing(100.0), seed

    def test_all_members_within_ch_range(self, rng):
        placement = cluster_disk_placement(40, 100.0, rng)
        for pos in placement.values():
            assert pos.norm() <= 100.0 + 1e-9
