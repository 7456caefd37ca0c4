"""Tests for scenario topology generators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.topology.analysis import is_connected
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.topology.placement import cluster_disk_placement


class TestSingleClusterDisk:
    """A one-cluster lattice is the Section 5 analysis cluster."""

    def test_population(self, rng):
        placement = multi_cluster_field(1, 49, 100.0, rng)
        assert len(placement) == 50  # N = member_count + 1 (the CH)

    def test_all_one_hop_from_ch(self, rng):
        placement = multi_cluster_field(1, 30, 100.0, rng)
        g = UnitDiskGraph(placement, 100.0)
        assert g.degree(0) == 30

    def test_draws_what_cluster_disk_placement_draws(self):
        assert multi_cluster_field(
            1, 30, 100.0, np.random.default_rng(5)
        ) == cluster_disk_placement(30, 100.0, np.random.default_rng(5))


class TestMultiClusterField:
    def test_ch_ids_are_lowest(self, rng):
        placement = multi_cluster_field(4, 20, 100.0, rng)
        assert len(placement) == 4 + 4 * 20
        # CHs are 0..3 at lattice points.
        for head in range(4):
            assert placement[head].x % 160.0 == pytest.approx(0.0)

    def test_chs_not_mutual_neighbors(self, rng):
        placement = multi_cluster_field(4, 20, 100.0, rng, spacing_factor=1.6)
        g = UnitDiskGraph(placement, 100.0)
        for a in range(4):
            for b in range(a + 1, 4):
                assert not g.are_neighbors(a, b)

    def test_field_connected_when_dense(self, rng):
        placement = multi_cluster_field(4, 40, 100.0, rng)
        assert is_connected(UnitDiskGraph(placement, 100.0))

    def test_spacing_factor_bounds(self, rng):
        with pytest.raises(TopologyError):
            multi_cluster_field(2, 5, 100.0, rng, spacing_factor=2.5)
        with pytest.raises(TopologyError):
            multi_cluster_field(2, 5, 100.0, rng, spacing_factor=1.0)

    @pytest.mark.parametrize("columns", [0, -2, 2.5, True])
    def test_columns_must_be_a_positive_int(self, rng, columns):
        # Unchecked, 0 would divide by zero, -2 would stack CHs at
        # negative lattice points and 2.5 would place a non-lattice field.
        with pytest.raises(ConfigurationError, match="columns"):
            multi_cluster_field(4, 5, 100.0, rng, columns=columns)


class TestCorridor:
    """One lattice row: a chain of overlapping clusters."""

    def test_chs_form_a_line(self, rng):
        placement = multi_cluster_field(5, 10, 100.0, rng, columns=5)
        ys = {placement[h].y for h in range(5)}
        assert ys == {0.0}
        xs = [placement[h].x for h in range(5)]
        assert xs == sorted(xs)

    def test_adjacent_disks_overlap(self, rng):
        placement = multi_cluster_field(3, 10, 100.0, rng, columns=3)
        # CH spacing 160 < 2R = 200: the disks overlap.
        assert placement[1].x - placement[0].x < 200.0
