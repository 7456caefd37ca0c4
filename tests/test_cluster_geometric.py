"""Tests for the geometric (oracle) clustering."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.geometric import build_clusters
from repro.topology.analysis import isolated_nodes
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.topology.placement import (
    cluster_disk_placement,
    gaussian_blobs_placement,
    grid_placement,
    uniform_disk_placement,
    uniform_rect_placement,
)
from repro.util.geometry import Vec2
from tests.cluster_reference import reference_clusters

RADIUS = 100.0


def line_graph(spacing, count, radius=RADIUS):
    return UnitDiskGraph(
        {i: Vec2(spacing * i, 0.0) for i in range(count)}, radius
    )


def partition(graph):
    """Head -> member set (head included) of the oracle layout."""
    return {
        head: set(cluster.members)
        for head, cluster in build_clusters(graph).clusters.items()
    }


class TestLowestIdPartition:
    def test_single_clique(self):
        g = UnitDiskGraph({i: Vec2(i * 10.0, 0) for i in range(5)}, RADIUS)
        assert partition(g) == {0: {0, 1, 2, 3, 4}}

    def test_chain_iterates(self):
        # 0-1-2-3-4 with only adjacent links: 0 claims 1; then 2 is lowest
        # unmarked and claims 3; 4 left surrounded -> singleton head.
        g = line_graph(spacing=80.0, count=5)
        assert partition(g) == {0: {0, 1}, 2: {2, 3}, 4: {4}}

    def test_surrounded_node_becomes_singleton_head(self):
        # 2-1-0: 0 claims 1; 2's only neighbor is marked -> singleton.
        g = UnitDiskGraph(
            {0: Vec2(0, 0), 1: Vec2(80, 0), 2: Vec2(160, 0)}, RADIUS
        )
        assert partition(g) == {0: {0, 1}, 2: {2}}

    def test_joiner_takes_the_lowest_head(self):
        # 0 and 1 both become heads in the first pass; 2 hears both.
        g = UnitDiskGraph(
            {0: Vec2(0, 0), 2: Vec2(80, 0), 1: Vec2(160, 0)}, RADIUS
        )
        assert partition(g) == {0: {0, 2}, 1: {1}}

    def test_isolated_nodes_not_clustered(self):
        # Both nodes have degree 0: neither is clustered (paper: isolated
        # nodes stay unaffiliated).
        g = UnitDiskGraph({0: Vec2(0, 0), 9: Vec2(9999, 9999)}, RADIUS)
        layout = build_clusters(g)
        assert layout.clusters == {}
        assert set(layout.unclustered) == {0, 9}

    def test_heads_never_adjacent(self, rng):
        placement = uniform_rect_placement(200, 600.0, 600.0, rng)
        g = UnitDiskGraph(placement, RADIUS)
        heads = sorted(partition(g))
        for i, a in enumerate(heads):
            for b in heads[i + 1:]:
                assert not g.are_neighbors(a, b)

    def test_every_node_covered_or_isolated(self, rng):
        placement = uniform_rect_placement(200, 600.0, 600.0, rng)
        g = UnitDiskGraph(placement, RADIUS)
        covered = set()
        for members in partition(g).values():
            covered |= members
        assert covered | set(isolated_nodes(g)) == set(g.nodes())


#: Placement families the oracle must agree with the reference walker on.
FAMILIES = {
    "lattice": lambda rng, first_id: {
        first_id + nid: pos
        for nid, pos in multi_cluster_field(4, 20, RADIUS, rng).items()
    },
    "rect_dense": lambda rng, first_id: uniform_rect_placement(
        120, 400.0, 400.0, rng, first_id=first_id
    ),
    "rect_sparse": lambda rng, first_id: uniform_rect_placement(
        60, 1200.0, 1200.0, rng, first_id=first_id
    ),
    "disk": lambda rng, first_id: uniform_disk_placement(
        80, 2.5 * RADIUS, rng, first_id=first_id
    ),
    "blobs": lambda rng, first_id: gaussian_blobs_placement(
        [30, 30, 30], [Vec2(0, 0), Vec2(150, 0), Vec2(60, 140)], 60.0, rng,
        first_id=first_id,
    ),
    "grid": lambda rng, first_id: grid_placement(8, 8, 50.0, first_id=first_id),
    "jittered_grid": lambda rng, first_id: grid_placement(
        8, 8, 60.0, jitter=10.0, rng=rng, first_id=first_id
    ),
    "worst_case_disk": lambda rng, first_id: cluster_disk_placement(
        40, RADIUS, rng, ch_id=first_id, worst_case_member=True
    ),
}

KNOB = st.integers(0, 3)

#: Multiples of r/20: 3-4-5 triangles and collinear runs put pairs
#: exactly at equal distances, and repeats give coincident points.
LATTICE = st.integers(-30, 30).map(lambda k: k * RADIUS / 20)


def assert_matches_reference(graph, deputy_count, max_backups):
    got = build_clusters(graph, deputy_count, max_backups)
    want = reference_clusters(graph, deputy_count, max_backups)
    assert list(got.clusters.items()) == list(want.clusters.items())
    assert list(got.boundaries.items()) == list(want.boundaries.items())
    assert got.unclustered == want.unclustered


class TestMatchesReference:
    """``build_clusters`` equals the node-at-a-time reference walker
    (``tests/cluster_reference.py``): members, deputies, every boundary
    ladder, the unclustered set, and the order of both dicts."""

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        seed=st.integers(0, 2**32 - 1),
        first_id=st.sampled_from([0, 1, 1000, 123_457]),
        deputy_count=KNOB,
        max_backups=KNOB,
    )
    def test_placement_families(
        self, family, seed, first_id, deputy_count, max_backups
    ):
        placement = FAMILIES[family](np.random.default_rng(seed), first_id)
        graph = UnitDiskGraph(placement, RADIUS)
        assert_matches_reference(graph, deputy_count, max_backups)

    @settings(max_examples=80, deadline=None)
    @given(
        points=st.lists(st.tuples(LATTICE, LATTICE), min_size=1, max_size=60),
        first_id=st.integers(0, 10**6),
        deputy_count=KNOB,
        max_backups=KNOB,
    )
    @example(
        points=[(0, 0), (60, 80), (100, 0), (0, 100), (80, 60), (160, 0)],
        first_id=0, deputy_count=3, max_backups=3,
    )
    def test_exact_distance_ties(self, points, first_id, deputy_count, max_backups):
        graph = UnitDiskGraph(
            {first_id + i: Vec2(x, y) for i, (x, y) in enumerate(points)}, RADIUS
        )
        assert_matches_reference(graph, deputy_count, max_backups)

    def test_out_of_order_nids(self):
        # NIDs unrelated to placement order or position.
        rng = np.random.default_rng(3)
        placement = uniform_rect_placement(150, 500.0, 500.0, rng)
        nids = rng.permutation(10**5)[:150]
        graph = UnitDiskGraph(
            {int(nids[i]): pos for i, pos in placement.items()}, RADIUS
        )
        assert_matches_reference(graph, 2, 2)


class TestBuildClusters:
    def test_members_one_hop_from_head(self, rng):
        placement = uniform_rect_placement(150, 500.0, 500.0, rng)
        g = UnitDiskGraph(placement, 100.0)
        layout = build_clusters(g)  # validates against the graph internally
        for cluster in layout.clusters.values():
            for member in cluster.ordinary_members:
                assert g.are_neighbors(cluster.head, member)

    def test_deputy_count_honored(self, rng):
        placement = multi_cluster_field(2, 20, 100.0, rng)
        g = UnitDiskGraph(placement, 100.0)
        layout = build_clusters(g, deputy_count=3)
        for cluster in layout.clusters.values():
            assert len(cluster.deputies) == min(3, cluster.size - 1)

    def test_boundaries_bidirectional_ownership(self, rng):
        # In a lowest-ID world the low cluster claims the whole lens, so
        # boundaries are owned by the lower head toward the higher one.
        placement = multi_cluster_field(2, 30, 100.0, rng)
        g = UnitDiskGraph(placement, 100.0)
        layout = build_clusters(g)
        assert (0, 1) in layout.boundaries
        boundary = layout.boundaries[(0, 1)]
        for forwarder in boundary.all_forwarders:
            assert g.are_neighbors(forwarder, 1)
            assert layout.cluster_of(forwarder).head == 0

    def test_max_backups_honored(self, rng):
        placement = multi_cluster_field(2, 40, 100.0, rng)
        g = UnitDiskGraph(placement, 100.0)
        for max_backups in (0, 1, 2):
            layout = build_clusters(g, max_backups=max_backups)
            for boundary in layout.boundaries.values():
                assert boundary.backup_count <= max_backups

    def test_deterministic(self, rng):
        placement = uniform_rect_placement(100, 400.0, 400.0, rng)
        g = UnitDiskGraph(placement, 100.0)
        a = build_clusters(g)
        b = build_clusters(g)
        assert a.heads == b.heads
        assert {h: c.members for h, c in a.clusters.items()} == {
            h: c.members for h, c in b.clusters.items()
        }

    def test_dense_single_disk_is_one_cluster(self, rng):
        placement = cluster_disk_placement(40, 100.0, rng)
        layout = build_clusters(UnitDiskGraph(placement, 100.0))
        assert layout.heads == (0,)
        assert layout.clusters[0].size == 41
