"""Tests for the cluster data model: the arrays' local views and the
NID-keyed ``ClusterLayout`` view."""

import numpy as np
import pytest

from repro.cluster.state import Boundary, Cluster
from repro.errors import ClusteringError
from repro.sim.array_engine.layout import PAD, ArrayLayout
from repro.topology.graph import UnitDiskGraph
from repro.types import NodeRole
from repro.util.geometry import Vec2
from tests.cluster_reference import RefLayout, assert_same_structure


def literal_layout(clusters, boundaries=(), node_count=None, xs=None, ys=None):
    """An :class:`ArrayLayout` written out by hand.

    ``clusters`` is ``[(head, members, deputies)]`` in head order (members
    NID-ascending, head excluded), ``boundaries`` is ``[(owner, peer,
    forwarders)]`` with cluster indices and forwarder NIDs in ladder
    order.  Nodes in no cluster are unclustered.
    """
    heads = [head for head, _members, _deputies in clusters]
    everyone = heads + [m for _h, members, _d in clusters for m in members]
    n = node_count if node_count is not None else 1 + max(everyone)
    c = len(clusters)
    width = max([len(members) for _h, members, _d in clusters] + [0])
    members = np.full((c, width), PAD, dtype=np.int64)
    assign = np.full(n, PAD, dtype=np.int64)
    deputies = np.full((c, 2), PAD, dtype=np.int64)
    deputy_slots = np.full((c, 2), PAD, dtype=np.int64)
    for ci, (head, row, deps) in enumerate(clusters):
        members[ci, : len(row)] = row
        assign[[head, *row]] = ci
        deputies[ci, : len(deps)] = deps
        deputy_slots[ci, : len(deps)] = [row.index(d) for d in deps]
    gateway_slots = np.full((len(boundaries), 3), PAD, dtype=np.int64)
    for bi, (owner, _peer, forwarders) in enumerate(boundaries):
        row = clusters[owner][1]
        gateway_slots[bi, : len(forwarders)] = [row.index(f) for f in forwarders]
    mask = members != PAD
    return ArrayLayout(
        cluster_count=c,
        node_count=n,
        radius=100.0,
        xs=np.zeros(n) if xs is None else np.asarray(xs, dtype=np.float64),
        ys=np.zeros(n) if ys is None else np.asarray(ys, dtype=np.float64),
        assign=assign,
        members=members,
        member_mask=mask,
        member_counts=mask.sum(axis=1),
        adjacency=np.zeros((c, width, width), dtype=bool),
        head_dist=np.where(mask, 1.0, np.inf),
        deputies=deputies,
        deputy_slots=deputy_slots,
        boundary_owner=np.array([b[0] for b in boundaries], dtype=np.int64),
        boundary_peer=np.array([b[1] for b in boundaries], dtype=np.int64),
        boundary_gateway_slots=gateway_slots,
        head_ids=np.array(heads, dtype=np.int64),
    )


def simple_arrays():
    """Two clusters: head 0 with deputies (1, 2), head 4 with deputy 5;
    node 3 is the GW and node 2 (a deputy) the BGW toward head 4."""
    return literal_layout(
        [(0, [1, 2, 3], [1, 2]), (4, [5, 6], [5])],
        [(0, 1, [3, 2])],
    )


def simple_layout():
    return simple_arrays().cluster_layout()


class TestCluster:
    def test_head_must_be_member(self):
        with pytest.raises(ClusteringError):
            Cluster(head=0, members=frozenset({1, 2}))

    def test_deputies_must_be_non_head_members(self):
        with pytest.raises(ClusteringError):
            Cluster(head=0, members=frozenset({0, 1}), deputies=(0,))
        with pytest.raises(ClusteringError):
            Cluster(head=0, members=frozenset({0, 1}), deputies=(9,))

    def test_duplicate_deputies_rejected(self):
        with pytest.raises(ClusteringError):
            Cluster(head=0, members=frozenset({0, 1, 2}), deputies=(1, 1))

    def test_derived_properties(self):
        c = Cluster(head=0, members=frozenset({0, 1, 2}), deputies=(2,))
        assert c.size == 3
        assert c.ordinary_members == frozenset({1, 2})
        assert c.primary_deputy == 2
        assert Cluster(head=0, members=frozenset({0})).primary_deputy is None


class TestBoundary:
    def test_forwarder_order(self):
        b = Boundary(owner=0, peer=1, gateway=5, backups=(6, 7))
        assert b.all_forwarders == (5, 6, 7)
        assert b.backup_count == 2


class TestClusterLayout:
    def test_boundary_owner_must_be_head(self):
        arrays = literal_layout([(0, [1], []), (2, [3], [])], [(0, 1, [1])])
        arrays.boundary_owner = np.array([5])
        with pytest.raises(ClusteringError):
            arrays.cluster_layout()

    def test_roles(self):
        layout = simple_layout()
        assert layout.role_of(0) is NodeRole.CH
        assert layout.role_of(3) is NodeRole.GW
        assert layout.role_of(2) is NodeRole.BGW  # deputy AND backup: GW wins
        assert layout.role_of(1) is NodeRole.DCH
        assert layout.role_of(6) is NodeRole.OM

    def test_unclustered_role(self):
        layout = literal_layout([(0, [], [])], node_count=10).cluster_layout()
        assert layout.role_of(9) is NodeRole.UNMARKED
        view = layout.local_view(9)
        assert view.role is NodeRole.UNMARKED and view.head == 9
        assert view.members == frozenset({9}) and view.deputies == ()

    def test_local_view_member(self):
        layout = simple_layout()
        view = layout.local_view(3)
        assert view.head == 0
        assert view.gateway_duties == {4: (0, 1)}
        assert view.members == frozenset({0, 1, 2, 3})

    def test_local_view_backup(self):
        layout = simple_layout()
        view = layout.local_view(2)
        assert view.gateway_duties == {4: (1, 1)}

    def test_local_view_head_boundaries(self):
        layout = simple_layout()
        view = layout.local_view(0)
        assert view.head_boundaries == {4: 2}
        assert layout.local_view(4).head_boundaries == {}

    def test_views_match_reference(self):
        # The deputy-and-BGW precedence case against the parent-era
        # boundary-scanning derivation.
        reference = RefLayout(
            clusters={
                0: Cluster(0, frozenset({0, 1, 2, 3}), (1, 2)),
                4: Cluster(4, frozenset({4, 5, 6}), (5,)),
            },
            boundaries={(0, 4): Boundary(owner=0, peer=4, gateway=3, backups=(2,))},
            unclustered=frozenset(),
        )
        assert_same_structure(simple_layout(), reference)

    def test_array_views_are_nid_keyed(self):
        # Node index i is the graph's i-th smallest NID.
        positions = {10: Vec2(0, 0), 20: Vec2(50, 0), 30: Vec2(90, 0)}
        arrays = literal_layout(
            [(0, [1, 2], [2])], xs=[0, 50, 90], ys=[0, 0, 0]
        )
        layout = arrays.cluster_layout(UnitDiskGraph(positions, 100.0))
        assert layout.heads == (10,)
        assert layout.local_view(30).role is NodeRole.DCH
        assert layout.local_view(30).members == frozenset({10, 20, 30})
        assert arrays.local_views()[2].deputies == (2,)

    def test_cluster_of_and_errors(self):
        layout = simple_layout()
        assert layout.cluster_of(5).head == 4
        with pytest.raises(ClusteringError):
            layout.cluster_of(99)
        with pytest.raises(ClusteringError):
            layout.local_view(99)

    def test_graph_validation_rejects_out_of_range_member(self):
        positions = {0: Vec2(0, 0), 1: Vec2(500, 0)}
        graph = UnitDiskGraph(positions, 100.0)
        arrays = literal_layout([(0, [1], [])])
        with pytest.raises(ClusteringError, match="unit disk"):
            arrays.cluster_layout(graph)

    def test_graph_validation_rejects_unreachable_forwarder(self):
        positions = {0: Vec2(0, 0), 1: Vec2(90, 0), 2: Vec2(300, 0), 3: Vec2(390, 0)}
        arrays = literal_layout([(0, [1], []), (2, [3], [])], [(0, 1, [1])])
        with pytest.raises(ClusteringError, match="cannot reach"):
            arrays.cluster_layout(UnitDiskGraph(positions, 100.0))

    def test_graph_validation_requires_full_coverage(self):
        positions = {0: Vec2(0, 0), 1: Vec2(50, 0)}
        graph = UnitDiskGraph(positions, 100.0)
        arrays = literal_layout([(0, [], [])], node_count=1)
        with pytest.raises(ClusteringError, match="account"):
            arrays.cluster_layout(graph)

    def test_summary(self):
        summary = simple_layout().summary()
        assert summary["clusters"] == 2.0
        assert summary["clustered_nodes"] == 7.0
        assert summary["boundaries"] == 1.0
        assert summary["mean_backups_per_boundary"] == 1.0

    def test_neighboring_heads(self):
        layout = simple_layout()
        assert layout.neighboring_heads(0) == (4,)
        assert layout.neighboring_heads(4) == ()
        assert layout.clustered_nodes() == tuple(range(7))
