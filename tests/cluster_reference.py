"""Scalar references for the cluster structure and its per-node slices.

Everything here is written as directly as the rules read (Section 3 of
the paper), over plain dicts, and lives here and nowhere else:

- the geometric oracle: a node-at-a-time walker over a
  :class:`UnitDiskGraph` (the iterative lowest-ID partition, the deputy
  ranker and the boundary ranker).
  :func:`repro.cluster.geometric.build_clusters` computes the same
  structure with array programs over the graph's edge list;
- the formation extraction: the structure read off the event engine's
  converged per-node protocols.  ``run_formation`` packs that state into
  arrays and converts it with the array engine's conversion instead;
- a node's role and local view, derived by scanning the boundaries.
  The code derives them once, on the arrays
  (``ArrayLayout.local_views``).

The tests hold each reference equal to the code it mirrors.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, NamedTuple, Optional, Set, Tuple

from repro.cluster.state import Boundary, Cluster, LocalClusterView
from repro.errors import ClusteringError
from repro.topology.graph import UnitDiskGraph
from repro.types import NodeRole
from repro.util.geometry import Vec2


class RefLayout(NamedTuple):
    """A whole cluster structure as plain dicts, keyed by NID."""

    clusters: Dict[int, Cluster]
    boundaries: Dict[Tuple[int, int], Boundary]
    unclustered: FrozenSet[int]


def lowest_id_partition(graph: UnitDiskGraph) -> Dict[int, Set[int]]:
    """Head -> member set (head included); isolated nodes are left out.

    Each pass, the unmarked nodes with the lowest NID in their unmarked
    one-hop neighborhood become heads, in NID order, and claim their
    still-unmarked neighbors.  ``min(unmarked)`` always qualifies, so
    every pass makes progress.
    """
    unmarked = set(graph.nodes())
    clusters: Dict[int, Set[int]] = {}
    while unmarked:
        heads = [
            nid
            for nid in sorted(unmarked)
            if all(other > nid for other in graph.neighbors(nid) if other in unmarked)
        ]
        for head in heads:
            if head not in unmarked:
                continue
            if graph.degree(head) == 0:
                unmarked.discard(head)
                continue
            members = {head} | {nid for nid in graph.neighbors(head) if nid in unmarked}
            clusters[head] = members
            unmarked -= members
    return clusters


def rank_deputies(
    head: int,
    members: FrozenSet[int],
    positions: Mapping[int, Vec2],
    graph: UnitDiskGraph,
) -> Tuple[int, ...]:
    """Non-head members by (distance to head, -in-cluster degree, NID)."""
    head_pos = positions[head]

    def key(nid: int) -> Tuple[float, int, int]:
        degree = sum(1 for nb in graph.neighbors(nid) if nb in members)
        return (positions[nid].distance_to(head_pos), -degree, nid)

    return tuple(sorted((m for m in members if m != head), key=key))


def select_boundary(
    owner_head: int,
    peer_head: int,
    owner_members: FrozenSet[int],
    graph: UnitDiskGraph,
    positions: Mapping[int, Vec2],
    max_backups: int,
) -> Optional[Boundary]:
    """The boundary ``owner_head -> peer_head``: owner members adjacent to
    the peer CH, by (larger of the two CH distances, NID); ``None`` when
    there is no such member."""
    peer_neighbors = set(graph.neighbors(peer_head))
    candidates = [
        m for m in owner_members if m != owner_head and m in peer_neighbors
    ]
    if not candidates:
        return None
    owner_pos, peer_pos = positions[owner_head], positions[peer_head]

    def key(nid: int) -> Tuple[float, int]:
        worst = max(
            positions[nid].distance_to(owner_pos),
            positions[nid].distance_to(peer_pos),
        )
        return (worst, nid)

    ranked = sorted(candidates, key=key)
    return Boundary(
        owner=owner_head,
        peer=peer_head,
        gateway=ranked[0],
        backups=tuple(ranked[1 : 1 + max_backups]),
    )


def reference_clusters(
    graph: UnitDiskGraph, deputy_count: int = 2, max_backups: int = 2
) -> RefLayout:
    """The whole oracle layout, walked node by node."""
    partition = lowest_id_partition(graph)
    covered = set().union(*partition.values()) if partition else set()
    positions = graph.positions()
    heads = sorted(partition)
    member_sets = {head: frozenset(partition[head]) for head in heads}
    clusters = [
        Cluster(
            head=head,
            members=member_sets[head],
            deputies=rank_deputies(head, member_sets[head], positions, graph)[
                :deputy_count
            ],
        )
        for head in heads
    ]
    boundaries = [
        boundary
        for owner in heads
        for peer in heads
        if peer != owner
        for boundary in [
            select_boundary(
                owner, peer, member_sets[owner], graph, positions, max_backups
            )
        ]
        if boundary is not None
    ]
    return RefLayout(
        clusters={c.head: c for c in clusters},
        boundaries={(b.owner, b.peer): b for b in boundaries},
        unclustered=frozenset(
            nid for nid in graph.nodes() if nid not in covered
        ),
    )


def reference_extraction(protocols) -> RefLayout:
    """The structure read off converged ``FormationProtocol`` state.

    Affiliation is taken from each *member's own* confirmed head (the
    node-side truth), which guarantees feature F3 (exactly one
    affiliation) even if a CH's member list drifted due to lost
    announcements.
    """
    heads = {nid for nid, p in protocols.items() if p.is_head}
    affiliation: Dict[int, int] = {}
    for nid, protocol in protocols.items():
        if protocol.is_head:
            affiliation[nid] = nid
        elif protocol.confirmed_head is not None and protocol.confirmed_head in heads:
            affiliation[nid] = protocol.confirmed_head

    clusters: Dict[int, Cluster] = {}
    for head in sorted(heads):
        members = frozenset(
            nid for nid, h in affiliation.items() if h == head
        ) | {head}
        deputies = tuple(
            d for d in protocols[head].announced_deputies if d in members
        )
        clusters[head] = Cluster(head=head, members=members, deputies=deputies)

    boundaries: Dict[Tuple[int, int], Boundary] = {}
    for head in sorted(heads):
        for peer, forwarders in sorted(protocols[head].boundary_assignments.items()):
            if peer not in heads:
                continue
            usable = tuple(f for f in forwarders if affiliation.get(f) == head)
            if not usable:
                continue
            boundaries[(head, peer)] = Boundary(
                owner=head, peer=peer, gateway=usable[0], backups=usable[1:]
            )

    return RefLayout(
        clusters=clusters,
        boundaries=boundaries,
        unclustered=frozenset(nid for nid in protocols if nid not in affiliation),
    )


def _cluster_of(layout: RefLayout, node_id: int) -> Cluster:
    for cluster in layout.clusters.values():
        if node_id in cluster.members:
            return cluster
    raise ClusteringError(f"node {node_id} is not clustered")


def _gateway_ranks(
    layout: RefLayout, node_id: int, head: int
) -> Dict[int, Tuple[int, int]]:
    duties: Dict[int, Tuple[int, int]] = {}
    for (owner, peer), boundary in layout.boundaries.items():
        if owner != head:
            continue
        forwarders = boundary.all_forwarders
        if node_id in forwarders:
            duties[peer] = (forwarders.index(node_id), boundary.backup_count)
    return duties


def reference_role(layout: RefLayout, node_id: int) -> NodeRole:
    """The most specific role, in the order CH > GW > BGW > DCH > OM."""
    if node_id in layout.unclustered:
        return NodeRole.UNMARKED
    cluster = _cluster_of(layout, node_id)
    if node_id == cluster.head:
        return NodeRole.CH
    ranks = _gateway_ranks(layout, node_id, cluster.head)
    if any(rank == 0 for rank, _n in ranks.values()):
        return NodeRole.GW
    if ranks:
        return NodeRole.BGW
    if node_id in cluster.deputies:
        return NodeRole.DCH
    return NodeRole.OM


def reference_local_view(layout: RefLayout, node_id: int) -> LocalClusterView:
    """The per-node knowledge slice, by scanning every boundary."""
    if node_id in layout.unclustered:
        return LocalClusterView(
            node_id=node_id,
            role=NodeRole.UNMARKED,
            head=node_id,
            members=frozenset({node_id}),
            deputies=(),
        )
    cluster = _cluster_of(layout, node_id)
    head_boundaries: Dict[int, int] = {}
    if node_id == cluster.head:
        for (owner, peer), boundary in layout.boundaries.items():
            if owner == cluster.head:
                head_boundaries[peer] = len(boundary.all_forwarders)
    return LocalClusterView(
        node_id=node_id,
        role=reference_role(layout, node_id),
        head=cluster.head,
        members=cluster.members,
        deputies=cluster.deputies,
        gateway_duties=_gateway_ranks(layout, node_id, cluster.head),
        head_boundaries=head_boundaries,
    )


def assert_same_structure(got, want: RefLayout) -> None:
    """A ``ClusterLayout`` view equals a reference, dict order included,
    and so does every node's local view."""
    assert list(got.clusters.items()) == list(want.clusters.items())
    assert list(got.boundaries.items()) == list(want.boundaries.items())
    assert got.unclustered == want.unclustered
    nodes = set(want.unclustered).union(
        *(c.members for c in want.clusters.values())
    )
    for nid in sorted(nodes):
        view, ref = got.local_view(nid), reference_local_view(want, nid)
        assert view == ref, nid
        assert list(view.gateway_duties.items()) == list(ref.gateway_duties.items())
        assert list(view.head_boundaries.items()) == list(ref.head_boundaries.items())
