"""The scalar reference for the geometric cluster oracle.

A node-at-a-time walker over a :class:`UnitDiskGraph`: the iterative
lowest-ID partition, the deputy ranker and the boundary ranker, written
as directly as the rules read (Section 3 of the paper).
:func:`repro.cluster.geometric.build_clusters` computes the same
``ClusterLayout`` with array programs over the graph's edge list; the
tests hold the two equal field for field.  This walker lives here and
nowhere else.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

from repro.cluster.state import Boundary, Cluster, ClusterLayout
from repro.topology.graph import UnitDiskGraph
from repro.util.geometry import Vec2


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
) -> ClusterLayout:
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
    return ClusterLayout(
        clusters=clusters,
        boundaries=boundaries,
        graph=graph,
        unclustered=[nid for nid in graph.nodes() if nid not in covered],
    )
