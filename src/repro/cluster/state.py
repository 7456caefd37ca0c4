"""Cluster structure data model.

A :class:`Cluster` is the unit the FDS executes in: a clusterhead (CH), its
one-hop members, a ranked list of deputy clusterheads (DCHs, feature F2),
and -- per neighboring cluster -- a :class:`Boundary` holding the primary
gateway (GW) and ranked backup gateways (BGWs).

:class:`ClusterLayout` is the whole-network structure keyed by NID: a
read-only view of the one cluster structure the code assembles, the
:class:`~repro.sim.array_engine.layout.ArrayLayout`.  The arrays hold
the paper's structural invariants by construction -- every node sits in
at most one cluster row (feature F3, gateways included), heads are
distinct, deputies and gateways are member slots of the cluster they
serve -- and the view checks the geometric ones against a graph:

- every member of a cluster is a one-hop neighbor of its CH (clusters map
  to unit disks, Section 3);
- every forwarder reaches the peer CH of its boundary;
- every node of the graph is accounted for.

:class:`LocalClusterView` is the slice of the layout a single node is
allowed to know -- what the formation protocol's announcements told it.
The FDS protocol consumes only local views, never the global layout;
they are derived once, on the arrays
(:meth:`~repro.sim.array_engine.layout.ArrayLayout.local_views`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.errors import ClusteringError
from repro.topology.graph import UnitDiskGraph
from repro.types import NodeId, NodeRole


@dataclass(frozen=True)
class Boundary:
    """The forwarding roles between two neighboring clusters.

    ``gateway`` is the primary GW; ``backups`` are the BGWs in rank order
    (rank 1 first -- rank k waits ``k * 2*Thop`` before stepping in,
    Section 4.3).  All of them belong to *one* of the two clusters
    (``owner``), per feature F3.
    """

    owner: NodeId
    peer: NodeId
    gateway: NodeId
    backups: Tuple[NodeId, ...] = ()

    @property
    def all_forwarders(self) -> Tuple[NodeId, ...]:
        """GW first, then BGWs in rank order."""
        return (self.gateway, *self.backups)

    @property
    def backup_count(self) -> int:
        """``n`` in the paper's standby-timeout formulas."""
        return len(self.backups)


@dataclass(frozen=True)
class Cluster:
    """One cluster: CH, members (CH included), ranked deputies."""

    head: NodeId
    members: FrozenSet[NodeId]
    deputies: Tuple[NodeId, ...] = ()

    def __post_init__(self) -> None:
        if self.head not in self.members:
            raise ClusteringError(
                f"clusterhead {self.head} must be in its own member set"
            )
        for deputy in self.deputies:
            if deputy == self.head or deputy not in self.members:
                raise ClusteringError(
                    f"deputy {deputy} of cluster {self.head} must be a "
                    "non-head member"
                )
        if len(set(self.deputies)) != len(self.deputies):
            raise ClusteringError(f"duplicate deputies in cluster {self.head}")

    @property
    def size(self) -> int:
        """Total population ``N`` of the cluster (CH included)."""
        return len(self.members)

    @property
    def ordinary_members(self) -> FrozenSet[NodeId]:
        """Members other than the CH."""
        return self.members - {self.head}

    @property
    def primary_deputy(self) -> Optional[NodeId]:
        """The highest-ranked DCH (the CH-failure detection authority)."""
        return self.deputies[0] if self.deputies else None


@dataclass(frozen=True)
class LocalClusterView:
    """What one node knows about its own cluster and boundary duties."""

    node_id: NodeId
    role: NodeRole
    head: NodeId
    members: FrozenSet[NodeId]
    deputies: Tuple[NodeId, ...]
    #: For GW/BGW nodes: peer CH -> (my rank, boundary backup count n).
    #: Rank 0 is the primary gateway; ranks 1..n are BGWs.
    gateway_duties: Mapping[NodeId, Tuple[int, int]] = field(default_factory=dict)
    #: For CH nodes: peer CH -> number of forwarders (GW + BGWs) on the
    #: outgoing boundary.  Drives the origin's implicit-ack watch (Fig. 3).
    head_boundaries: Mapping[NodeId, int] = field(default_factory=dict)

    @property
    def is_head(self) -> bool:
        return self.node_id == self.head


class ClusterLayout:
    """A read-only, NID-keyed view of an
    :class:`~repro.sim.array_engine.layout.ArrayLayout`.

    Built only by :meth:`ArrayLayout.cluster_layout
    <repro.sim.array_engine.layout.ArrayLayout.cluster_layout>`: node
    index ``i`` of the arrays is NID ``graph.nodes()[i]`` when a graph is
    given (and the structure is validated against it), NID ``i``
    otherwise.  Everything here is read off the arrays' one local-view
    derivation (:meth:`ArrayLayout.local_views`): ``clusters`` from the
    heads' views, ``boundaries`` from the forwarders' gateway duties.
    """

    def __init__(self, array, graph: Optional[UnitDiskGraph] = None) -> None:
        self.array = array
        clusters = array.cluster_count
        for owner, peer in zip(
            array.boundary_owner.tolist(), array.boundary_peer.tolist()
        ):
            if not (0 <= owner < clusters and 0 <= peer < clusters):
                raise ClusteringError(
                    f"boundary {owner}->{peer} does not join two clusters"
                )
        nid_of = graph.nodes() if graph is not None else range(array.node_count)
        self._views: Dict[NodeId, LocalClusterView] = array.local_views(nid_of)
        self.clusters: Dict[NodeId, Cluster] = {}
        unclustered = []
        ladders: Dict[Tuple[NodeId, NodeId], Dict[int, NodeId]] = {}
        for nid, view in sorted(self._views.items()):
            if view.role is NodeRole.UNMARKED:
                unclustered.append(nid)
            elif view.is_head:
                self.clusters[nid] = Cluster(nid, view.members, view.deputies)
            for peer, (rank, _n) in view.gateway_duties.items():
                ladders.setdefault((view.head, peer), {})[rank] = nid
        self.unclustered: FrozenSet[NodeId] = frozenset(unclustered)
        self.boundaries: Dict[Tuple[NodeId, NodeId], Boundary] = {
            (owner, peer): Boundary(
                owner=owner,
                peer=peer,
                gateway=ladder[0],
                backups=tuple(ladder[r] for r in range(1, len(ladder))),
            )
            for (owner, peer), ladder in sorted(ladders.items())
        }
        if graph is not None:
            self._validate_against_graph(graph)

    # ------------------------------------------------------------------
    def _validate_against_graph(self, graph: UnitDiskGraph) -> None:
        for cluster in self.clusters.values():
            for member in cluster.ordinary_members:
                if not graph.are_neighbors(cluster.head, member):
                    raise ClusteringError(
                        f"member {member} is not a one-hop neighbor of its "
                        f"CH {cluster.head}; clusters must map to unit disks"
                    )
        for (owner, peer), boundary in self.boundaries.items():
            for forwarder in boundary.all_forwarders:
                if not graph.are_neighbors(forwarder, peer):
                    raise ClusteringError(
                        f"forwarder {forwarder} on boundary {owner}->{peer} "
                        f"cannot reach the peer CH {peer}"
                    )
        missing = set(graph.nodes()) - set(self._views)
        if missing:
            raise ClusteringError(
                f"layout does not account for nodes {sorted(missing)}"
            )

    # ------------------------------------------------------------------
    @property
    def heads(self) -> Tuple[NodeId, ...]:
        """All clusterhead NIDs, sorted."""
        return tuple(self.clusters)

    def cluster_of(self, node_id: NodeId) -> Cluster:
        """The cluster a node is affiliated with."""
        if not self.is_clustered(node_id):
            raise ClusteringError(f"node {node_id} is not clustered")
        return self.clusters[self._views[node_id].head]

    def is_clustered(self, node_id: NodeId) -> bool:
        view = self._views.get(node_id)
        return view is not None and view.role is not NodeRole.UNMARKED

    def role_of(self, node_id: NodeId) -> NodeRole:
        """The role a node plays in the layout (see
        :meth:`ArrayLayout.local_views` for the precedence)."""
        return self.local_view(node_id).role

    def local_view(self, node_id: NodeId) -> LocalClusterView:
        """The per-node knowledge slice the FDS protocol is given."""
        try:
            return self._views[node_id]
        except KeyError:
            raise ClusteringError(f"node {node_id} is not clustered") from None

    def local_views(self) -> Dict[NodeId, LocalClusterView]:
        """Every node's view, keyed by NID."""
        return self._views

    def neighboring_heads(self, head: NodeId) -> Tuple[NodeId, ...]:
        """CHs this cluster has an outgoing boundary to."""
        return tuple(
            sorted(peer for (owner, peer) in self.boundaries if owner == head)
        )

    def clustered_nodes(self) -> Tuple[NodeId, ...]:
        """All nodes affiliated with some cluster, sorted."""
        return tuple(nid for nid in sorted(self._views) if self.is_clustered(nid))

    def summary(self) -> Dict[str, float]:
        """Structural statistics, for reports and sanity checks."""
        sizes = [c.size for c in self.clusters.values()]
        return {
            "clusters": float(len(self.clusters)),
            "clustered_nodes": float(len(self._views) - len(self.unclustered)),
            "unclustered_nodes": float(len(self.unclustered)),
            "min_cluster_size": float(min(sizes)) if sizes else 0.0,
            "mean_cluster_size": float(sum(sizes) / len(sizes)) if sizes else 0.0,
            "max_cluster_size": float(max(sizes)) if sizes else 0.0,
            "boundaries": float(len(self.boundaries)),
            "mean_backups_per_boundary": (
                float(
                    sum(b.backup_count for b in self.boundaries.values())
                    / len(self.boundaries)
                )
                if self.boundaries
                else 0.0
            ),
        }
