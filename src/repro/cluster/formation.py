"""The distributed cluster-formation protocol (Section 3, features F1-F5).

Each formation *iteration* is a fixed schedule of six rounds of duration
``Thop`` (the same per-round timeout discipline as the FDS):

====  =====================================================================
R0    every node broadcasts a :class:`FormationHeartbeat` carrying its
      marked bit and, if it is a CH, its head flag (one-hop probing).
R1    every unmarked node whose NID is the lowest among the *unmarked*
      nodes it heard (itself included) declares itself CH after a random
      RCC backoff, unless a lower-NID declaration is heard first.
R2    unmarked nodes that heard declarations (or head-flagged heartbeats)
      send a :class:`JoinRequest` to the lowest-NID head they heard.
R3    each CH broadcasts a :class:`ClusterAnnouncement` with its member
      list and ranked deputies; members that hear it confirm affiliation
      and mark themselves.
R4    confirmed members that heard *other* heads this iteration send a
      :class:`GatewayCandidacy` to their own CH (feature F1 candidates).
R5    each CH broadcasts one :class:`BoundaryAssignment` per neighboring
      cluster, naming the primary GW and ranked BGWs (features F2/F3).
====  =====================================================================

Feature F4 (no termination rule) is modeled by simply running as many
iterations as the caller asks for; an iteration in which nothing is
unmarked degenerates to heartbeats plus announcements, costing nothing new.
Feature F5 (sharing the first round with the FDS) is realized by the
maintenance layer (:mod:`repro.cluster.maintenance`), which feeds FDS
heartbeats from unmarked nodes back into admission.

Loss-induced conflicts (two adjacent CHs) are repaired by the RCC rule: a
CH that hears a lower-NID CH resigns and dissolves its cluster
(:mod:`repro.cluster.rcc`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cluster import rcc
from repro.cluster.state import Boundary, Cluster, ClusterLayout
from repro.errors import ClusteringError
from repro.sim.medium import Envelope
from repro.sim.network import Network
from repro.sim.node import Protocol
from repro.types import NodeId
from repro.util.validation import check_int_at_least, check_positive

# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FormationHeartbeat:
    """One-hop probe: who is out there, and are they marked / a head."""

    sender: NodeId
    marked: bool
    is_head: bool


@dataclass(frozen=True, slots=True)
class ChDeclaration:
    """A node announces itself as clusterhead."""

    sender: NodeId


@dataclass(frozen=True, slots=True)
class JoinRequest:
    """An unmarked node asks to join ``head``'s cluster."""

    sender: NodeId
    head: NodeId


@dataclass(frozen=True, slots=True)
class ClusterAnnouncement:
    """The CH's cluster-organization broadcast."""

    head: NodeId
    members: FrozenSet[NodeId]
    deputies: Tuple[NodeId, ...]


@dataclass(frozen=True, slots=True)
class GatewayCandidacy:
    """A member tells its CH which foreign heads it can hear."""

    sender: NodeId
    head: NodeId
    foreign_heads: FrozenSet[NodeId]


@dataclass(frozen=True, slots=True)
class BoundaryAssignment:
    """The CH's ranked forwarder list toward one neighboring cluster."""

    head: NodeId
    peer: NodeId
    forwarders: Tuple[NodeId, ...]


@dataclass(frozen=True, slots=True)
class ClusterDissolve:
    """A resigning CH releases its members (RCC conflict repair)."""

    head: NodeId


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

#: A node that has heard *any* clusterhead recently will not declare
#: itself CH until this many consecutive iterations pass with no head
#: heard.  This time redundancy prevents a covered node from spuriously
#: declaring (and conflicting) just because one iteration's head
#: heartbeats were lost.
DECLARATION_PATIENCE = 2


@dataclass(frozen=True)
class FormationConfig:
    """Tuning of the formation protocol.

    ``thop`` must exceed the medium's maximum one-hop delay so that every
    message sent at a round's start is delivered (if not lost) within the
    round.
    """

    thop: float = 0.5
    iterations: int = 3
    deputy_count: int = 2
    max_backups: int = 2
    #: Upper bound of the RCC declaration backoff as a fraction of a
    #: round (see :func:`repro.cluster.rcc.declaration_backoff`).  Must
    #: leave ``(1 - backoff_fraction) * thop`` of slack above the
    #: medium's max one-hop delay so a backed-off declaration still
    #: lands within its round.
    backoff_fraction: float = 0.4

    #: Rounds per iteration (fixed by the protocol structure).
    ROUNDS_PER_ITERATION: int = field(default=6, init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("thop", self.thop)
        check_int_at_least("iterations", self.iterations, 1)
        check_int_at_least("deputy_count", self.deputy_count, 0)
        check_int_at_least("max_backups", self.max_backups, 0)
        if not 0.0 < self.backoff_fraction <= 0.9:
            raise ClusteringError(
                "backoff_fraction must be in (0, 0.9], got "
                f"{self.backoff_fraction}"
            )

    @property
    def iteration_duration(self) -> float:
        return self.ROUNDS_PER_ITERATION * self.thop

    def total_duration(self) -> float:
        """Simulated time needed to run all iterations (plus slack)."""
        return self.iterations * self.iteration_duration + self.thop


# ----------------------------------------------------------------------
# The per-node protocol
# ----------------------------------------------------------------------


class FormationProtocol(Protocol):
    """Per-node cluster-formation behaviour."""

    name = "formation"

    def __init__(self, config: FormationConfig, rng_seed_stream) -> None:
        super().__init__()
        self.config = config
        self._rng = rng_seed_stream
        # Durable role state.
        self.is_head = False
        self.confirmed_head: Optional[NodeId] = None
        self.marked = False
        self.announced_members: FrozenSet[NodeId] = frozenset()
        self.announced_deputies: Tuple[NodeId, ...] = ()
        #: For heads: peer head -> ranked forwarders (as assigned in R5).
        self.boundary_assignments: Dict[NodeId, Tuple[NodeId, ...]] = {}
        #: For members: peer head -> (my rank, backup count) duties heard.
        self.my_gateway_duties: Dict[NodeId, Tuple[int, int]] = {}
        # Per-iteration scratch state.
        self._heard_unmarked: Set[NodeId] = set()
        self._heard_heads: Set[NodeId] = set()
        self._declarations_heard: Set[NodeId] = set()
        self._join_requests: Set[NodeId] = set()
        self._members: Set[NodeId] = set()
        self._candidacies: Dict[NodeId, Set[NodeId]] = {}
        self._declared_this_round = False
        self._pending_declaration = None
        # Iterations in a row with no clusterhead heard (starts at the
        # patience threshold so iteration 1 may declare).
        self._no_head_iterations = DECLARATION_PATIENCE

    # -- lifecycle ------------------------------------------------------
    def start(self, first_epoch: float) -> None:
        """Schedule all iterations starting at ``first_epoch``."""
        assert self.node is not None
        delay = first_epoch - self.node.sim.now
        for i in range(self.config.iterations):
            offset = delay + i * self.config.iteration_duration
            self._schedule_iteration(offset)

    def _schedule_iteration(self, offset: float) -> None:
        assert self.node is not None
        timers = self.node.timers
        thop = self.config.thop
        timers.after(offset + 0 * thop, self._round0_heartbeat)
        timers.after(offset + 1 * thop, self._round1_declare)
        timers.after(offset + 2 * thop, self._round2_join)
        timers.after(offset + 3 * thop, self._round3_announce)
        timers.after(offset + 4 * thop, self._round4_candidacy)
        timers.after(offset + 5 * thop, self._round5_boundaries)

    # -- rounds ---------------------------------------------------------
    def _round0_heartbeat(self) -> None:
        assert self.node is not None
        self._heard_unmarked = set()
        self._heard_heads = set()
        self._declarations_heard = set()
        self._join_requests = set()
        self._candidacies = {}
        self._declared_this_round = False
        self.node.send(
            FormationHeartbeat(
                sender=self.node.node_id, marked=self.marked, is_head=self.is_head
            )
        )

    def _round1_declare(self) -> None:
        assert self.node is not None
        if self.marked:
            return
        my_id = self.node.node_id
        if self._heard_heads:
            self._no_head_iterations = 0
        else:
            self._no_head_iterations += 1
        if any(n < my_id for n in self._heard_unmarked):
            return
        if any(h < my_id for h in self._heard_heads):
            # A lower-NID clusterhead is in range: lowest-ID policy says we
            # join it (round R2) rather than declare a conflicting cluster.
            return
        if self._no_head_iterations < DECLARATION_PATIENCE:
            # We heard a head recently; this iteration's silence is more
            # likely message loss than a genuine coverage hole.  Wait.
            return
        # Qualified: lowest NID in the unmarked neighborhood heard.  Apply
        # the RCC backoff; a lower-NID declaration heard in the meantime
        # suppresses ours.
        backoff = rcc.declaration_backoff(
            self._rng, self.config.thop, self.config.backoff_fraction
        )
        self._pending_declaration = self.node.timers.after(
            backoff, self._fire_declaration
        )

    def _fire_declaration(self) -> None:
        assert self.node is not None
        if self.marked:
            return
        my_id = self.node.node_id
        if any(d < my_id for d in self._declarations_heard):
            return
        if any(h < my_id for h in self._heard_heads):
            return
        self.is_head = True
        self.marked = True
        self.confirmed_head = self.node.node_id
        self._members = {self.node.node_id}
        self._declared_this_round = True
        self.node.send(ChDeclaration(sender=self.node.node_id))

    def _round2_join(self) -> None:
        assert self.node is not None
        if self.marked:
            return
        heads_available = self._declarations_heard | self._heard_heads
        if not heads_available:
            return
        target = min(heads_available)
        self.node.send(JoinRequest(sender=self.node.node_id, head=target), recipient=target)

    def _round3_announce(self) -> None:
        assert self.node is not None
        if not self.is_head:
            return
        self._members |= self._join_requests
        self._members.add(self.node.node_id)
        members = frozenset(self._members)
        # Distributed deputy ranking: the CH knows only NIDs, so deputies
        # are the lowest-NID members (a deterministic choice every member
        # can verify from the announcement).
        deputies = tuple(
            sorted(m for m in members if m != self.node.node_id)
        )[: self.config.deputy_count]
        self.announced_members = members
        self.announced_deputies = deputies
        self.node.send(
            ClusterAnnouncement(
                head=self.node.node_id, members=members, deputies=deputies
            )
        )

    def _round4_candidacy(self) -> None:
        assert self.node is not None
        if self.is_head or self.confirmed_head is None:
            return
        foreign = {h for h in (self._heard_heads | self._declarations_heard)
                   if h != self.confirmed_head}
        if not foreign:
            return
        self.node.send(
            GatewayCandidacy(
                sender=self.node.node_id,
                head=self.confirmed_head,
                foreign_heads=frozenset(foreign),
            ),
            recipient=self.confirmed_head,
        )

    def _round5_boundaries(self) -> None:
        assert self.node is not None
        if not self.is_head:
            return
        per_peer: Dict[NodeId, List[NodeId]] = {}
        for candidate, peers in sorted(self._candidacies.items()):
            for peer in peers:
                per_peer.setdefault(peer, []).append(candidate)
        for peer, candidates in sorted(per_peer.items()):
            ranked = tuple(sorted(candidates))[: 1 + self.config.max_backups]
            self.boundary_assignments[peer] = ranked
            self.node.send(
                BoundaryAssignment(head=self.node.node_id, peer=peer, forwarders=ranked)
            )

    # -- receive --------------------------------------------------------
    def on_receive(self, envelope: Envelope) -> None:
        assert self.node is not None
        payload = envelope.payload
        if isinstance(payload, FormationHeartbeat):
            if not payload.marked:
                self._heard_unmarked.add(payload.sender)
            if payload.is_head:
                self._heard_heads.add(payload.sender)
                self._maybe_resign(payload.sender)
        elif isinstance(payload, ChDeclaration):
            self._declarations_heard.add(payload.sender)
            self._maybe_resign(payload.sender)
        elif isinstance(payload, JoinRequest):
            if self.is_head and payload.head == self.node.node_id:
                self._join_requests.add(payload.sender)
        elif isinstance(payload, ClusterAnnouncement):
            self._on_announcement(payload)
        elif isinstance(payload, GatewayCandidacy):
            if self.is_head and payload.head == self.node.node_id:
                if payload.sender in self._members:
                    self._candidacies.setdefault(payload.sender, set()).update(
                        payload.foreign_heads
                    )
        elif isinstance(payload, BoundaryAssignment):
            self._on_boundary_assignment(payload)
        elif isinstance(payload, ClusterDissolve):
            if self.confirmed_head == payload.head and not self.is_head:
                self._become_unmarked()

    def _on_announcement(self, announcement: ClusterAnnouncement) -> None:
        assert self.node is not None
        my_id = self.node.node_id
        self._heard_heads.add(announcement.head)
        if self.is_head:
            # Overhearing a lower head's announcement is as good as its
            # heartbeat for conflict detection (time redundancy).
            self._maybe_resign(announcement.head)
            return
        if my_id in announcement.members:
            self.confirmed_head = announcement.head
            self.marked = True
            self.announced_members = announcement.members
            self.announced_deputies = announcement.deputies

    def _on_boundary_assignment(self, assignment: BoundaryAssignment) -> None:
        assert self.node is not None
        if assignment.head != self.confirmed_head:
            return
        my_id = self.node.node_id
        if my_id in assignment.forwarders:
            rank = assignment.forwarders.index(my_id)
            self.my_gateway_duties[assignment.peer] = (
                rank,
                len(assignment.forwarders) - 1,
            )
        else:
            self.my_gateway_duties.pop(assignment.peer, None)

    # -- RCC repair -----------------------------------------------------
    def _maybe_resign(self, heard_head: NodeId) -> None:
        assert self.node is not None
        if not self.is_head:
            return
        if rcc.should_resign(self.node.node_id, heard_head):
            self.node.send(ClusterDissolve(head=self.node.node_id))
            self._become_unmarked()

    def _become_unmarked(self) -> None:
        self.is_head = False
        self.marked = False
        self.confirmed_head = None
        self.announced_members = frozenset()
        self.announced_deputies = ()
        self.boundary_assignments = {}
        self.my_gateway_duties = {}
        self._members = set()


# ----------------------------------------------------------------------
# Driver + layout extraction
# ----------------------------------------------------------------------


def install_formation(network: Network, config: FormationConfig) -> Dict[NodeId, FormationProtocol]:
    """Attach a :class:`FormationProtocol` to every node; returns them."""
    protocols: Dict[NodeId, FormationProtocol] = {}
    for node_id, node in sorted(network.nodes.items()):
        protocol = FormationProtocol(
            config, network.rngs.stream("formation", int(node_id))
        )
        node.add_protocol(protocol)
        protocols[node_id] = protocol
    return protocols


def extract_layout(
    protocols: Dict[NodeId, FormationProtocol],
    config: FormationConfig,
) -> ClusterLayout:
    """Build a :class:`ClusterLayout` from converged per-node state.

    Affiliation is taken from each *member's own* confirmed head (the
    node-side truth), which guarantees feature F3 (exactly one affiliation)
    even if a CH's member list drifted due to lost announcements.
    """
    heads = {nid for nid, p in protocols.items() if p.is_head}
    affiliation: Dict[NodeId, NodeId] = {}
    for nid, protocol in protocols.items():
        if protocol.is_head:
            affiliation[nid] = nid
        elif protocol.confirmed_head is not None and protocol.confirmed_head in heads:
            affiliation[nid] = protocol.confirmed_head

    clusters: List[Cluster] = []
    for head in sorted(heads):
        members = frozenset(
            nid for nid, h in affiliation.items() if h == head
        ) | {head}
        deputies = tuple(
            d for d in protocols[head].announced_deputies if d in members
        )
        clusters.append(Cluster(head=head, members=members, deputies=deputies))

    boundaries: List[Boundary] = []
    for head in sorted(heads):
        members = frozenset(nid for nid, h in affiliation.items() if h == head)
        for peer, forwarders in sorted(protocols[head].boundary_assignments.items()):
            if peer not in heads:
                continue
            usable = tuple(f for f in forwarders if affiliation.get(f) == head)
            if not usable:
                continue
            boundaries.append(
                Boundary(
                    owner=head,
                    peer=peer,
                    gateway=usable[0],
                    backups=usable[1:],
                )
            )

    unclustered = [nid for nid in protocols if nid not in affiliation]
    return ClusterLayout(
        clusters=clusters, boundaries=boundaries, unclustered=unclustered
    )


def run_formation(
    network: Network,
    config: Optional[FormationConfig] = None,
    start_time: float = 0.0,
) -> ClusterLayout:
    """Install, run, and extract: the one-call formation entry point."""
    cfg = config if config is not None else FormationConfig()
    if network.medium.max_delay >= cfg.thop:
        raise ClusteringError(
            "formation thop must exceed the medium's max one-hop delay "
            f"({cfg.thop} <= {network.medium.max_delay})"
        )
    protocols = install_formation(network, cfg)
    for protocol in protocols.values():
        protocol.start(start_time)
    network.sim.run_until(start_time + cfg.total_duration())
    return extract_layout(protocols, cfg)
