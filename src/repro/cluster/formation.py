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
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.cluster import rcc
from repro.errors import ClusteringError
from repro.sim.network import Network
from repro.sim.node import Protocol, ignore
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

    ``thop`` and ``backoff_fraction`` must satisfy the round synchrony
    condition against the medium's max one-hop delay
    (:func:`check_round_synchrony`).
    """

    thop: float = 0.5
    iterations: int = 3
    deputy_count: int = 2
    max_backups: int = 2
    #: Upper bound of the RCC declaration backoff as a fraction of a
    #: round (see :func:`repro.cluster.rcc.declaration_backoff`).
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
        self.announced_deputies: Tuple[NodeId, ...] = ()
        #: For heads: peer head -> ranked forwarders (as assigned in R5;
        #: a member's duties are read off the heads' ladders).
        self.boundary_assignments: Dict[NodeId, Tuple[NodeId, ...]] = {}
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
    def handlers(self) -> Dict[type, Callable[[object], None]]:
        return {
            FormationHeartbeat: self._on_heartbeat,
            ChDeclaration: self._on_declaration,
            JoinRequest: self._on_join_request,
            ClusterAnnouncement: self._on_announcement,
            GatewayCandidacy: self._on_candidacy,
            ClusterDissolve: self._on_dissolve,
            # The packing reads each head's own assignments
            # (``boundary_assignments``); a receiver has nothing to keep.
            BoundaryAssignment: ignore,
        }

    def _on_heartbeat(self, heartbeat: FormationHeartbeat) -> None:
        if not heartbeat.marked:
            self._heard_unmarked.add(heartbeat.sender)
        if heartbeat.is_head:
            self._heard_heads.add(heartbeat.sender)
            self._maybe_resign(heartbeat.sender)

    def _on_declaration(self, declaration: ChDeclaration) -> None:
        self._declarations_heard.add(declaration.sender)
        self._maybe_resign(declaration.sender)

    def _on_join_request(self, request: JoinRequest) -> None:
        assert self.node is not None
        if self.is_head and request.head == self.node.node_id:
            self._join_requests.add(request.sender)

    def _on_candidacy(self, candidacy: GatewayCandidacy) -> None:
        assert self.node is not None
        if (
            self.is_head
            and candidacy.head == self.node.node_id
            and candidacy.sender in self._members
        ):
            self._candidacies.setdefault(candidacy.sender, set()).update(
                candidacy.foreign_heads
            )

    def _on_dissolve(self, dissolve: ClusterDissolve) -> None:
        if self.confirmed_head == dissolve.head and not self.is_head:
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
            self.announced_deputies = announcement.deputies

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
        self.announced_deputies = ()
        self.boundary_assignments = {}
        self._members = set()


# ----------------------------------------------------------------------
# Driver + state packing
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


def check_round_synchrony(
    thop: float, backoff_fraction: float, max_delay: float,
    error: type = ClusteringError,
) -> None:
    """Raise ``error`` unless formation rounds are synchronous: a
    declaration backed off by up to ``backoff_fraction * thop`` and
    delayed by up to ``max_delay`` lands before the next round fires,
    ``backoff_fraction * thop + max_delay <= thop``.  The array engine's
    round model (:mod:`repro.sim.array_engine.formation`) assumes it."""
    if backoff_fraction * thop + max_delay > thop:
        raise error(
            "formation rounds are not synchronous: the RCC backoff "
            f"({backoff_fraction} * thop) plus the medium's max one-hop "
            f"delay ({max_delay}) exceeds thop ({thop})"
        )


def pack_formation_state(
    network: Network,
    protocols: Dict[NodeId, FormationProtocol],
    config: FormationConfig,
):
    """The protocols' state as the
    :class:`~repro.sim.array_engine.formation.FormationOutcome` arrays the
    array engine's conversion reads; node index ``i`` is the ``i``-th
    smallest NID.  Only heads' announced deputies and R5 ladders are
    packed: a member's affiliation is its *own* confirmed head, which
    keeps F3 even if a CH's member list drifted through lost
    announcements."""
    # Imported here: the array formation imports this module.
    from repro.sim.array_engine.formation import PAD, FormationOutcome

    nids = sorted(protocols)
    index = {nid: i for i, nid in enumerate(nids)}
    state = [protocols[nid] for nid in nids]
    deputies = np.full((len(nids), config.deputy_count), PAD, dtype=np.int64)
    boundary_asn: Dict[int, Dict[int, Tuple[int, ...]]] = {}
    for i, protocol in enumerate(state):
        if protocol.is_head:
            announced = [index[d] for d in protocol.announced_deputies]
            deputies[i, : len(announced)] = announced
            boundary_asn[i] = {
                index[peer]: tuple(index[f] for f in forwarders)
                for peer, forwarders in protocol.boundary_assignments.items()
            }
    return FormationOutcome(
        config=config,
        node_count=len(nids),
        radius=network.medium.transmission_range,
        xs=np.array([network.nodes[n].position.x for n in nids], dtype=float),
        ys=np.array([network.nodes[n].position.y for n in nids], dtype=float),
        is_head=np.array([p.is_head for p in state], dtype=bool),
        marked=np.array([p.marked for p in state], dtype=bool),
        conf_head=np.array(
            [index.get(p.confirmed_head, PAD) for p in state], dtype=np.int64
        ),
        ann_deputies=deputies,
        boundary_asn=boundary_asn,
    )


def run_formation(
    network: Network,
    config: Optional[FormationConfig] = None,
    start_time: float = 0.0,
):
    """Install, run, pack and convert: the one-call formation entry
    point.  Returns an :class:`~repro.sim.array_engine.layout.ArrayLayout`
    (node index ``i`` is the ``i``-th smallest NID; ``cluster_layout``
    reads it NID-keyed, given a graph when NIDs are not ``0..N-1``)."""
    from repro.sim.array_engine.formation import formation_array_layout

    cfg = config if config is not None else FormationConfig()
    check_round_synchrony(
        cfg.thop, cfg.backoff_fraction, network.medium.max_delay
    )
    protocols = install_formation(network, cfg)
    for protocol in protocols.values():
        protocol.start(start_time)
    network.sim.run_until(start_time + cfg.total_duration())
    return formation_array_layout(pack_formation_state(network, protocols, cfg))
