"""The per-node FDS protocol and the network-wide deployment driver.

Execution timeline (one FDS execution at epoch ``t``; Section 4.2):

====================  ====================================================
``t``                 fds.R-1: every node sends its heartbeat (the CH's is
                      a broadcast; members address theirs to the CH but
                      neighbors overhear -- inherent message redundancy).
``t + Thop``          fds.R-2: every node sends its digest of heard
                      heartbeats; the CH broadcasts its own digest.
``t + 2*Thop``        fds.R-3: the CH applies the failure detection rule
                      and broadcasts the health-status update (admissions
                      from feature F5 included).
``t + 3*Thop``        end of R-3: the acting DCH applies the CH-failure
                      rule (takeover on detection); members that missed
                      the update issue peer-forwarding requests; gateways
                      that saw news start across-cluster forwarding.
====================  ====================================================

Every node runs the same :class:`FdsProtocol`; behaviour branches on the
node's *current belief* about its role (CH / deputy / gateway / member),
which starts from the installed :class:`~repro.cluster.state.LocalClusterView`
and evolves with takeovers and admissions.  Protocol code never reads
ground truth; all knowledge arrives by radio.

Protocol code is substrate-agnostic: everything it needs from its host
goes through the :class:`~repro.fds.substrate.Substrate` surface
(``send``, ``timers``, ``now``, ``tracer``, ``profiler``), so the same
objects run on a :class:`~repro.sim.node.SimNode` inside the
discrete-event simulator and on a ``SimNode`` over real localhost UDP
sockets (:mod:`repro.rt.substrate`).  The deployment driver below
(:class:`FdsDeployment` / :func:`install_fds`) is the *simulator*
binding; the runtime binding lives in :mod:`repro.rt.runtime`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from time import perf_counter
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set

import numpy as np

from repro.cluster.maintenance import AdmissionBook
from repro.cluster.state import LocalClusterView
from repro.energy.model import EnergyModel
from repro.errors import ConfigurationError, ProtocolError
from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.fds.detector import ch_failure_rule_mask, evidence_mask, failure_rule_mask
from repro.fds.digest import build_digest
from repro.fds.intercluster import InterclusterForwarder
from repro.fds.messages import (
    Digest,
    FailureReport,
    Heartbeat,
    HealthStatusUpdate,
    PeerForward,
    PeerForwardAck,
    PeerForwardRequest,
)
from repro.fds.peer_forwarding import PeerForwarder
from repro.fds.reports import ReportHistory
from repro.sim.medium import Envelope
from repro.sim.network import Network
from repro.sim.node import Protocol
from repro.types import NodeId, NodeRole


class FdsProtocol(Protocol):
    """One node's failure detection service."""

    name = "fds"

    def __init__(
        self,
        config: FdsConfig,
        view: LocalClusterView,
        energy: Optional[EnergyModel] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.energy = energy
        # Mutable cluster beliefs, seeded from the installed view.
        self.head: NodeId = view.head
        self.members: Set[NodeId] = set(view.members)
        self.deputies: List[NodeId] = list(view.deputies)
        self.marked: bool = view.role.is_marked
        self._initial_view = view
        #: Everyone ever known to belong to this cluster; refuted nodes are
        #: only restored to ``members`` if they were members before.
        self._ever_members: Set[NodeId] = set(view.members)
        #: CH only: refutations to announce in the next R-3 update.
        self._pending_refutations: Set[NodeId] = set()
        #: CH only: cumulative digest-coverage score per member, used to
        #: re-rank deputies toward the best-connected members.
        self._coverage: Dict[NodeId, int] = {}
        # Failure knowledge.
        self.history = ReportHistory()
        # Per-execution state.
        self.execution = -1
        self._heard: Set[NodeId] = set()
        self._digests: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._updates: Dict[int, HealthStatusUpdate] = {}
        #: Set while this node is acting CH after deposing ``_deposed_head``
        #: via the CH-failure rule; liveness evidence from that node
        #: triggers a takeover revert.
        self._deposed_head: Optional[NodeId] = None
        # Sub-components, wired after attach().
        self.peer: Optional[PeerForwarder] = None
        self.inter: Optional[InterclusterForwarder] = None
        self._admissions: Optional[AdmissionBook] = None
        if view.role is NodeRole.CH:
            self._admissions = AdmissionBook()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, node) -> None:
        super().attach(node)
        self.peer = PeerForwarder(
            node,
            self.config,
            get_update=self._updates.get,
            accept_update=lambda update: self._apply_update(update, via_peer=True),
            energy_fraction=self._energy_fraction,
        )
        self.inter = InterclusterForwarder(
            node,
            self.config,
            duties=self._initial_view.gateway_duties,
            head_boundaries=self._initial_view.head_boundaries,
            get_head=lambda: self.head,
            get_history=lambda: self.history.known,
            rebroadcast_update=self._rebroadcast_current_update,
        )

    @property
    def is_head(self) -> bool:
        """Whether this node currently believes it is the clusterhead."""
        assert self.node is not None
        return self.marked and self.head == self.node.node_id

    @property
    def updates_received(self) -> frozenset[int]:
        """Execution indices whose R-3 update this node holds."""
        return frozenset(self._updates)

    def _energy_fraction(self) -> float:
        assert self.node is not None
        if self.energy is None:
            return 1.0
        return self.energy.remaining_fraction(self.node.node_id, self.node.now)

    def _trace(self, kind: str, **detail: object) -> None:
        assert self.node is not None
        tracer = self.node.tracer
        if tracer.enabled:
            tracer.record(
                self.node.now, kind, node=int(self.node.node_id), **detail
            )

    def _send(self, payload: object, recipient: Optional[NodeId] = None) -> None:
        assert self.node is not None
        if self.energy is not None:
            self.energy.on_transmit(self.node.node_id, self.node.now)
        self.node.send(payload, recipient)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def start(
        self, first_epoch: float, executions: int, first_index: int = 0
    ) -> None:
        """Schedule ``executions`` FDS executions starting at ``first_epoch``.

        ``first_index`` numbers the first scheduled execution; batches
        scheduled across several calls must keep indices monotonically
        increasing so round messages and stored updates never collide.
        """
        assert self.node is not None
        if executions < 1:
            raise ConfigurationError(f"executions must be >= 1, got {executions}")
        now = self.node.now
        if first_epoch < now:
            raise ConfigurationError(
                f"first_epoch {first_epoch} is in the substrate's past ({now})"
            )
        thop = self.config.thop
        for k in range(first_index, first_index + executions):
            epoch_offset = first_epoch - now + (k - first_index) * self.config.phi
            self.node.timers.after(
                epoch_offset, self._make_round(k, self._round1, "fds.r1"),
                label="fds.r1",
            )
            self.node.timers.after(
                epoch_offset + thop, self._make_round(k, self._round2, "fds.r2"),
                label="fds.r2",
            )
            self.node.timers.after(
                epoch_offset + 2 * thop, self._make_round(k, self._round3, "fds.r3"),
                label="fds.r3",
            )
            self.node.timers.after(
                epoch_offset + 3 * thop,
                self._make_round(k, self._round3_end, "fds.r3end"),
                label="fds.r3end",
            )

    def _make_round(self, execution: int, method, phase: str) -> object:
        # One wrapper profiles all four rounds: the phase gate sits here,
        # not in the round bodies, so disabled runs pay a single branch.
        node = self.node
        assert node is not None

        def fire() -> None:
            profiler = node.profiler
            if profiler.enabled:
                t0 = perf_counter()
                try:
                    method(execution)
                finally:
                    profiler.add(phase, t0)
            else:
                method(execution)

        return fire

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _round1(self, execution: int) -> None:
        """fds.R-1: heartbeat exchange."""
        assert self.node is not None
        self.execution = execution
        self._heard = set()
        self._digests = {}
        if self.peer is not None:
            self.peer.reset_for_execution()
        recipient = None if (self.is_head or not self.marked) else self.head
        self._send(
            Heartbeat(
                sender=self.node.node_id, execution=execution, marked=self.marked
            ),
            recipient=recipient,
        )

    def _round2(self, execution: int) -> None:
        """fds.R-2: digest exchange."""
        assert self.node is not None
        if not self.marked or not self.config.use_digests:
            return
        digest = build_digest(
            sender=self.node.node_id,
            execution=execution,
            heard_heartbeats=self._heard,
            cluster_members=self.members,
        )
        recipient = None if self.is_head else self.head
        self._send(digest, recipient=recipient)

    def _round3(self, execution: int) -> None:
        """fds.R-3: the CH detects and broadcasts the health update."""
        assert self.node is not None
        if not self.is_head:
            return
        my_id = self.node.node_id
        listed = self._digest_tally()
        if self.config.use_digests:
            # A digest listing a suspected node is liveness evidence (no
            # message creation on links): refute before detecting.  This
            # heals suspicions of members the head itself cannot hear --
            # the Figure 2(a) reachability case after a takeover.
            for suspect in sorted(self.history.known):
                if suspect in listed:
                    self._note_liveness(suspect)
        newly_deputies = self._rank_deputies(listed)
        rows = sorted(self.members - {my_id})
        known = self.history.known
        expected = np.fromiter(
            (v not in known for v in rows), dtype=bool, count=len(rows)
        )
        newly = list(compress(
            rows, failure_rule_mask(expected, self._evidence(rows, listed))
        ))
        for target in newly:
            self._trace(ev.DETECTION, target=int(target), detector=int(my_id),
                        execution=execution)
        novel = self.history.add(frozenset(newly))
        self.members -= novel

        admissions: FrozenSet[NodeId] = frozenset()
        if self._admissions is not None:
            # No already-a-member filtering: an *unmarked* heartbeat from a
            # node we previously admitted means it never learned of the
            # admission (the announcement was lost) -- re-announce until
            # its heartbeats turn marked.
            admissions = self._admissions.drain(frozenset())
            if admissions:
                self.members |= admissions
                self._ever_members |= admissions
                self._trace(ev.ADMISSION, admissions=sorted(map(int, admissions)),
                            execution=execution)

        refutations = frozenset(self._pending_refutations)
        self._pending_refutations.clear()
        membership = frozenset(self.members) if admissions else None
        update = HealthStatusUpdate(
            head=my_id,
            execution=execution,
            new_failures=novel,
            known_failures=self.history.known,
            admissions=admissions,
            membership=membership,
            refutations=refutations,
            deputies=newly_deputies,
        )
        self._updates[execution] = update
        self._send(update)
        if self.inter is not None:
            self.inter.on_local_update(update)

    def _digest_tally(self) -> Counter:
        """How many of this execution's received digests list each NID
        (digests are sets, so a digest counts a node at most once)."""
        return Counter(chain.from_iterable(self._digests.values()))

    def _evidence(self, nodes: Sequence[NodeId], listed: Counter) -> np.ndarray:
        """This execution's liveness evidence of each of ``nodes``: the
        rows of :func:`~repro.fds.detector.evidence_mask`, packed from the
        heartbeats heard, the digests received and their ``listed`` tally."""

        def packed(seen) -> np.ndarray:
            return np.fromiter(
                (v in seen for v in nodes), dtype=bool, count=len(nodes)
            )

        return evidence_mask(
            packed(self._heard), packed(self._digests), packed(listed),
            use_digests=self.config.use_digests,
        )

    def _rank_deputies(self, listed: Counter):
        """Accumulate digest coverage and maybe re-rank the deputies.

        Coverage of member m = number of this execution's digests that
        list m (``listed``), plus direct evidence at the head; accumulated
        across executions so early noise fades.  Returns the new ranking to
        announce (None when unchanged, or when digests or deputies are
        off and the installed ranking stands).
        """
        assert self.node is not None
        my_id = self.node.node_id
        if not (self.config.use_digests and self.config.dch_enabled):
            return None
        for member in self.members:
            if member == my_id:
                continue
            score = listed[member]
            if member in self._digests:
                score += 1
            if member in self._heard:
                score += 1
            if score:
                self._coverage[member] = self._coverage.get(member, 0) + score
        eligible = [
            m
            for m in self.members
            if m != my_id and m not in self.history
        ]
        ranked = sorted(
            eligible, key=lambda m: (-self._coverage.get(m, 0), int(m))
        )
        new_deputies = tuple(ranked[: self.config.deputy_count])
        if list(new_deputies) == list(self.deputies):
            return None
        self.deputies = list(new_deputies)
        return new_deputies

    def _round3_end(self, execution: int) -> None:
        """End of R-3: DCH rule, then peer-forwarding requests."""
        assert self.node is not None
        if not self.marked or self.is_head:
            return
        if self.config.dch_enabled and self._acting_deputy() == self.node.node_id:
            self._apply_dch_rule(execution)
        if self.is_head:
            return  # just took over; we now hold the update we broadcast
        if self.config.peer_forwarding and execution not in self._updates:
            self._trace(ev.PEER_REQUEST, execution=execution)
            assert self.peer is not None
            self.peer.request_update(execution)

    def _acting_deputy(self) -> Optional[NodeId]:
        """The highest-ranked deputy not known to have failed."""
        for deputy in self.deputies:
            if deputy not in self.history:
                return deputy
        return None

    def _apply_dch_rule(self, execution: int) -> None:
        assert self.node is not None
        update = self._updates.get(execution)
        received = np.array([update is not None and update.head == self.head])
        fires = ch_failure_rule_mask(
            self._evidence([self.head], self._digest_tally()), received
        )
        if not fires[0]:
            return
        old_head = self.head
        my_id = self.node.node_id
        self._trace(ev.TAKEOVER, old_head=int(old_head), new_head=int(my_id),
                    execution=execution)
        self._trace(ev.DETECTION, target=int(old_head), detector=int(my_id),
                    execution=execution)
        self.history.add(frozenset({old_head}))
        self.members.discard(old_head)
        self.head = my_id
        self._deposed_head = old_head
        self.deputies = [d for d in self.deputies if d != my_id]
        if self._admissions is None:
            self._admissions = AdmissionBook()
        update = HealthStatusUpdate(
            head=my_id,
            execution=execution,
            new_failures=frozenset({old_head}),
            known_failures=self.history.known,
            takeover_from=old_head,
            membership=frozenset(self.members),
        )
        self._updates[execution] = update
        self._send(update)
        if self.inter is not None:
            self.inter.on_local_update(update)

    def _rebroadcast_current_update(self) -> None:
        """Origin-side retransmission of the latest update (Figure 3)."""
        update = self._updates.get(self.execution)
        if update is not None and self.is_head:
            self._send(update)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_receive(self, envelope: Envelope) -> None:
        assert self.node is not None
        if self.energy is not None:
            self.energy.on_receive(self.node.node_id, self.node.now)
        payload = envelope.payload
        if isinstance(payload, Heartbeat):
            self._on_heartbeat(payload)
        elif isinstance(payload, Digest):
            self._on_digest(payload)
        elif isinstance(payload, HealthStatusUpdate):
            self._on_update(payload)
        elif isinstance(payload, FailureReport):
            self._on_report(payload)
        elif isinstance(payload, PeerForwardRequest):
            if self.config.peer_forwarding and self.peer is not None:
                self.peer.on_request(payload)
        elif isinstance(payload, PeerForward):
            if self.peer is not None:
                self.peer.on_peer_forward(payload)
            # An overheard peer-forward carries a full authority update.
            # For a boundary forwarder this is a second listening channel
            # into the neighboring cluster: after a takeover there, the
            # new head may be out of our radio range (its position is not
            # the old center), but its updates keep circulating among the
            # members in the overlap via peer forwarding.
            if (
                self.inter is not None
                and payload.requester != self.node.node_id
                and payload.update.head != self.head
                and payload.update.head != self.node.node_id
            ):
                self.inter.on_foreign_update(payload.update)
        elif isinstance(payload, PeerForwardAck):
            if self.peer is not None:
                self.peer.on_ack(payload)

    def _on_heartbeat(self, heartbeat: Heartbeat) -> None:
        if heartbeat.execution != self.execution:
            return
        # Any heartbeat is liveness evidence, whatever its mark bit says --
        # a node admitted via F5 may not have learned of its admission yet
        # (the announcing update can be lost) and still heartbeats unmarked.
        self._heard.add(heartbeat.sender)
        self._note_liveness(heartbeat.sender)
        if not heartbeat.marked and self.is_head:
            assert self._admissions is not None
            self._admissions.note_unmarked_heartbeat(heartbeat.sender)

    def _on_digest(self, digest: Digest) -> None:
        if digest.execution != self.execution:
            return
        if digest.sender in self.members:
            self._digests[digest.sender] = digest.heard
            self._note_liveness(digest.sender)

    def _note_liveness(self, sender: NodeId) -> None:
        """Direct evidence that ``sender`` is alive; refute any suspicion.

        Under the fail-stop assumption a crashed node cannot transmit, so
        evidence from a suspected node proves the suspicion false.
        """
        assert self.node is not None
        if sender in self.history:
            self.history.refute(sender)
            if sender in self._ever_members:
                self.members.add(sender)
            self._trace(ev.REFUTATION, target=int(sender))
            if self.is_head:
                # Announce the repair in the next R-3 update so members
                # (and, via gateways, other clusters) drop the suspicion.
                self._pending_refutations.add(sender)
        if self._deposed_head == sender:
            self._revert_takeover(sender)

    def _revert_takeover(self, old_head: NodeId) -> None:
        """The 'failed' CH is alive: the ex-DCH steps down (Section 4.2).

        The revert is announced with the same takeover-update shape the
        original deposition used -- ``head`` names the restored CH and
        ``takeover_from`` names this (stepping-down) node -- so members
        that adopted the deputy switch back with no extra machinery.
        Receivers recognize it as a revert (rather than a deposition)
        because ``takeover_from`` is *not* among the known failures.
        """
        assert self.node is not None
        if not self.is_head:
            return
        my_id = self.node.node_id
        self._trace(ev.TAKEOVER_REVERTED, old_head=int(old_head),
                    new_head=int(my_id))
        self.history.refute(old_head)
        self.members.add(old_head)
        self.head = old_head
        self._deposed_head = None
        if my_id not in self.deputies:
            self.deputies.insert(0, my_id)
        self._send(
            HealthStatusUpdate(
                head=old_head,
                execution=self.execution,
                known_failures=self.history.known,
                takeover_from=my_id,
                membership=frozenset(self.members),
                refutations=frozenset({old_head}),
            )
        )

    def _on_update(self, update: HealthStatusUpdate) -> None:
        assert self.node is not None
        my_id = self.node.node_id
        if update.head == my_id:
            return
        from_my_cluster = (
            update.head == self.head
            or update.takeover_from == self.head
            or update.head in self.deputies
            or update.head in self.members
        )
        if from_my_cluster and self.marked:
            if update.takeover_from == my_id or (
                self.is_head and update.takeover_from is not None
                and update.takeover_from != update.head
            ):
                # Someone claims to have replaced us -- but we are alive.
                # Ignore; our next heartbeat refutes the false detection.
                return
            self._apply_update(update, via_peer=False)
        elif not self.marked and update.admissions and my_id in update.admissions:
            # Feature F5: our unmarked heartbeat was a subscription; we
            # have just been admitted.
            self.marked = True
            self.head = update.head
            self._apply_update(update, via_peer=False)
        elif self.inter is not None:
            # A foreign cluster's update: acknowledgment evidence for any
            # boundary duties toward that head.
            self.inter.on_foreign_update(update)

    def _apply_update(self, update: HealthStatusUpdate, via_peer: bool) -> None:
        """Merge an authoritative update from our cluster into local state."""
        assert self.node is not None
        my_id = self.node.node_id
        self._note_liveness(update.head)
        # A node never records itself as failed: being able to process the
        # update is direct proof of its own liveness (a false detection of
        # us is refuted by our next heartbeat instead).
        self._process_refutations(update.refutations)
        novel = self.history.add(
            (update.new_failures | update.known_failures)
            - {my_id}
            - update.refutations
        )
        self.members -= novel
        if update.membership is not None:
            self.members = set(update.membership)
            self.members.add(my_id)
            self._ever_members |= self.members
        elif update.admissions:
            self.members |= update.admissions
            self._ever_members |= update.admissions
        if update.takeover_from is not None and update.takeover_from == self.head:
            # A deposition (our head failed) or a revert (the deputy we had
            # adopted steps back down); both move authority to update.head.
            self.head = update.head
            self.deputies = [d for d in self.deputies if d != update.head]
            if update.takeover_from not in update.known_failures:
                # Revert: the stepping-down deputy stays in the chain.
                if update.takeover_from not in self.deputies:
                    self.deputies.insert(0, update.takeover_from)
        elif (
            self.head in update.known_failures
            and update.head != self.head
            and not update.relay
        ):
            # We missed the takeover announcement: our believed head is
            # reported failed by a new authority; adopt it.
            self.head = update.head
            self.deputies = [d for d in self.deputies if d != update.head]
        if (
            update.deputies is not None
            and update.head == self.head
            and not update.relay
        ):
            self.deputies = list(update.deputies)
        if update.head == self.head and not update.relay:
            if update.execution not in self._updates:
                self._updates[update.execution] = update
                self._trace(ev.UPDATE_APPLIED, execution=update.execution,
                            via_peer=via_peer)
                if via_peer:
                    self._trace(ev.PEER_RECOVERY, execution=update.execution)
        if update.relay:
            self._trace(ev.RELAY, failures=sorted(map(int, update.new_failures)),
                        origin=int(update.head))
        # Gateways record coverage and propagate any news outward.
        if self.inter is not None:
            self.inter.on_local_update(update)

    def _process_refutations(self, refutations) -> None:
        """Drop suspicions the reporting authority has repaired."""
        assert self.node is not None
        my_id = self.node.node_id
        for refuted in sorted(refutations):
            if refuted == my_id:
                continue
            if refuted in self.history:
                self.history.refute(refuted)
                if refuted in self._ever_members:
                    self.members.add(refuted)
                self._trace(ev.REFUTATION, target=int(refuted))
                if self.is_head:
                    self._pending_refutations.add(refuted)

    def _on_report(self, report: FailureReport) -> None:
        assert self.node is not None
        my_id = self.node.node_id
        if report.target_head == my_id and self.is_head:
            # Refutations that are news to us get relayed onward.
            novel_refutations = frozenset(
                r for r in report.refutations if r in self.history and r != my_id
            )
            self._process_refutations(report.refutations)
            incoming = frozenset(report.failures) | report.history
            # Direct liveness evidence beats hearsay: a heartbeat heard
            # this execution proves the node outlived whatever stale
            # observation the forwarded report (or the history riding
            # on it) carries.  Without this filter a CH that just
            # refuted a false detection re-adopts the suspicion from a
            # still-circulating report, re-refutes on the next
            # heartbeat, and the refutation resets boundary-forwarding
            # budgets (BoundaryLedger.clear_failure) -- an unbounded
            # relay/refutation cycle in digest-free configurations
            # under heavy loss.  Real crashes are unaffected: a crashed
            # node is silent, so it is never in ``_heard``.
            incoming = frozenset(
                nid
                for nid in incoming
                if nid != my_id
                and nid not in report.refutations
                and nid not in self._heard
            )
            novel = self.history.add(incoming)
            self.members -= novel
            relay_news = frozenset(report.failures & novel)
            if not relay_news and not novel_refutations and not report.failures:
                return  # pure-refutation report with nothing new: no relay
            self._trace(ev.RELAY, failures=sorted(map(int, relay_news)),
                        origin=int(report.origin))
            relay = HealthStatusUpdate(
                head=my_id,
                execution=self.execution,
                new_failures=relay_news,
                known_failures=self.history.known,
                relay=True,
                refutations=novel_refutations,
            )
            self._send(relay)
            if self.inter is not None:
                self.inter.on_local_update(relay)
        elif self.inter is not None:
            # Overhearing a clustermate's forwarding: origin-side implicit
            # acknowledgment (Figure 3).
            if report.origin == self.head:
                self.inter.on_overheard_report(report)

    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        if self.inter is not None:
            self.inter.reset()
        if self.peer is not None:
            self.peer.reset_for_execution()


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------


@dataclass
class FdsDeployment:
    """An FDS installed across a network.

    Created by :func:`install_fds`; drives executions and exposes per-node
    protocols to the metrics layer.
    """

    network: Network
    #: An ``ArrayLayout`` or its ``ClusterLayout`` view.
    layout: Any
    config: FdsConfig
    protocols: Dict[NodeId, FdsProtocol]
    energy: Optional[EnergyModel]
    start_time: float
    executions_scheduled: int = 0

    def run_executions(self, count: int) -> None:
        """Schedule and run ``count`` further FDS executions to completion."""
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        first_epoch = self.start_time + self.executions_scheduled * self.config.phi
        if first_epoch < self.network.sim.now:
            raise ProtocolError(
                "cannot schedule executions in the past; the simulation ran "
                "beyond the next epoch"
            )
        for node_id, protocol in sorted(self.protocols.items()):
            if self.network.nodes[node_id].is_operational:
                protocol.start(
                    first_epoch, count, first_index=self.executions_scheduled
                )
        self.executions_scheduled += count
        self.network.sim.run_until(self.config.run_end(first_epoch, count))

    def protocol(self, node_id: NodeId) -> FdsProtocol:
        try:
            return self.protocols[node_id]
        except KeyError:
            raise ConfigurationError(f"no FDS protocol on node {node_id}") from None


def install_fds(
    network: Network,
    layout: Any,
    config: Optional[FdsConfig] = None,
    energy: Optional[EnergyModel] = None,
    start_time: float = 0.0,
) -> FdsDeployment:
    """Attach an :class:`FdsProtocol` to every node per the layout: an
    ``ArrayLayout`` (node index = NID) or its NID-keyed ``ClusterLayout``
    view, whose ``local_views()`` both come from the arrays."""
    cfg = config if config is not None else FdsConfig()
    if network.medium.max_delay >= cfg.thop:
        raise ConfigurationError(
            f"thop ({cfg.thop}) must exceed the medium's max one-hop delay "
            f"({network.medium.max_delay}) for the round timeouts to hold"
        )
    if energy is not None:
        for node_id in sorted(network.nodes):
            energy.register(node_id, network.sim.now)
    views = layout.local_views()
    protocols: Dict[NodeId, FdsProtocol] = {}
    for node_id, node in sorted(network.nodes.items()):
        if node_id not in views:
            raise ConfigurationError(f"the layout has no node {node_id}")
        protocol = FdsProtocol(cfg, views[node_id], energy=energy)
        node.add_protocol(protocol)
        protocols[node_id] = protocol
    return FdsDeployment(
        network=network,
        layout=layout,
        config=cfg,
        protocols=protocols,
        energy=energy,
        start_time=start_time,
    )
