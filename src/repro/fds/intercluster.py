"""Inter-cluster failure-report forwarding (Section 4.3).

A gateway (and each ranked backup gateway) lives in the lens-shaped overlap
of two cluster disks, so under promiscuous receiving it hears *both*
clusterheads.  It therefore serves the boundary in both directions:

- **outbound**: its own cluster's update carries news -> forward a
  :class:`~repro.fds.messages.FailureReport` to the peer CH;
- **inbound**: the peer CH's overheard update carries news -> forward the
  report to its *own* CH (which relays it into the cluster and onward).

Mechanisms implemented exactly as the paper specifies:

*Implicit acknowledgment* (Figure 3).  No explicit ACKs: the evidence that
a report reached a destination CH is overhearing that CH's subsequent
broadcast covering the reported failures (its relay).  A forwarder arms a
timer after transmitting and retransmits (bounded times) if no such
broadcast is overheard.

*BGW-assisted forwarding*.  On a boundary with ``n`` backup gateways, upon
learning a report must cross, the BGW of rank ``k`` arms a standby timer of
``k * 2*Thop``.  If by expiry the destination CH's acknowledgment has not
been overheard, the BGW forwards the report itself, then waits
``(n + 1) * 2*Thop`` before retrying.  The primary GW forwards immediately
and uses the same ``(n + 1) * 2*Thop`` wait, so GW and BGWs never collide.

*Origin watch*.  The originating CH arms a ``2*Thop`` timer after
broadcasting news; if it does not overhear any of its forwarders' reports,
it rebroadcasts the update (Figure 3's sender-side retransmission).

*No news is good news*.  Only updates carrying new failures (or a
takeover) trigger forwarding.

All acknowledgment state is per *destination head* in a
:class:`~repro.fds.reports.BoundaryLedger`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.fds import events as ev
from repro.obs.profiler import PHASE_FDS_INTERCLUSTER
from repro.fds.config import FdsConfig
from repro.fds.messages import FailureReport, HealthStatusUpdate
from repro.fds.reports import BoundaryLedger
from repro.fds.substrate import Substrate, TimerHandle
from repro.types import NodeId


class InterclusterForwarder:
    """Per-node forwarding duties across cluster boundaries.

    ``duties`` maps peer CH -> (my rank, boundary backup count ``n``);
    rank 0 is the primary GW.  ``head_boundaries`` (CH only) maps peer CH
    -> forwarder count, driving the origin-side watch.  ``get_head`` and
    ``get_history`` read the owning protocol's current cluster head and
    cumulative failure knowledge.
    """

    def __init__(
        self,
        node: Substrate,
        config: FdsConfig,
        duties: Mapping[NodeId, Tuple[int, int]],
        head_boundaries: Mapping[NodeId, int],
        get_head: Callable[[], NodeId],
        get_history: Callable[[], FrozenSet[NodeId]],
        rebroadcast_update: Callable[[], None],
    ) -> None:
        self._node = node
        self._config = config
        self.duties: Dict[NodeId, Tuple[int, int]] = dict(duties)
        self.head_boundaries: Dict[NodeId, int] = dict(head_boundaries)
        self._get_head = get_head
        self._get_history = get_history
        self._rebroadcast_update = rebroadcast_update
        self.ledger = BoundaryLedger()
        # destination head -> armed timer.
        self._timers: Dict[NodeId, TimerHandle] = {}
        #: destination head -> failures the armed timer is watching.  A
        #: second duty toward the same destination must *merge* into this
        #: set (not replace it), or the first report's failures silently
        #: lose their retry coverage.
        self._armed_failures: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._origin_timer: Optional[TimerHandle] = None
        self._origin_pending: FrozenSet[NodeId] = frozenset()
        self._origin_retries = 0
        # Counters for metrics.
        self.reports_sent = 0
        self.retransmissions = 0
        self.bgw_activations = 0
        self.origin_retransmissions = 0

    def _trace(self, kind: str, **detail: object) -> None:
        tracer = self._node.tracer
        if tracer.enabled:
            tracer.record(
                self._node.now, kind, node=int(self._node.node_id), **detail
            )

    @staticmethod
    def _ids(nodes: FrozenSet[NodeId]) -> list:
        return sorted(int(n) for n in nodes)

    # ------------------------------------------------------------------
    # Triggers
    # ------------------------------------------------------------------
    def on_local_update(self, update: HealthStatusUpdate) -> None:
        """Profiled entry point for :meth:`_handle_local_update`."""
        profiler = self._node.profiler
        if not profiler.enabled:
            self._handle_local_update(update)
            return
        t0 = perf_counter()
        try:
            self._handle_local_update(update)
        finally:
            profiler.add(PHASE_FDS_INTERCLUSTER, t0)

    def _handle_local_update(self, update: HealthStatusUpdate) -> None:
        """Our cluster's authority broadcast an update we (over)heard.

        Always records the update's coverage as acknowledgment for the
        *inbound* direction (our CH evidently knows these failures).  If
        the update carries news, GWs/BGWs start outbound duties toward
        every peer, and the originating CH starts its implicit-ack watch.
        """
        for refuted in update.refutations:
            self.ledger.clear_failure(refuted)
        covered = self._coverage_of(update) - update.refutations
        self.ledger.note_ack(self._get_head(), covered)
        if covered:
            self._trace(
                ev.INTER_ACK,
                peer=int(self._get_head()),
                covered=self._ids(covered),
            )
        if update.refutations:
            # Best-effort repair propagation: the primary GW relays the
            # refutation across each boundary once (no retry ladder -- a
            # lost repair is re-announced by the CH's next R-3 update).
            for peer, (rank, _backup_count) in sorted(self.duties.items()):
                if rank == 0:
                    self._forward_refutations(peer, update.refutations, update.head)
        failures = self._news_of(update)
        if not failures:
            return
        for peer, (rank, backup_count) in sorted(self.duties.items()):
            self._start_duty(peer, rank, backup_count, failures, origin=update.head)
        if self.head_boundaries and update.head == self._node.node_id:
            self._start_origin_watch(failures)

    def on_foreign_update(self, update: HealthStatusUpdate) -> None:
        """Profiled entry point for :meth:`_handle_foreign_update`."""
        profiler = self._node.profiler
        if not profiler.enabled:
            self._handle_foreign_update(update)
            return
        t0 = perf_counter()
        try:
            self._handle_foreign_update(update)
        finally:
            profiler.add(PHASE_FDS_INTERCLUSTER, t0)

    def _handle_foreign_update(self, update: HealthStatusUpdate) -> None:
        """An update from another cluster's head was overheard.

        If that head is one of our boundary peers: everything its update
        covers is acknowledged *outbound* (that cluster knows it), and any
        news it carries starts an *inbound* duty toward our own CH.
        """
        if (
            update.takeover_from is not None
            and update.takeover_from in self.duties
            and update.head not in self.duties
        ):
            # The peer cluster's authority changed (DCH takeover, or a
            # revert): our boundary now points at the new head.
            self.duties[update.head] = self.duties.pop(update.takeover_from)
            if update.takeover_from in self.head_boundaries:
                self.head_boundaries[update.head] = self.head_boundaries.pop(
                    update.takeover_from
                )
            self._trace(
                ev.INTER_RENAMED,
                old=int(update.takeover_from),
                new=int(update.head),
            )
        if update.head not in self.duties:
            return
        for refuted in update.refutations:
            self.ledger.clear_failure(refuted)
        covered = self._coverage_of(update) - update.refutations
        self.ledger.note_ack(update.head, covered)
        if covered:
            self._trace(
                ev.INTER_ACK, peer=int(update.head), covered=self._ids(covered)
            )
        my_head = self._get_head()
        rank, backup_count = self.duties[update.head]
        if update.refutations and rank == 0:
            self._forward_refutations(my_head, update.refutations, update.head)
        failures = self._news_of(update)
        failures = frozenset(f for f in failures if f != my_head)
        if not failures:
            return
        self._start_duty(
            my_head, rank, backup_count, failures, origin=update.head
        )

    @staticmethod
    def _news_of(update: HealthStatusUpdate) -> FrozenSet[NodeId]:
        failures = frozenset(update.new_failures)
        if update.takeover_from is not None and (
            update.takeover_from in update.known_failures
        ):
            failures |= {update.takeover_from}
        return failures

    @staticmethod
    def _coverage_of(update: HealthStatusUpdate) -> FrozenSet[NodeId]:
        return frozenset(update.known_failures | update.new_failures)

    # ------------------------------------------------------------------
    # GW / BGW duty (direction-agnostic: ``dest`` is the head to reach)
    # ------------------------------------------------------------------
    def _start_duty(
        self,
        dest: NodeId,
        rank: int,
        backup_count: int,
        failures: FrozenSet[NodeId],
        origin: NodeId,
    ) -> None:
        pending = self.ledger.pending(dest, failures)
        if not pending:
            return
        self._trace(
            ev.INTER_DUTY,
            dest=int(dest),
            origin=int(origin),
            rank=rank,
            backup_count=backup_count,
            failures=self._ids(pending),
        )
        if rank == 0:
            # Primary GW: forward immediately, then watch for the ack.
            self._forward(dest, pending, origin)
            if self._config.implicit_ack:
                self._arm(
                    dest,
                    self._config.post_forward_wait(backup_count),
                    failures,
                    origin,
                )
        elif self._config.implicit_ack:
            # BGW rank k: stand by for k * 2*Thop first.
            self._arm(
                dest, self._config.bgw_standby(rank), failures, origin, standby=True
            )

    def _arm(
        self,
        dest: NodeId,
        delay: float,
        failures: FrozenSet[NodeId],
        origin: NodeId,
        standby: bool = False,
    ) -> None:
        existing = self._timers.get(dest)
        if existing is not None:
            existing.stop()
            # Merge with the in-flight duty's watch set: the new timer
            # covers both reports' failures, so neither loses its retries.
            failures = failures | self._armed_failures.get(dest, frozenset())
        self._armed_failures[dest] = failures
        self._trace(
            ev.INTER_ARM,
            dest=int(dest),
            origin=int(origin),
            delay=delay,
            failures=self._ids(failures),
            standby=standby,
        )

        def expire() -> None:
            self._on_timeout(dest, failures, origin, standby)

        self._timers[dest] = self._node.timers.after(
            delay, expire, label="fds.intercluster_wait"
        )

    def _on_timeout(
        self,
        dest: NodeId,
        failures: FrozenSet[NodeId],
        origin: NodeId,
        standby: bool,
    ) -> None:
        # Timer-driven forwarding fires outside any FDS round, so it must
        # charge the inter-cluster phase itself.
        profiler = self._node.profiler
        if not profiler.enabled:
            self._handle_timeout(dest, failures, origin, standby)
            return
        t0 = perf_counter()
        try:
            self._handle_timeout(dest, failures, origin, standby)
        finally:
            profiler.add(PHASE_FDS_INTERCLUSTER, t0)

    def _handle_timeout(
        self,
        dest: NodeId,
        failures: FrozenSet[NodeId],
        origin: NodeId,
        standby: bool,
    ) -> None:
        pending = self.ledger.pending(dest, failures)
        pending = self.ledger.within_budget(
            dest, pending, self._config.max_forward_retries + 1
        )
        if not pending:
            # Acknowledged (or budget exhausted): release the standby and
            # forget the watch set so a later duty starts fresh.
            self._timers.pop(dest, None)
            self._armed_failures.pop(dest, None)
            self._trace(ev.INTER_RELEASE, dest=int(dest))
            return
        if standby:
            self.bgw_activations += 1
        else:
            self.retransmissions += 1
        backup_count = self._backup_count_for(dest, origin)
        self._forward(dest, pending, origin)
        self._arm(dest, self._config.post_forward_wait(backup_count), failures, origin)

    def _backup_count_for(self, dest: NodeId, origin: NodeId) -> int:
        if dest in self.duties:
            return self.duties[dest][1]
        # Inbound duty (dest is our own CH): the report crossed the
        # boundary we share with the origin peer, so the retry wait must
        # match *that* boundary's BGW ladder.
        if origin in self.duties:
            return self.duties[origin][1]
        # Origin unknown (e.g. renamed by a takeover mid-flight): be
        # conservative and wait out the longest ladder we serve.
        return max((n for _r, n in self.duties.values()), default=0)

    def _forward(
        self, dest: NodeId, failures: FrozenSet[NodeId], origin: NodeId
    ) -> None:
        history = self._get_history()
        self.reports_sent += 1
        self.ledger.note_attempt(dest, failures)
        self._trace(
            ev.REPORT_FORWARDED,
            peer=int(dest),
            origin=int(origin),
            failures=self._ids(failures),
        )
        self._node.send(
            FailureReport(
                sender=self._node.node_id,
                origin=origin,
                target_head=dest,
                failures=failures,
                history=history - failures,
            ),
            recipient=dest,
        )

    def _forward_refutations(
        self, dest: NodeId, refutations: FrozenSet[NodeId], origin: NodeId
    ) -> None:
        self.reports_sent += 1
        self._node.send(
            FailureReport(
                sender=self._node.node_id,
                origin=origin,
                target_head=dest,
                failures=frozenset(),
                refutations=refutations,
            ),
            recipient=dest,
        )

    # ------------------------------------------------------------------
    # Origin-side watch (CH) -- Figure 3's sender retransmission
    # ------------------------------------------------------------------
    def on_overheard_report(self, report: FailureReport) -> None:
        """A forwarding by a clustermate was overheard.

        For the originating CH this is the implicit acknowledgment of the
        CH -> GW hop: a gateway did pick the report up.
        """
        if self._origin_timer is None:
            return
        self._trace(ev.ORIGIN_COVERED, covered=self._ids(report.failures))
        # A forwarder may legitimately carry only the still-pending subset
        # (it already had acks for the rest), so shrink the watch by the
        # overheard coverage and cancel once everything is covered --
        # requiring a superset match would spuriously rebroadcast.
        self._origin_pending -= report.failures
        if not self._origin_pending:
            self._origin_timer.stop()
            self._origin_timer = None

    def _start_origin_watch(self, failures: FrozenSet[NodeId]) -> None:
        if not self._config.implicit_ack:
            return
        self._origin_pending = failures
        self._origin_retries = 0
        self._trace(ev.ORIGIN_WATCH, failures=self._ids(failures))
        self._arm_origin()

    def _arm_origin(self) -> None:
        if self._origin_timer is not None:
            self._origin_timer.stop()
        self._origin_timer = self._node.timers.after(
            self._config.implicit_ack_window,
            self._origin_timeout,
            label="fds.origin_watch",
        )

    def _origin_timeout(self) -> None:
        self._origin_timer = None
        if not self._origin_pending:
            return
        if self._origin_retries >= self._config.max_forward_retries:
            self._origin_pending = frozenset()
            return
        self._origin_retries += 1
        self.origin_retransmissions += 1
        self._trace(
            ev.ORIGIN_REBROADCAST,
            pending=self._ids(self._origin_pending),
            retry=self._origin_retries,
        )
        self._rebroadcast_update()
        self._arm_origin()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Stop all timers (crash or role change)."""
        for timer in self._timers.values():
            timer.stop()
        self._timers.clear()
        self._armed_failures.clear()
        if self._origin_timer is not None:
            self._origin_timer.stop()
            self._origin_timer = None
        self._origin_pending = frozenset()
