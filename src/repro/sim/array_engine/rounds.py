"""The round-level array program: one φ-interval per step, all clusters at once.

Where the event engine dispatches one Python callback per message, this
module expresses each FDS execution as a fixed sequence of batched
boolean-array operations over the :class:`~repro.sim.array_engine.layout.
ArrayLayout`:

1. draw the per-copy delivery masks for every R-1 heartbeat, R-2 digest
   and R-3 update of the execution (delivery masks from one dedicated
   seeded stream);
2. apply member-level liveness refutations (a node that hears a
   heartbeat from a node it marked failed unmarks it -- the event
   engine's ``_note_liveness``);
3. evaluate the CH refutation scan and the failure-detection rule as
   masked reductions (:func:`repro.fds.detector.failure_rule_mask`) for
   every cluster simultaneously;
4. synchronize members via the R-3 update broadcast plus the
   peer-forwarding recovery ladder;
5. apply the DCH's CH-failure rule per cluster and model false
   takeovers/reverts;
6. run inter-cluster forwarding to a fixpoint over the boundary graph,
   with a report-attempt ladder per crossing and relay broadcasts into
   receiving clusters.

Semantics tracked exactly (verified by the differential tests): crash
detection events (execution, detector, time), detection latency,
membership evolution, refute-before-detect ordering, digest acceptance
filtering by current membership, and the loss-independence of crashed-
node detection.  Deliberate, documented approximations (invisible to
the soak verdicts): per-member message *timing* inside a round is
collapsed, peer/inter retry ladders are modeled as ``max_forward_retries
+ 1`` independent attempts, takeovers do not switch round authority,
cross-cluster heartbeat overhearing is not modeled, the installed deputy
ranking is kept (no coverage re-ranking), and an unmarked node is never
admitted (no F5).  The peer-forwarding race that ``wait_slot`` times is
collapsed into the ladder.  The trace carries
the verdict-bearing record kinds only (detection/refutation/takeover).

Draw-order contract (engine-private; the gilbert chains and the bounded
budget depend on it, and it is what makes array runs replay bit-exactly
from the seed): per execution, in this fixed sequence -- ``hb_mc``,
``hb_cm``, ``hb_mm``, then with digests on ``dg_mc``, ``dg_cm``; the
R-3 update ``upd_direct``; the peer-recovery ladder (per attempt: one
request draw, one forward draw); the DCH witness draws ``dg_md`` per
deputy rank; finally the inter-cluster fixpoint (channels in lexsorted
(src, dst) order; per gateway rank: the overhear ladder for inbound
channels, the report-attempt ladder, the relay broadcast).  Gilbert
chain families follow the same sites: ``mc`` carries heartbeat, digest
and peer-request copies member -> own CH; ``cm`` carries CH broadcasts
(heartbeat, digest, update, peer forward, relay) toward each member;
``mm`` the member-pair copies (clustermate heartbeats and the DCH's
deputy-row witness draws); ``over``/``rep`` the per-channel gateway
ladders.

The member-pair cube.  ``hb_mm`` is the one member-pair array an
execution allocates, packed along the sender axis like the layout's
adjacency (:mod:`repro.sim.array_engine.bits`: ``(C, M, ceil(M/8))``
uint8, one eighth of the bool cube's bytes).
:meth:`~repro.sim.array_engine.loss.ArrayLossDraw.draw_into` with
``alive`` forms the active pairs (adjacency, alive hearer, alive
sender) straight into it and draws them there, one cluster block at a
time (the pair pass of :mod:`repro.sim.array_engine.loss`).  Its
readers stay packed: the witness reduction ORs the accepted digest
senders' rows, a target's refutation reads one sender column, and the
energy ledger's receive counts are row popcounts; no pair mask or other
cube-sized temporary exists beside it.

The inter-cluster scan.  Which channels hold forwardable news is
computed for all channels once per execution; afterwards only a
successful crossing changes knowledge, and only of the CH and members
of the cluster it entered, which a channel's news reads as destination
CH, source CH or outbound gateway of exactly the channels incident to
that cluster (the frontier invariant).  Each wave therefore recomputes
those channels alone.  While the fixpoint runs, the CH and gateway
rows of ``known`` are mirrored as Python-int bitmasks (bit ``j`` is
target column ``j``; :func:`~repro.sim.array_engine.bits.bitmasks`,
any T), so testing for
news is ``src & ~dst`` on ints.  Nothing in the fixpoint reads another
member row: a crossing updates the destination CH's int and the ints
of that cluster's gateways its relay copy reached, and the relayed
members' rows (gateways included) are merged at wave end, one column
at a time.  The CH ints are written back to ``known`` after the
fixpoint, which stops on the first wave without a crossing or after
``C + 3`` waves.  At a wave's end a channel out of an entered cluster
has its ranks with news fixed afresh; one into it keeps the subset of
its ranks that still has news.  Once some channel holds news, every
draw of the fixpoint comes off one uniform tape
(:class:`~repro.sim.array_engine.loss.UniformTape`): a gateway ladder is
a few Python floats, a relay one compare on a tape slice over the
destination's alive members, whose NIDs, CH distances and gateway
positions are gathered on the cluster's first entry in the execution.
The draw order above is unchanged, and the tape leaves the stream where
the per-call draws would.  Channel order, rank order and every draw
equal the per-crossing fixpoint's on bool rows
(``tests/test_array_kernels.py``).

Energy (``track_energy``): an optional
:class:`~repro.sim.array_engine.energy.ArrayEnergyLedger` charges every
``transmissions`` increment to its sender and every delivered copy to
its receiver, batched at the enclosing round's nominal instant (R-1 at
the epoch, R-2 at ``+thop``, R-3 at ``+2*thop``, recovery/DCH/
inter-cluster at ``+3*thop``), transmit debits before receive debits
per instant.  ``tx_total`` therefore equals ``MessageCounts.
transmissions`` and ``rx_total`` equals the delivered-copy count -- the
invariant the soak's energy sub-pair asserts.  (With
``formation="protocol"`` both engines run formation *before* energy
tracking starts, so the invariant covers the FDS phase only: the
scenario-level ``MessageCounts`` additionally carries the formation
sends, on the event engine via the medium counters and here via
``FormationOutcome.transmissions``.)
"""

from __future__ import annotations

import time as _time
from itertools import compress
from typing import Dict, List, Optional

import numpy as np

from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.fds.detector import (
    ch_failure_rule_mask,
    evidence_mask,
    failure_rule_mask,
)
from repro.obs.profiler import (
    PHASE_ARRAY_DRAWS,
    PHASE_ARRAY_INTERCLUSTER,
    PHASE_ARRAY_RULES,
    PHASE_ARRAY_SYNC,
    PhaseProfiler,
)
from repro.sim.array_engine import bits
from repro.sim.array_engine.energy import ArrayEnergyLedger
from repro.sim.array_engine.layout import PAD, ArrayLayout
from repro.sim.array_engine.loss import ArrayLossDraw
from repro.sim.trace import Tracer

#: Knowledge columns added per growth of the (N, T) ``known`` buffer.
_KNOWN_CHUNK = 16


class ArrayRoundEngine:
    """Mutable per-run state plus the per-execution array program."""

    def __init__(
        self,
        layout: ArrayLayout,
        fds: FdsConfig,
        loss: ArrayLossDraw,
        tracer: Tracer,
        crash_exec: np.ndarray,
        fds_start: float = 0.0,
        profiler: Optional[PhaseProfiler] = None,
        energy: Optional[ArrayEnergyLedger] = None,
    ) -> None:
        self.layout = layout
        self.fds = fds
        self.loss = loss
        self.tracer = tracer
        self.profiler = profiler
        self.energy = energy
        self.fds_start = float(fds_start)
        #: First execution index during which each node is crashed
        #: (``executions`` + 1 for nodes that never crash).
        self.crash_exec = crash_exec

        c, m = layout.members.shape
        self.C, self.M = c, m
        #: Head NID per cluster index.  Oracle lattices use the identity
        #: (head NID == cluster index); protocol-formed layouts carry
        #: arbitrary head NIDs, so every knowledge-row / energy access
        #: for "the CH of cluster c" must go through this map.
        self.head_ids = layout.head_nids
        self._is_head = np.zeros(layout.node_count, dtype=bool)
        self._is_head[self.head_ids] = True
        # Tracked failure targets: every node some authority ever
        # suspected.  T stays tiny (crashes + rare false suspicions), so
        # per-node knowledge is an (N, T) bool matrix.
        self.t_ids: List[int] = []
        self.t_col: Dict[int, int] = {}
        self.t_cluster: List[int] = []
        self.t_slot: List[int] = []  # PAD for head targets
        self.known = np.zeros((layout.node_count, 0), dtype=bool)
        #: CH-side suspicion per member slot (mirror of known[head, col]).
        self.suspected = np.zeros((c, m), dtype=bool)
        #: Deputies that performed a (false) takeover and have not heard
        #: the old CH since.
        self.takeover_active = np.zeros(layout.deputies.shape, dtype=bool)

        # Message accounting (MessageCounts currency).
        self.transmissions = 0
        self.peer_requests = 0
        self.peer_forwards = 0
        self.peer_recoveries = 0
        self.reports_sent = 0
        self.report_retransmissions = 0
        self.bgw_activations = 0

        # Directed forwarding channels, two per boundary: a gateway sits
        # in the lens overlap and hears *both* CHs, so it serves the
        # boundary outbound (own CH's news -> peer CH) and inbound
        # (overheard peer-CH news -> own CH).  Each channel keeps the
        # ranked gateway NIDs (primary + BGW ladder), the gateway ->
        # destination-head report distance, and for inbound channels the
        # source-head -> gateway overhear distance.
        b = layout.boundary_owner.size
        if b:
            slots = layout.boundary_gateway_slots  # (B, G)
            ok = slots != PAD
            safe = np.where(ok, slots, 0)
            owner = layout.boundary_owner
            peer = layout.boundary_peer
            gw = np.where(ok, layout.members[owner[:, None], safe], PAD)
            gx = layout.xs[np.where(ok, gw, 0)]
            gy = layout.ys[np.where(ok, gw, 0)]
            peer_dist = np.where(
                ok,
                np.sqrt(
                    (gx - layout.xs[peer[:, None]]) ** 2
                    + (gy - layout.ys[peer[:, None]]) ** 2
                ),
                np.inf,
            )
            own_dist = np.where(
                ok, layout.head_dist[owner[:, None], safe], np.inf
            )
            self.ch_src = np.concatenate([owner, peer])
            self.ch_dst = np.concatenate([peer, owner])
            self.ch_gw_ids = np.vstack([gw, gw])
            self.ch_gw_ok = np.vstack([ok, ok])
            self.ch_inbound = np.concatenate(
                [np.zeros(b, dtype=bool), np.ones(b, dtype=bool)]
            )
            self.ch_report_dist = np.vstack([peer_dist, own_dist])
            self.ch_overhear_dist = np.vstack(
                [np.full_like(peer_dist, np.inf), peer_dist]
            )
            order = np.lexsort((self.ch_dst, self.ch_src))
            self.ch_src = self.ch_src[order]
            self.ch_dst = self.ch_dst[order]
            self.ch_gw_ids = self.ch_gw_ids[order]
            self.ch_gw_ok = self.ch_gw_ok[order]
            self.ch_inbound = self.ch_inbound[order]
            self.ch_report_dist = self.ch_report_dist[order]
            self.ch_overhear_dist = self.ch_overhear_dist[order]
            self.ch_src_nid = self.head_ids[self.ch_src]
            self.ch_dst_nid = self.head_ids[self.ch_dst]
        else:
            self.ch_src = np.zeros(0, dtype=np.int64)
            self.ch_dst = np.zeros(0, dtype=np.int64)
            self.ch_gw_ids = np.zeros((0, 1), dtype=np.int64)
            self.ch_gw_ok = np.zeros((0, 1), dtype=bool)
            self.ch_inbound = np.zeros(0, dtype=bool)
            self.ch_report_dist = np.zeros((0, 1), dtype=np.float64)
            self.ch_overhear_dist = np.zeros((0, 1), dtype=np.float64)
            self.ch_src_nid = np.zeros(0, dtype=np.int64)
            self.ch_dst_nid = np.zeros(0, dtype=np.int64)

        self._scan_tables()

        # The per-channel gateway ladders address chain cells by (b, g)
        # before any full-family draw would create them, so pre-create
        # their gilbert families (no-op for stateless loss kinds).
        self.loss.ensure_chain("over", self.ch_overhear_dist.shape)
        self.loss.ensure_chain("rep", self.ch_report_dist.shape)

        #: Post-R-3 energy accumulation buffers (filled by the recovery,
        #: DCH and intercluster phases, flushed at ``t_r3end``).
        self._e_tx: Optional[np.ndarray] = None
        self._e_rx: Optional[np.ndarray] = None

    def _scan_tables(self) -> None:
        """The inter-cluster scan's per-channel and per-cluster tables,
        as Python values (numpy scalar indexing costs more than the
        scan's bit arithmetic)."""
        layout, fds = self.layout, self.fds
        #: Tries per gateway ladder (one without implicit ACKs).
        self._attempts = (
            (fds.max_forward_retries + 1) if fds.implicit_ack else 1
        )
        ok = self.ch_gw_ok
        slots = layout.boundary_gateway_slots
        real = slots != PAD
        owners = layout.boundary_owner.repeat(slots.shape[1])[real.ravel()]
        slots = slots[real]
        #: Every gateway NID (sorted): the member rows the scan mirrors.
        self._gw_nids, first = np.unique(
            layout.members[owners, slots], return_index=True
        )
        #: ``(B, G)`` index into ``_gw_nids`` (0 at pads: NID 0 sorts first).
        self._ch_gw_k = np.searchsorted(
            self._gw_nids, np.where(ok, self.ch_gw_ids, 0)
        )
        self._channels = list(zip(
            self.ch_src.tolist(), self.ch_dst.tolist(),
            self.ch_dst_nid.tolist(), self.ch_inbound.tolist(),
        ))
        #: Per channel, ``(rank, gateway index)`` of its ranked
        #: gateways, primary first.
        self._ranks = [
            [(g, k) for g, (k, ok_g) in enumerate(zip(*row)) if ok_g]
            for row in zip(self._ch_gw_k.tolist(), ok.tolist())
        ]
        #: Per cluster, the channels out of it and those into it.
        self._out_of: List[List[int]] = [[] for _ in range(self.C)]
        self._into: List[List[int]] = [[] for _ in range(self.C)]
        for b, (src, dst, _, _) in enumerate(self._channels):
            self._out_of[src].append(b)
            self._into[dst].append(b)
        self._member_counts: List[int] = layout.member_counts.tolist()
        #: Per cluster, its gateways as ``(member slots, indices)``.
        per_cluster: List[tuple] = [([], []) for _ in range(self.C)]
        for k, (c, slot) in enumerate(
            zip(owners[first].tolist(), slots[first].tolist())
        ):
            per_cluster[c][0].append(slot)
            per_cluster[c][1].append(k)
        self._cluster_gws = [
            (np.asarray(at_c, dtype=np.int64), ks) if ks else None
            for at_c, ks in per_cluster
        ]
        #: ``(B, G)`` loss probability of each gateway ladder's link
        #: (``distance`` only; None for every other loss kind).
        self._ladder_p = [
            self.loss.link_loss(dist)
            for dist in (self.ch_overhear_dist, self.ch_report_dist)
        ]

    # ------------------------------------------------------------------
    # Energy accounting helpers
    # ------------------------------------------------------------------
    def _node_counts(self) -> np.ndarray:
        return np.zeros(self.layout.node_count, dtype=np.int64)

    def _scatter_member_counts(
        self, counts_cm: np.ndarray, out: np.ndarray
    ) -> None:
        """Add per-slot member counts (C, M) into a per-node array."""
        mask = self.layout.member_mask
        out[self.layout.members[mask]] += counts_cm[mask]

    # ------------------------------------------------------------------
    # Target bookkeeping
    # ------------------------------------------------------------------
    def _col(self, node_id: int) -> int:
        """The (lazily created) knowledge column of a target NID."""
        col = self.t_col.get(node_id)
        if col is not None:
            return col
        col = len(self.t_ids)
        self.t_col[node_id] = col
        self.t_ids.append(node_id)
        cluster = int(self.layout.assign[node_id])
        if cluster == PAD:
            raise ValueError(
                f"node {node_id} is unclustered and cannot be a failure "
                "target (no authority observes it)"
            )
        self.t_cluster.append(cluster)
        if self._is_head[node_id]:
            self.t_slot.append(PAD)
        else:
            row = self.layout.members[cluster]
            self.t_slot.append(int(np.flatnonzero(row == node_id)[0]))
        # ``known`` is a view of the first columns of a wider buffer,
        # grown by a fixed chunk (doubling would hold (N, 2T) at N = 10**6).
        spare = self.known.base
        if spare is None or spare.shape[1] == col:
            spare = np.zeros(
                (self.layout.node_count, col + _KNOWN_CHUNK), dtype=bool
            )
            spare[:, :col] = self.known
        self.known = spare[:, : col + 1]
        return col

    @property
    def T(self) -> int:
        return len(self.t_ids)

    def _clear_self_columns(self) -> None:
        """No node ever suspects itself (the rules exclude self)."""
        if self.t_ids:
            self.known[np.asarray(self.t_ids), np.arange(self.T)] = False

    # ------------------------------------------------------------------
    def _trace(self, time: float, kind: str, node: int, **detail) -> None:
        if self.tracer.enabled:
            self.tracer.record(time, kind, node=node, **detail)

    @staticmethod
    def _witness_reduce(sender_ok: np.ndarray, hb_mm: np.ndarray) -> np.ndarray:
        """``out[c, v] = any_u(sender_ok[c, u] & hb_mm[c, u, v])``: the
        OR of the packed rows of the hearers ``u`` in ``sender_ok``, with
        no temporary beyond the ``(C, W)`` result."""
        words = np.bitwise_or.reduce(
            hb_mm, axis=1, where=sender_ok[:, :, None], initial=0
        )
        return bits.unpack(words, sender_ok.shape[1])

    # ------------------------------------------------------------------
    # One execution
    # ------------------------------------------------------------------
    def run_execution(self, e: int) -> None:
        layout, fds, loss = self.layout, self.fds, self.loss
        prof = self.profiler
        tick = _time.perf_counter
        epoch = self.fds_start + e * fds.phi
        t_r3 = epoch + 2.0 * fds.thop
        t_r3end = epoch + 3.0 * fds.thop
        use_digests = fds.use_digests

        alive = self.crash_exec > e
        alive_m = np.zeros((self.C, self.M), dtype=bool)
        if self.M:
            alive_m = layout.member_mask & alive[
                np.where(layout.member_mask, layout.members, 0)
            ]

        # -- R-1 / R-2 delivery draws (fixed order; see module docstring)
        t0 = tick()
        hd = layout.head_dist
        pd = layout.pair_dist
        hb_mc = loss.draw_into(alive_m, hd, chain="mc")  # member -> own CH
        hb_cm = loss.draw_into(alive_m, hd, chain="cm")  # CH broadcast -> member
        hb_mm = loss.draw_into(  # [c, hearer u, sender v], packed
            layout.adjacency, pd, chain="mm", alive=alive_m
        )
        if use_digests:
            dg_mc = loss.draw_into(alive_m, hd, chain="mc")  # member digest -> CH
            dg_cm = loss.draw_into(alive_m, hd, chain="cm")  # CH digest -> member
        else:
            dg_mc = np.zeros((self.C, self.M), dtype=bool)
            dg_cm = np.zeros((self.C, self.M), dtype=bool)
        self.transmissions += int(alive_m.sum()) + self.C  # R-1 broadcasts
        if use_digests:
            self.transmissions += int(alive_m.sum()) + self.C
        energy = self.energy
        if energy is not None:
            tx = self._node_counts()
            tx[self.head_ids] += 1
            self._scatter_member_counts(alive_m.astype(np.int64), tx)
            energy.charge_tx(epoch, tx)
            rx = self._node_counts()
            rx[self.head_ids] += hb_mc.sum(axis=1)
            self._scatter_member_counts(
                hb_cm.astype(np.int64) + bits.popcount(hb_mm), rx
            )
            energy.charge_rx(epoch, rx)
            if use_digests:
                energy.charge_tx(epoch + fds.thop, tx)  # same sender set
                rx = self._node_counts()
                rx[self.head_ids] += dg_mc.sum(axis=1)
                self._scatter_member_counts(dg_cm.astype(np.int64), rx)
                energy.charge_rx(epoch + fds.thop, rx)
        if prof is not None:
            prof.add_seconds(PHASE_ARRAY_DRAWS, tick() - t0)

        # -- member-level liveness refutations (heartbeats heard at R-1)
        t0 = tick()
        self._member_refutations(e, epoch, alive, hb_mm, hb_cm, dg_cm)

        # -- CH refutation scan, then the failure rule (R-3)
        sender_ok, witness = self._ch_refutations(
            epoch, t_r3, hb_mc, dg_mc, hb_mm
        )
        expected = layout.member_mask & ~self.suspected
        evidence = evidence_mask(
            hb_mc, sender_ok, witness, use_digests=use_digests
        )
        newly = failure_rule_mask(expected, evidence)
        self._record_detections(e, t_r3, newly)
        if prof is not None:
            prof.add_seconds(PHASE_ARRAY_RULES, tick() - t0)

        # -- R-3 update broadcast + peer-forwarding ladder
        t0 = tick()
        refuted_exec = self._refuted_this_exec
        upd_direct = loss.draw_into(alive_m, hd, chain="cm")
        self.transmissions += self.C
        if energy is not None:
            tx = self._node_counts()
            tx[self.head_ids] += 1
            energy.charge_tx(t_r3, tx)
            rx = self._node_counts()
            self._scatter_member_counts(upd_direct.astype(np.int64), rx)
            energy.charge_rx(t_r3, rx)
            # Everything after R-3 (peer ladder, DCH digests, the
            # intercluster fixpoint) is charged in one tx-then-rx batch
            # at t_r3end; the phases below accumulate into these.
            self._e_tx = self._node_counts()
            self._e_rx = self._node_counts()
        got_update = upd_direct.copy()
        if fds.peer_forwarding:
            got_update |= self._peer_recovery(alive_m, upd_direct, hd)
        self._apply_updates(got_update, refuted_exec)

        # -- DCH rule at R-3 end (direct update receipt only: the peer
        # ladder has not completed when the rule is evaluated)
        if fds.dch_enabled:
            self._dch_rule(
                e, t_r3end, alive, hb_cm, dg_cm, upd_direct, alive_m
            )
        if prof is not None:
            prof.add_seconds(PHASE_ARRAY_SYNC, tick() - t0)

        # -- inter-cluster forwarding fixpoint
        if self.ch_gw_ids.size:
            t0 = tick()
            self._intercluster(alive, alive_m, hd)
            if prof is not None:
                prof.add_seconds(PHASE_ARRAY_INTERCLUSTER, tick() - t0)

        if energy is not None:
            energy.charge_tx(t_r3end, self._e_tx)
            energy.charge_rx(t_r3end, self._e_rx)
            self._e_tx = None
            self._e_rx = None

        self._clear_self_columns()

    # ------------------------------------------------------------------
    def _member_refutations(
        self,
        e: int,
        epoch: float,
        alive: np.ndarray,
        hb_mm: np.ndarray,
        hb_cm: np.ndarray,
        dg_cm: np.ndarray,
    ) -> None:
        """Hearing a suspect's heartbeat unmarks it (``_note_liveness``).

        Covers member targets (clustermate heartbeats) and head targets
        (the CH's own heartbeat/digest reaching a takeover deputy).
        Runs before the digest stage, so a refuting hearer's digest
        again lists the target -- which is why the witness reduction
        needs no explicit belief filter: hearing implies belief.
        """
        layout = self.layout
        for col, nid in enumerate(self.t_ids):
            if not alive[nid]:
                continue
            c = self.t_cluster[col]
            slot = self.t_slot[col]
            if slot == PAD:  # head target: heartbeat or digest broadcast
                heard = hb_cm[c] | dg_cm[c]
            else:
                heard = bits.column(hb_mm[c], slot)
            if not heard.any():
                continue
            row_ids = layout.members[c]
            marked = self.known[np.where(row_ids >= 0, row_ids, 0), col]
            marked &= layout.member_mask[c]
            refuters = heard & marked
            if not refuters.any():
                continue
            for s in np.flatnonzero(refuters):
                hearer = int(row_ids[s])
                self.known[hearer, col] = False
                self._trace(epoch, ev.REFUTATION, hearer, target=int(nid))
                if slot == PAD:
                    self._revert_takeover(e, epoch, c, hearer, int(nid))

    def _revert_takeover(
        self, e: int, epoch: float, c: int, deputy: int, head: int
    ) -> None:
        dep_row = self.layout.deputies[c]
        hits = np.flatnonzero(dep_row == deputy)
        if hits.size and self.takeover_active[c, hits[0]]:
            self.takeover_active[c, hits[0]] = False
            self._trace(
                epoch, ev.TAKEOVER_REVERTED, deputy,
                old_head=int(head), new_head=int(deputy),
            )

    def _ch_refutations(
        self,
        epoch: float,
        t_r3: float,
        hb_mc: np.ndarray,
        dg_mc: np.ndarray,
        hb_mm: np.ndarray,
    ) -> tuple:
        """CH-side liveness refutations, in the event engine's order.

        A suspect's direct heartbeat unmarks it at delivery time (R-1),
        *before* digest acceptance -- so a restored member's own R-2
        digest is accepted again.  The witness scan then runs at R-3
        over the accepted digests.  Returns ``(sender_ok, witness)`` for
        the detection rule; witnesses need no belief filter because a
        member that heard a suspect's heartbeat refuted its own mark at
        R-1 (see :meth:`_member_refutations`).
        """
        refuted_exec = np.zeros((self.C, self.T), dtype=bool)
        if self.suspected.any():
            for c, s in zip(*np.nonzero(self.suspected & hb_mc)):
                self._refute_at_ch(epoch, int(c), int(s), refuted_exec)
        sender_ok = dg_mc & ~self.suspected
        witness = self._witness_reduce(sender_ok, hb_mm)
        if self.suspected.any():
            for c, s in zip(*np.nonzero(self.suspected & witness)):
                self._refute_at_ch(t_r3, int(c), int(s), refuted_exec)
        self._refuted_this_exec = refuted_exec
        return sender_ok, witness

    def _refute_at_ch(
        self, when: float, c: int, s: int, refuted_exec: np.ndarray
    ) -> None:
        nid = int(self.layout.members[c, s])
        col = self.t_col[nid]
        head = int(self.head_ids[c])
        self.suspected[c, s] = False
        self.known[head, col] = False
        refuted_exec[c, col] = True
        self._trace(when, ev.REFUTATION, head, target=nid)

    def _record_detections(
        self, e: int, t_r3: float, newly: np.ndarray
    ) -> None:
        for c, s in zip(*np.nonzero(newly)):
            nid = int(self.layout.members[c, s])
            col = self._col(nid)
            if self._refuted_this_exec.shape[1] < self.T:
                grow = np.zeros(
                    (self.C, self.T - self._refuted_this_exec.shape[1]),
                    dtype=bool,
                )
                self._refuted_this_exec = np.concatenate(
                    [self._refuted_this_exec, grow], axis=1
                )
            head = int(self.head_ids[c])
            self.suspected[c, s] = True
            self.known[head, col] = True
            self._trace(
                t_r3, ev.DETECTION, head,
                target=nid, detector=head, execution=e,
            )

    # ------------------------------------------------------------------
    def _peer_recovery(
        self, alive_m: np.ndarray, upd_direct: np.ndarray, hd: np.ndarray
    ) -> np.ndarray:
        """The peer-forwarding ladder, as independent request+forward pairs.

        The event engine's waiting-period policy staggers responders
        over the recovery window; what matters for the verdicts is the
        number of *independent chances* a member gets, which the ladder
        models as ``max_forward_retries + 1`` attempts of one request
        plus one forward draw each (the CH is always a holder).  The
        bounded-adversary completeness argument carries over: blocking a
        member costs one drop for the update plus one per attempt, which
        exceeds any budget within ``max_forward_retries``.
        """
        pending = alive_m & ~upd_direct
        recovered = np.zeros_like(pending)
        attempts = self.fds.max_forward_retries + 1
        for _ in range(attempts):
            if not pending.any():
                break
            self.peer_requests += int(pending.sum())
            self.transmissions += int(pending.sum())
            req = self.loss.draw_into(pending, hd, chain="mc")
            self.peer_forwards += int(req.sum())
            self.transmissions += int(req.sum())
            fwd = self.loss.draw_into(req, hd, chain="cm")
            ok = req & fwd
            if self._e_tx is not None:
                self._scatter_member_counts(pending.astype(np.int64), self._e_tx)
                self._e_tx[self.head_ids] += req.sum(axis=1)
                self._e_rx[self.head_ids] += req.sum(axis=1)
                self._scatter_member_counts(ok.astype(np.int64), self._e_rx)
            recovered |= ok
            pending &= ~ok
        self.peer_recoveries += int(recovered.sum())
        return recovered

    def _apply_updates(
        self, got_update: np.ndarray, refuted_exec: np.ndarray
    ) -> None:
        """Merge the CH payload into every member that got the update.

        Refutations apply first, then the union of new and known
        failures -- the event engine's ``_apply_update`` order.  Only the
        ``(K, T)`` rows of the ``K`` members that got it are gathered,
        merged and written back.
        """
        if not self.T or not got_update.any():
            return
        layout = self.layout
        cs, ss = np.nonzero(got_update & layout.member_mask)
        ids = layout.members[cs, ss]
        rows = self.known[ids]
        rows[:, : refuted_exec.shape[1]] &= ~refuted_exec[cs]
        rows |= self.known[self.head_ids[cs]]
        self.known[ids] = rows

    # ------------------------------------------------------------------
    def _dch_rule(
        self,
        e: int,
        t_r3end: float,
        alive: np.ndarray,
        hb_cm: np.ndarray,
        dg_cm: np.ndarray,
        upd_direct: np.ndarray,
        alive_m: np.ndarray,
    ) -> None:
        """The CH-failure rule at every acting deputy.

        Deputy ``j`` acts iff it is alive and has marked every
        higher-ranked deputy failed (the event engine's ``_acting_
        deputy`` evaluated at the deputy itself).  CHs in the lattice
        never crash (the faultload excludes heads), so any firing here
        is a false takeover; the deputy suspects the head until it hears
        it again, at which point the takeover reverts.
        """
        layout, fds = self.layout, self.fds
        use_digests = fds.use_digests
        for j in range(layout.deputies.shape[1]):
            dep = layout.deputies[:, j]
            dslot = layout.deputy_slots[:, j]
            ok = dep != PAD
            if not ok.any():
                continue
            acting = ok & alive[np.where(ok, dep, 0)]
            for i in range(j):
                prev = layout.deputies[:, i]
                prev_ok = prev != PAD
                knows_prev = np.zeros(self.C, dtype=bool)
                for c in np.flatnonzero(acting & prev_ok):
                    col = self.t_col.get(int(prev[c]))
                    knows_prev[c] = (
                        col is not None and self.known[int(dep[c]), col]
                    )
                acting &= np.where(prev_ok, knows_prev, True)
            if not acting.any():
                continue
            rows = np.arange(self.C)
            safe_slot = np.where(ok, dslot, 0)
            hb_at_dep = hb_cm[rows, safe_slot]
            dg_at_dep = dg_cm[rows, safe_slot]
            if use_digests:
                # Digests the deputy overheard from clustermates that
                # themselves heard the CH's heartbeat.  Fresh draws for
                # the deputy's copies (per-receiver independence).
                dep_adj = bits.unpack(  # (C, M)
                    layout.adjacency[rows, safe_slot], self.M
                )
                md_active = (
                    dep_adj & alive_m & acting[:, None]
                )
                dg_md = self.loss.draw_into(
                    md_active, layout.head_dist,
                    chain="mm", at=(rows, safe_slot),
                )
                witness_head = (dg_md & hb_cm).any(axis=1)
                if self._e_rx is not None:
                    dep_ids = np.where(ok, dep, 0)
                    self._e_rx[dep_ids] += np.where(
                        ok, dg_md.sum(axis=1), 0
                    )
            else:
                dg_at_dep = np.zeros(self.C, dtype=bool)
                witness_head = np.zeros(self.C, dtype=bool)
            ch_evidence = evidence_mask(
                hb_at_dep, dg_at_dep, witness_head, use_digests=use_digests
            )
            upd_at_dep = upd_direct[rows, safe_slot]
            fires = acting & ch_failure_rule_mask(ch_evidence, upd_at_dep)
            for c in np.flatnonzero(fires):
                deputy = int(dep[c])
                head = int(self.head_ids[c])
                col = self._col(head)
                if self.known[deputy, col]:
                    continue  # already suspects the head
                self.known[deputy, col] = True
                self.takeover_active[c, j] = True
                self._trace(
                    t_r3end, ev.TAKEOVER, deputy,
                    old_head=head, new_head=deputy, execution=e,
                )
                self._trace(
                    t_r3end, ev.DETECTION, deputy,
                    target=head, detector=deputy, execution=e,
                )

    # ------------------------------------------------------------------
    def _intercluster(
        self, alive: np.ndarray, alive_m: np.ndarray, hd: np.ndarray
    ) -> None:
        """Forward fresh news across boundary channels to a fixpoint.

        Outbound channel: the first alive ranked gateway whose own
        knowledge exceeds the destination CH's forwards it (BGW ladder,
        counted as activations).  Inbound channel: the gateway must
        first overhear the source CH's broadcast (an attempt ladder --
        the origin rebroadcasts under the implicit-ack watch), then
        report to its own CH.  Each report needs one of
        ``max_forward_retries + 1`` attempts to arrive (one, with
        ``implicit_ack`` off).  A successful crossing relays into the
        destination cluster immediately (the event engine's
        same-execution forwarding cascade), so one fixpoint pass per
        propagation wave reaches the whole field under perfect links.

        Runs as the inter-cluster scan of the module docstring.
        """
        if not self.T:
            return
        known = self.known
        heads, head_words = bits.bitmasks(known[self.head_ids])
        gws, gw_words = bits.bitmasks(known[self._gw_nids])
        # Which channels hold news, for all channels once.
        alive_k = alive[self._gw_nids]
        alive_gw = self.ch_gw_ok & alive_k[self._ch_gw_k]
        dst_words = head_words[self.ch_dst]
        out_has = (gw_words[self._ch_gw_k] & ~dst_words[:, None, :]).any(axis=2)
        in_has = (head_words[self.ch_src] & ~dst_words).any(axis=1)
        has = np.where(self.ch_inbound[:, None], in_has[:, None], out_has)
        has &= alive_gw
        first = np.flatnonzero(has.any(axis=1))
        if not first.size:
            return
        ranks = self._ranks
        #: Channel -> its ranks with news, for every channel holding any.
        live = {
            b: [rank for rank in ranks[b] if row[rank[0]]]
            for b, row in zip(first.tolist(), has[first].tolist())
        }
        #: Per channel, its ranks with an alive gateway.
        up = ranks
        dead = np.flatnonzero((self.ch_gw_ok > alive_gw).any(axis=1))
        if dead.size:
            alive_k = alive_k.tolist()
            up = list(ranks)
            for b in dead.tolist():
                up[b] = [rank for rank in ranks[b] if alive_k[rank[1]]]
        #: Cluster -> its relay copies this execution (filled on entry).
        relay: Dict[int, tuple] = {}

        attempts = self._attempts
        channels = self._channels
        over_p, rep_p = self._ladder_p
        gw_nids = self._gw_nids
        e_tx, e_rx = self._e_tx, self._e_rx
        reports = bgw = relays = 0
        touched = set()
        with self.loss.tape() as tape:
            for _ in range(self.C + 3):
                entered = set()
                #: news -> member NID arrays that received it this wave
                merges: Dict[int, List[np.ndarray]] = {}
                for b in sorted(live):
                    src, dst, dst_nid, inbound = channels[b]
                    lacks = ~heads[dst]
                    for g, k in live[b]:
                        news = (heads[src] if inbound else gws[k]) & lacks
                        if not news:
                            break  # covered by an earlier crossing this wave
                        if inbound:
                            heard = tape.ladder(attempts, "over", (b, g), over_p)
                            if e_rx is not None:
                                e_rx[gw_nids[k]] += heard
                            if not heard:
                                continue  # never overheard the source CH; next BGW
                        if g:
                            bgw += 1
                        arrived = tape.ladder(attempts, "rep", (b, g), rep_p)
                        reports += 1
                        if e_tx is not None:
                            e_tx[gw_nids[k]] += attempts
                            e_rx[dst_nid] += arrived
                        if not arrived:
                            continue  # report ladder exhausted; next BGW takes over
                        if e_tx is not None:
                            e_tx[dst_nid] += 1
                        heads[dst] |= news
                        copies = relay.get(dst)
                        if copies is None:
                            copies = relay[dst] = self._relay_copies(dst, alive_m, hd)
                        alive_c, count, nids, link_p, gw_at, gw_ks = copies
                        rel = tape.broadcast(alive_c, count, link_p, "cm", dst)
                        relays += 1
                        if gw_ks:
                            for k_dst in compress(gw_ks, rel[gw_at].tolist()):
                                gws[k_dst] |= news
                        merges.setdefault(news, []).append(nids[rel])
                        entered.add(dst)
                        break
                if not entered:
                    break
                touched |= entered
                # Members only gain bits: one scatter per column set in
                # some news, no gather.
                columns: Dict[int, List[np.ndarray]] = {}
                for news, parts in merges.items():
                    while news:
                        low = news & -news
                        columns.setdefault(low.bit_length() - 1, []).extend(parts)
                        news ^= low
                for col, parts in columns.items():
                    known[:, col][np.concatenate(parts)] = True
                if e_rx is not None:
                    e_rx += np.bincount(
                        np.concatenate([p for parts in merges.values() for p in parts]),
                        minlength=self.layout.node_count,
                    )
                self._refresh(entered, live, up, heads, gws)

        if touched:
            order = sorted(touched)
            known[self.head_ids[order]] = bits.bool_rows(
                [heads[c] for c in order], self.T
            )
        self.bgw_activations += bgw
        self.reports_sent += reports
        self.report_retransmissions += reports * (attempts - 1)
        self.transmissions += reports * attempts + relays

    def _relay_copies(
        self, c: int, alive_m: np.ndarray, hd: np.ndarray
    ) -> tuple:
        """Cluster ``c``'s relay copies: its alive members (a view of
        ``alive_m``), their count, NIDs and loss probabilities
        (``distance`` only), and its alive gateways as positions among
        the alive members plus their gateway indices (none: ``gw_ks``
        empty).  Kept for the execution: with every member alive
        (member slots are packed left) all are views or the run's
        gateway table; otherwise the NIDs are an int32 copy."""
        alive_c = alive_m[c]
        count = int(np.count_nonzero(alive_c))
        gws_c = self._cluster_gws[c]
        if count == self._member_counts[c]:
            slots = slice(0, count)
            gw_at, gw_ks = gws_c if gws_c is not None else ((), [])
            nids = self.layout.members[c, slots]
        else:
            slots = np.flatnonzero(alive_c)
            gw_at, gw_ks = (), []
            if gws_c is not None:
                at_c, ks = gws_c
                up = alive_c[at_c]
                gw_at = np.searchsorted(slots, at_c[up])
                gw_ks = list(compress(ks, up.tolist()))
            nids = self.layout.members[c, slots].astype(np.int32)
        link_p = self.loss.link_loss(hd[c, slots])
        return alive_c, count, nids, link_p, gw_at, gw_ks

    def _refresh(
        self,
        entered: set,
        live: Dict[int, list],
        up: List[list],
        heads: List[int],
        gws: List[int],
    ) -> None:
        """Fix the ranks with news of the channels around the clusters
        this wave entered, from the alive ranks ``up``; every other
        channel's stay what they are (frontier invariant, module
        docstring).

        A channel out of an entered cluster may have gained news.  One
        into it can only have lost some (its destination CH gained
        bits): unless it is also out of an entered cluster, its ranks
        with news are among those it held, and one that held none still
        holds none.  Inbound ranks need only an alive gateway; outbound
        ones their gateway's own news.  A channel between two entered
        clusters is fixed twice, to the same ranks.
        """
        channels = self._channels
        for c in entered:
            head = heads[c]
            for b in self._out_of[c]:
                _, dst, _, inbound = channels[b]
                lacks = ~heads[dst]
                if inbound:
                    fresh = up[b] if head & lacks else None
                else:
                    fresh = []  # a loop: cheaper than a comprehension here
                    for rank in up[b]:
                        if gws[rank[1]] & lacks:
                            fresh.append(rank)
                if fresh:
                    live[b] = fresh
                else:
                    live.pop(b, None)
            lacks = ~head
            for b in self._into[c]:
                held = live.get(b)
                if held is None:
                    continue
                src, _, _, inbound = channels[b]
                if inbound:
                    fresh = held if heads[src] & lacks else None
                else:
                    fresh = []
                    for rank in held:
                        if gws[rank[1]] & lacks:
                            fresh.append(rank)
                if fresh:
                    live[b] = fresh
                else:
                    del live[b]
