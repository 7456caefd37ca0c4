"""Vectorized distributed cluster formation (Section 3) for the array engine.

Runs the same six-round formation iteration as
:mod:`repro.cluster.formation` -- R0 heartbeats, R1 lowest-NID CH
declarations with RCC backoff, R2 join requests, R3 announcements and
marking, R4 gateway candidacies, R5 boundary assignments, plus the RCC
resign/dissolve repair -- as batched numpy array programs over flat
node/edge arrays instead of per-node protocol objects and timers.

Round synchrony
---------------
The event engine's formation is round-synchronous by construction as long
as ``max_delay <= (1 - backoff_fraction) * thop``: every message sent at a
round's start (and every backed-off declaration) is delivered, if not
lost, before the next round fires.  The shipped
:class:`~repro.sim.network.NetworkConfig` fixes ``max_delay = 0.1`` with
``thop = 0.5`` and ``backoff_fraction = 0.4``, so the condition always
holds and the per-event schedule collapses to the synchronous round model
this module implements.

Edge list
---------
Rounds are programs over :class:`~repro.topology.graph.UnitDiskEdges`,
the canonical ``(src, dst)``-sorted directed edge list of
:func:`~repro.topology.graph.build_unit_disk_edges` -- the range test
the graph, the radio medium and the oracle use too.  The
``min(heard)`` reductions read flags in in-edge order (one
``flatnonzero``, one binary search of the receivers' segment starts).
Draws on a few nodes' out-edges, or on one edge per sender, address
those edges directly in ascending order -- the positions, and so the
uniforms, an ``(E,)`` mask would give.

Draw-order contract (engine-private, like the FDS rounds)
---------------------------------------------------------
All formation loss draws ride one chain family, ``"fm"``, shaped ``(E,)``
over the canonical ``(src, dst)``-sorted directed edge list -- every
formation message between two nodes is an attempt on that physical link,
exactly the discipline the gilbert lift established for the FDS chains.
Per iteration the draws are consumed in this fixed order:

1. R0 heartbeats: one draw over all ``E`` edges;
2. wave-A dissolve: one draw over the out-edges of heads resigning on a
   lower-NID head heartbeat;
3. R1 declarations: one draw over the out-edges of *all* qualified
   nodes (the array engine draws before suppression resolves, so under
   loss it consumes copies for declarations the event engine would have
   suppressed -- an engine-private over-draw; under lossless channels
   qualified nodes are pairwise non-adjacent and all of them fire, so
   transmissions and deliveries match the event engine exactly);
4. wave-B dissolve: heads resigning on a lower-NID declaration;
5. R2 join requests: one draw over the joiner->target edges;
6. R3 announcements: one draw over the heads' out-edges;
7. wave-C dissolve: heads resigning on a lower-NID announcement;
8. R4 candidacies: one draw over the member->own-CH edges;
9. R5 boundary assignments: one broadcast per (head, peer) pair --
   non-gilbert kinds consume one flat block of ``sum(deg(head) *
   groups(head))`` copies, gilbert advances each head's out-edge chains
   once per assignment broadcast.

Backoff draws come from a dedicated ``stream("array", "formation")``
generator, one uniform per qualified node in NID order (the event engine
draws from per-node streams; backoffs only break declaration ties between
*adjacent* qualified nodes, which cannot exist under lossless channels).

Engine-private approximations (all invisible under lossless channels,
where the resulting :class:`~repro.cluster.state.ClusterLayout` is
bit-identical to :func:`repro.cluster.formation.run_formation`):

- declaration suppression ignores per-copy delivery *delay*: a delivered
  lower-NID declaration with an earlier backoff always suppresses;
- a node inside two announced member lists (possible only after a lost
  announcement) confirms to the lowest announcing head rather than the
  last-arriving announcement;
- a wave-C resigner never confirms into another cluster in the same
  iteration (the event engine's outcome depends on announcement arrival
  order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.formation import DECLARATION_PATIENCE, FormationConfig
from repro.sim.array_engine.layout import (
    ArrayLayout,
    _member_slots,
    _rank_boundaries,
)
from repro.sim.array_engine.loss import ArrayLossDraw
from repro.topology.graph import UnitDiskEdges, build_unit_disk_edges

#: Pad value for "no node" entries (matches layout.PAD).
PAD = -1

#: Chain family name for all formation draws (see module docstring).
FORMATION_CHAIN = "fm"

_BIG = np.iinfo(np.int64).max


# ----------------------------------------------------------------------
# Formation state and outcome
# ----------------------------------------------------------------------


@dataclass
class FormationOutcome:
    """Converged per-node formation state, plus field geometry.

    The array twin of the event engine's ``Dict[NodeId,
    FormationProtocol]`` after :func:`run_formation` parks the clock:
    everything :func:`repro.cluster.formation.extract_layout` reads is
    here as flat arrays.
    """

    config: FormationConfig
    node_count: int
    radius: float
    xs: np.ndarray
    ys: np.ndarray
    edges: UnitDiskEdges
    is_head: np.ndarray
    marked: np.ndarray
    conf_head: np.ndarray
    #: ``(N, D)`` announced deputy NIDs per head row, ``PAD``-padded.
    ann_deputies: np.ndarray
    #: head NID -> peer head NID -> ranked forwarder NIDs (R5 state).
    boundary_asn: Dict[int, Dict[int, Tuple[int, ...]]]
    #: Formation message sends (one per broadcast/unicast, any fan-out).
    transmissions: int

    def head_ids(self) -> np.ndarray:
        """Sorted NIDs of the surviving clusterheads."""
        return np.flatnonzero(self.is_head)


class _State:
    """Durable per-node / per-edge protocol state across iterations."""

    def __init__(self, n: int, config: FormationConfig, e: int) -> None:
        self.marked = np.zeros(n, dtype=bool)
        self.is_head = np.zeros(n, dtype=bool)
        self.conf_head = np.full(n, PAD, dtype=np.int64)
        #: Edge index of (conf_head -> me); rev of it is my unicast path.
        self.conf_edge = np.full(n, PAD, dtype=np.int64)
        #: Iterations in a row with no head heard (starts at patience so
        #: iteration 1 may declare, like the event protocol).
        self.no_head = np.full(n, DECLARATION_PATIENCE, dtype=np.int64)
        #: (head -> member) edges whose join request was accepted; the
        #: head-side ``_members`` set, durable until the head resigns.
        self.joined = np.zeros(e, dtype=bool)
        self.ann_deputies = np.full(
            (n, config.deputy_count), PAD, dtype=np.int64
        )
        self.boundary_asn: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        self.transmissions = 0


def _draw_edges(
    loss: ArrayLossDraw, edges: UnitDiskEdges, idx: np.ndarray
) -> np.ndarray:
    """Delivered flags for one copy on each edge ``idx`` (ascending).

    The same uniforms in the same order, and the same chain steps, as a
    draw over an ``(E,)`` mask of those edges -- without the mask.
    """
    return loss.draw_into(
        np.ones(idx.size, dtype=bool),
        distances=edges.dist[idx],
        chain=FORMATION_CHAIN,
        at=idx,
    )


def _dissolve(
    st: _State,
    edges: UnitDiskEdges,
    loss: ArrayLossDraw,
    resign: np.ndarray,
) -> None:
    """Resigning heads broadcast ClusterDissolve and become unmarked."""
    resign_idx = np.flatnonzero(resign)
    if resign_idx.size == 0:
        return
    out_e = edges.out_edges(resign_idx)
    dis = _draw_edges(loss, edges, out_e)
    st.transmissions += int(resign_idx.size)
    # Receivers affiliated with a resigner release their membership
    # (heads never do: their confirmed head is themselves).
    rx = edges.dst[out_e]
    hit = dis & (st.conf_head[rx] == edges.src[out_e]) & ~st.is_head[rx]
    victims = np.unique(rx[hit])
    st.marked[victims] = False
    st.conf_head[victims] = PAD
    st.conf_edge[victims] = PAD
    # The resigners themselves clear all head state (the event engine's
    # _become_unmarked, which preserves the patience counter).
    st.is_head[resign_idx] = False
    st.marked[resign_idx] = False
    st.conf_head[resign_idx] = PAD
    st.conf_edge[resign_idx] = PAD
    st.ann_deputies[resign_idx] = PAD
    st.joined[out_e] = False
    for h in resign_idx.tolist():
        st.boundary_asn.pop(h, None)


def _resolve_declarations(
    q: np.ndarray,
    sup_src: np.ndarray,
    sup_dst: np.ndarray,
    n: int,
) -> np.ndarray:
    """Which qualified nodes actually fire their declaration.

    ``sup_*`` are the suppression edges: a delivered declaration from a
    lower-NID, earlier-backoff qualified neighbor.  A node fires iff no
    suppression edge from a *firing* node reaches it -- the same fixpoint
    the event engine's backoff timers resolve, computed Luby-style.  The
    suppression graph is a DAG (backoffs strictly decrease along edges),
    so every pass decides at least one node.
    """
    fired = np.zeros(n, dtype=bool)
    undecided = q.copy()
    while undecided.any():
        in_f = np.zeros(n, dtype=bool)
        in_f[sup_dst[fired[sup_src]]] = True
        in_u = np.zeros(n, dtype=bool)
        in_u[sup_dst[undecided[sup_src]]] = True
        newly_sup = undecided & in_f
        newly_fired = undecided & ~in_f & ~in_u
        progressed = newly_sup | newly_fired
        if not progressed.any():  # pragma: no cover - DAG guarantees progress
            raise AssertionError("declaration fixpoint stalled (engine bug)")
        fired |= newly_fired
        undecided &= ~progressed
    return fired


def _run_iteration(
    st: _State,
    edges: UnitDiskEdges,
    config: FormationConfig,
    loss: ArrayLossDraw,
    backoff_rng: np.random.Generator,
) -> None:
    """One six-round formation iteration (see module docstring)."""
    n = edges.node_count
    src, dst, dist = edges.src, edges.dst, edges.dist
    ids = np.arange(n, dtype=np.int64)

    # -- R0: heartbeats (flags snapshot the sender's state at send time).
    hb = loss.draw_into(
        np.ones(edges.edge_count, dtype=bool),
        distances=dist,
        chain=FORMATION_CHAIN,
    )
    st.transmissions += n
    heard_unmarked_e = hb & ~st.marked[src]
    heard_head_e = hb & st.is_head[src]
    head_min = edges.min_flagged_src(heard_head_e)

    # -- wave A: heads hearing a lower-NID head heartbeat resign.
    _dissolve(st, edges, loss, st.is_head & (head_min < ids))

    # -- R1: patience accounting (unmarked nodes only), qualification,
    # backoff, declaration broadcast, and suppression fixpoint.
    unmarked = ~st.marked
    has_head = head_min < _BIG
    st.no_head[unmarked & has_head] = 0
    st.no_head[unmarked & ~has_head] += 1
    unmarked_min = edges.min_flagged_src(heard_unmarked_e)
    q = (
        unmarked
        & (unmarked_min > ids)
        & (head_min > ids)
        & (st.no_head >= DECLARATION_PATIENCE)
    )
    q_idx = np.flatnonzero(q)
    backoff = np.full(n, np.inf)
    if q_idx.size:
        backoff[q_idx] = backoff_rng.uniform(
            0.0, config.backoff_fraction * config.thop, q_idx.size
        )
    q_out = edges.out_edges(q_idx)
    dec = _draw_edges(loss, edges, q_out)
    q_src, q_dst = src[q_out], dst[q_out]
    sup = dec & q[q_dst] & (q_src < q_dst) & (backoff[q_src] < backoff[q_dst])
    fired = _resolve_declarations(q, q_src[sup], q_dst[sup], n)
    fired_idx = np.flatnonzero(fired)
    st.is_head[fired_idx] = True
    st.marked[fired_idx] = True
    st.conf_head[fired_idx] = fired_idx
    st.conf_edge[fired_idx] = PAD
    st.transmissions += int(fired_idx.size)
    dec_e = np.zeros(edges.edge_count, dtype=bool)
    dec_e[q_out[dec & fired[q_src]]] = True
    dec_min = edges.min_flagged_src(dec_e)

    # -- wave B: heads hearing a lower-NID declaration resign (their
    # released members, and the resigners themselves, may join in R2).
    _dissolve(st, edges, loss, st.is_head & (dec_min < ids))

    # -- R2: unmarked nodes join the lowest-NID head they heard; the
    # target accepts only if it is (still) a head at receipt.
    avail_e = dec_e | heard_head_e
    target_in_edge = edges.first_flagged_in_edge(avail_e)
    joiner_idx = np.flatnonzero(~st.marked & (target_in_edge >= 0))
    e_t = target_in_edge[joiner_idx]
    # The joiner -> target edges lie in the joiners' own out-slices, so
    # they ascend with the joiners.
    jn = _draw_edges(loss, edges, edges.rev[e_t])
    st.transmissions += int(joiner_idx.size)
    st.joined[e_t[jn & st.is_head[src[e_t]]]] = True

    # -- R3: every head announces its member list; members confirm, heads
    # hearing a lower head's announcement resign (wave C, after the
    # confirms -- see the module docstring's approximation notes).
    head_idx = np.flatnonzero(st.is_head)
    head_out = edges.out_edges(head_idx)
    if config.deputy_count:
        st.ann_deputies[head_idx] = PAD
        j_edges = head_out[st.joined[head_out]]
        if j_edges.size:
            j_src = src[j_edges]
            starts = np.searchsorted(j_src, head_idx, side="left")
            ends = np.searchsorted(j_src, head_idx, side="right")
            for k in range(config.deputy_count):
                take = starts + k < ends
                pos = np.minimum(starts + k, j_edges.size - 1)
                st.ann_deputies[head_idx, k] = np.where(
                    take, dst[j_edges[pos]], PAD
                )
    ann = np.zeros(edges.edge_count, dtype=bool)
    ann[head_out[_draw_edges(loss, edges, head_out)]] = True
    st.transmissions += int(head_idx.size)
    conf_e = edges.first_flagged_in_edge(ann & st.joined)
    confirm = (conf_e >= 0) & ~st.is_head
    confirm_idx = np.flatnonzero(confirm)
    if confirm_idx.size:
        ce = conf_e[confirm_idx]
        st.conf_head[confirm_idx] = src[ce]
        st.conf_edge[confirm_idx] = ce
        st.marked[confirm_idx] = True
    heard_head_e = heard_head_e | ann
    ann_min = edges.min_flagged_src(ann)
    _dissolve(st, edges, loss, st.is_head & (ann_min < ids))

    # -- R4: confirmed members that heard foreign heads send one
    # candidacy to their own CH; the CH accepts from current members.
    foreign_e = np.flatnonzero(avail_e | heard_head_e)
    foreign_e = foreign_e[src[foreign_e] != st.conf_head[dst[foreign_e]]]
    has_foreign = np.zeros(n, dtype=bool)
    has_foreign[dst[foreign_e]] = True
    senders = ~st.is_head & (st.conf_head != PAD) & has_foreign
    sender_idx = np.flatnonzero(senders)
    ce = st.conf_edge[sender_idx]
    # Sender -> own-CH edges, ascending with the senders (as in R2).
    cd = _draw_edges(loss, edges, edges.rev[ce])
    st.transmissions += int(sender_idx.size)
    accepted_s = np.zeros(n, dtype=bool)
    ok = cd & st.is_head[st.conf_head[sender_idx]] & st.joined[ce]
    accepted_s[sender_idx[ok]] = True

    # -- R5: each head ranks this iteration's candidates per foreign
    # peer and broadcasts one BoundaryAssignment per (head, peer) pair.
    tri_e = foreign_e[accepted_s[dst[foreign_e]]]
    group_counts = np.zeros(n, dtype=np.int64)
    if tri_e.size:
        tri_head = st.conf_head[dst[tri_e]]
        tri_peer = src[tri_e]
        tri_cand = dst[tri_e]
        order5 = np.lexsort((tri_cand, tri_peer, tri_head))
        tri_head = tri_head[order5]
        tri_peer = tri_peer[order5]
        tri_cand = tri_cand[order5]
        new_group = np.ones(tri_e.size, dtype=bool)
        new_group[1:] = (tri_head[1:] != tri_head[:-1]) | (
            tri_peer[1:] != tri_peer[:-1]
        )
        starts = np.flatnonzero(new_group)
        bounds = np.append(starts, tri_e.size)
        width = 1 + config.max_backups
        for gi in range(starts.size):
            lo, hi = int(bounds[gi]), int(bounds[gi + 1])
            h = int(tri_head[lo])
            peer = int(tri_peer[lo])
            ranked = tuple(int(c) for c in tri_cand[lo : lo + min(hi - lo, width)])
            st.boundary_asn.setdefault(h, {})[peer] = ranked
            group_counts[h] += 1
        st.transmissions += int(starts.size)
    # Assignment delivery draws (receiver-side duties are not part of the
    # extracted layout, but copies must be accounted and chains advanced).
    assigning = np.flatnonzero(group_counts > 0)
    if assigning.size:
        if loss.kind == "gilbert":
            for h in assigning:
                sl = edges.out_slice(int(h))
                deg = sl.stop - sl.start
                if deg == 0:
                    continue
                for _ in range(int(group_counts[h])):
                    loss.draw_into(
                        np.ones(deg, dtype=bool),
                        distances=dist[sl],
                        chain=FORMATION_CHAIN,
                        at=sl,
                    )
        else:
            blocks = [
                np.tile(
                    dist[edges.out_slice(int(h))], int(group_counts[h])
                )
                for h in assigning
            ]
            flat = np.concatenate(blocks) if blocks else np.zeros(0)
            if flat.size:
                loss.delivered(int(flat.size), distances=flat)


def run_array_formation(
    xs: np.ndarray,
    ys: np.ndarray,
    radius: float,
    config: FormationConfig,
    loss: ArrayLossDraw,
    backoff_rng: np.random.Generator,
) -> FormationOutcome:
    """Run the full formation protocol over a field, vectorized.

    ``loss`` is the run's shared :class:`ArrayLossDraw` (formation and
    FDS draws ride the same engine-private stream, in program order);
    ``backoff_rng`` supplies the RCC backoff uniforms (NID order).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    edges = build_unit_disk_edges(xs, ys, radius)
    loss.ensure_chain(FORMATION_CHAIN, (edges.edge_count,))
    st = _State(int(xs.size), config, edges.edge_count)
    for _ in range(config.iterations):
        _run_iteration(st, edges, config, loss, backoff_rng)
    return FormationOutcome(
        config=config,
        node_count=int(xs.size),
        radius=float(radius),
        xs=xs,
        ys=ys,
        edges=edges,
        is_head=st.is_head,
        marked=st.marked,
        conf_head=st.conf_head,
        ann_deputies=st.ann_deputies,
        boundary_asn=st.boundary_asn,
        transmissions=st.transmissions,
    )


# ----------------------------------------------------------------------
# Layout extraction
# ----------------------------------------------------------------------


def formation_array_layout(
    outcome: FormationOutcome,
    keep_pair_dist: bool = False,
) -> ArrayLayout:
    """Re-express a formation outcome as an :class:`ArrayLayout`.

    The mirror of :func:`repro.cluster.formation.extract_layout`: heads
    carry arbitrary NIDs (``head_ids`` maps cluster index -> head NID),
    members are the non-head nodes whose confirmed head survived
    (NID-ascending slots), deputies are the head's announced list
    filtered to its members, and each boundary is the head's R5 ladder
    toward a surviving peer filtered to its members, dropped when none
    is left.  Unclustered nodes get ``assign == PAD`` and occupy no
    member slot.  :meth:`ArrayLayout.cluster_layout` gives the
    event-comparable ``ClusterLayout``.
    """
    n = outcome.node_count
    head_ids = np.flatnonzero(outcome.is_head).astype(np.int64)
    c = int(head_ids.size)
    cl_of = np.full(n, PAD, dtype=np.int64)
    cl_of[head_ids] = np.arange(c, dtype=np.int64)
    assign = cl_of.copy()
    member_nids = np.flatnonzero(~outcome.is_head & (outcome.conf_head != PAD))
    assign[member_nids] = cl_of[outcome.conf_head[member_nids]]
    fields, slot_of = _member_slots(
        outcome.xs, outcome.ys, outcome.radius, assign, head_ids, keep_pair_dist
    )

    ann = outcome.ann_deputies[head_ids]
    safe = np.where(ann != PAD, ann, 0)
    own = (
        (ann != PAD)
        & (assign[safe] == np.arange(c)[:, None])
        & (slot_of[safe] != PAD)
    )
    rank = np.cumsum(own, axis=1) - 1
    rows = np.nonzero(own)[0]
    deputies = np.full(ann.shape, PAD, dtype=np.int64)
    deputy_slots = np.full(ann.shape, PAD, dtype=np.int64)
    deputies[rows, rank[own]] = ann[own]
    deputy_slots[rows, rank[own]] = slot_of[ann[own]]

    # R5 ladders as flat candidates, ranked by their position.
    cl_list, assign_list = cl_of.tolist(), assign.tolist()
    slot_list = slot_of.tolist()
    candidates = [
        (ci, cl_list[peer], slot_list[f], k)
        for ci, h in enumerate(head_ids.tolist())
        for peer, forwarders in outcome.boundary_asn.get(h, {}).items()
        if cl_list[peer] != PAD
        for k, f in enumerate(forwarders)
        if assign_list[f] == ci and slot_list[f] != PAD
    ]
    columns = [np.array(col, dtype=np.int64) for col in zip(*candidates)]
    if not columns:
        columns = [np.zeros(0, dtype=np.int64)] * 4
    return ArrayLayout(
        cluster_count=c,
        node_count=n,
        radius=outcome.radius,
        xs=outcome.xs,
        ys=outcome.ys,
        assign=assign,
        head_ids=head_ids,
        deputies=deputies,
        deputy_slots=deputy_slots,
        **fields,
        **_rank_boundaries(*columns, 1 + outcome.config.max_backups),
    )


# ----------------------------------------------------------------------
# Layout-shape audit (the lossy leg of differential:formation)
# ----------------------------------------------------------------------


def formation_shape_violations(outcome: FormationOutcome) -> List[str]:
    """Structural invariants any formation outcome must satisfy.

    Used by the ``differential:formation`` soak pair on lossy runs,
    where bit-identity with the event engine is not claimed but the
    paper's layout-shape guarantees still must hold.
    """
    violations: List[str] = []
    heads = np.flatnonzero(outcome.is_head)

    if not np.all(outcome.marked[heads]):
        violations.append("head not marked")
    if heads.size and not np.all(
        outcome.conf_head[heads] == heads
    ):
        violations.append("head not self-affiliated")
    unmarked = np.flatnonzero(~outcome.marked)
    if unmarked.size and np.any(outcome.conf_head[unmarked] != PAD):
        violations.append("unmarked node with a confirmed head")

    # Members must be within radio range of their confirmed head.
    conf = outcome.conf_head
    member_idx = np.flatnonzero(~outcome.is_head & (conf != PAD))
    if member_idx.size:
        dx = outcome.xs[member_idx] - outcome.xs[conf[member_idx]]
        dy = outcome.ys[member_idx] - outcome.ys[conf[member_idx]]
        far = dx * dx + dy * dy > outcome.radius * outcome.radius
        if np.any(far):
            violations.append(
                f"member out of head range: {member_idx[far][:5].tolist()}"
            )

    width = 1 + outcome.config.max_backups
    for h, per_peer in outcome.boundary_asn.items():
        for peer, forwarders in per_peer.items():
            if len(forwarders) > width:
                violations.append(
                    f"forwarder ladder too long on {h}->{peer}"
                )
            if list(forwarders) != sorted(set(forwarders)):
                violations.append(
                    f"forwarder ladder not strictly ascending on {h}->{peer}"
                )

    # The extracted ClusterLayout must pass the paper's structural
    # validation (exactly-one affiliation, no node both clustered and
    # unclustered, deputies/forwarders members of their cluster, head in
    # its own member set); its heads are the is_head flags by
    # construction.
    try:
        formation_array_layout(outcome).cluster_layout()
    except Exception as exc:  # ClusteringError and anything else
        violations.append(f"layout extraction failed: {exc!r}")
    return violations
