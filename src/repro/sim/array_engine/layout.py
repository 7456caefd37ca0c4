"""Vectorized field construction for the array engine.

Reproduces, without ever instantiating per-node Python objects, exactly
what the event-engine setup path produces for the ``multi_cluster_field``
lattice under the geometric oracle:

- **Placement** is bit-identical to :func:`~repro.topology.generators.
  multi_cluster_field`: member positions come from the same
  ``stream("placement")`` generator, drawn as one strided ``random(2n)``
  block (``rng.uniform()`` consumes exactly one stream element, so the
  interleaved radius/angle draws match the scalar loop bit-for-bit).
- **Cluster assignment** equals :func:`~repro.cluster.geometric.
  lowest_id_partition` on the unit-disk graph, computed in O(N) from
  lattice arithmetic instead of O(N·deg) Python graph traversal:
  lattice CHs are pairwise non-adjacent (spacing in ``(r, 2r)``) and
  carry the lowest NIDs, so every lattice CH becomes a head and every
  member joins the lowest-ID lattice head within radio range.  Because
  the lattice pitch exceeds the radius, the only candidate heads for a
  node are the four surrounding lattice cells.
- **Deputies and boundaries** replicate the rank keys of
  :mod:`repro.cluster.deputies` and :mod:`repro.cluster.gateways`.

The layout-equivalence test (``tests/test_array_engine.py``) pins this
against the real :func:`build_clusters` output at moderate N.

The only O(C * M^2) pass, the member<->member adjacency
(:func:`_fill_adjacency`, shared with protocol-formed layouts), runs in
cache-sized blocks of whole clusters through two in-place scratch
buffers: the one-expression form's arithmetic without its field-sized
temporaries (``tests/test_array_kernels.py`` checks both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import TopologyError
from repro.util.validation import check_int_at_least, check_positive

#: Pad value for ragged (cluster, slot) integer arrays.
PAD = -1


@dataclass
class ArrayLayout:
    """The whole field as flat arrays (see module docstring).

    Member slots within a cluster row are sorted by NID ascending, so
    slot order == the deterministic iteration order of the event engine.
    """

    cluster_count: int
    node_count: int
    radius: float
    #: Node positions, indexed by NID (heads are NIDs ``0..C-1``).
    xs: np.ndarray
    ys: np.ndarray
    #: Cluster index of every node (head ``h`` maps to ``h``).
    assign: np.ndarray
    #: ``(C, M)`` member NIDs, ``PAD``-padded; excludes the head itself.
    members: np.ndarray
    #: ``(C, M)`` True where :attr:`members` holds a real NID.
    member_mask: np.ndarray
    #: Per-cluster member count.
    member_counts: np.ndarray
    #: ``(C, M, M)`` member<->member radio adjacency (diagonal False).
    adjacency: np.ndarray
    #: ``(C, M)`` member distance to own head (inf at pads).
    head_dist: np.ndarray
    #: ``(C, D)`` deputy NIDs per cluster, ``PAD``-padded.
    deputies: np.ndarray
    #: ``(C, D)`` deputy member-slot indices, ``PAD``-padded.
    deputy_slots: np.ndarray
    #: Ordered boundary list (sorted by owner, peer): cluster indices and
    #: the owner-cluster slots of the ranked gateways -- ``(B, G)`` with
    #: ``G = 1 + max_backups``, primary first, ``PAD`` where the
    #: candidate pool ran dry (the event layout's GW + BGW ladder).
    boundary_owner: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    boundary_peer: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    boundary_gateway_slots: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 1), np.int64)
    )
    #: ``(C, M, M)`` member<->member distances (only materialized for
    #: distance-dependent loss models).
    pair_dist: Optional[np.ndarray] = None
    #: Cluster index -> head NID.  ``None`` means the oracle lattice
    #: identity (head ``c`` carries NID ``c``); protocol-formed layouts
    #: (:func:`~repro.sim.array_engine.formation.formation_array_layout`)
    #: carry arbitrary head NIDs here.
    head_ids: Optional[np.ndarray] = None

    @property
    def max_members(self) -> int:
        return int(self.members.shape[1])

    @property
    def head_nids(self) -> np.ndarray:
        """Cluster index -> head NID, defaulting to the lattice identity."""
        if self.head_ids is not None:
            return self.head_ids
        return np.arange(self.cluster_count, dtype=np.int64)

    @property
    def clusters(self) -> range:
        """Cluster indices (the scoring surface reads ``len()`` of it)."""
        return range(self.cluster_count)

    def is_clustered(self, node_id: int) -> bool:
        """Whether ``node_id`` is a node of some cluster (the lattice
        clusters everyone; protocol formation leaves stragglers ``PAD``)."""
        nid = int(node_id)
        return 0 <= nid < self.node_count and int(self.assign[nid]) >= 0

    def slot_of(self, node_id: int) -> tuple:
        """``(cluster, slot)`` of a member NID (linear scan; test helper)."""
        cluster = int(self.assign[node_id])
        row = self.members[cluster]
        hits = np.flatnonzero(row == node_id)
        if hits.size == 0:
            raise TopologyError(f"node {node_id} is not a member slot")
        return cluster, int(hits[0])


def _lattice_field(
    cluster_count: int,
    members_per_cluster: int,
    radius: float,
    spacing_factor: float,
    rng: np.random.Generator,
) -> tuple:
    """``(cols, spacing, hx, hy, mx, my)``: the validated lattice, head
    and member coordinates bit-identical to the scalar path.

    Applies :func:`~repro.topology.generators.multi_cluster_field`'s
    field checks, so both engines reject the same configs with the same
    typed error.
    """
    check_int_at_least("cluster_count", cluster_count, 1)
    check_int_at_least("members_per_cluster", members_per_cluster, 1)
    check_positive("radius", radius)
    if not 1.0 < spacing_factor < 2.0:
        raise TopologyError(
            "spacing_factor must be in (1, 2) so disks overlap without "
            f"CHs being mutual neighbors; got {spacing_factor}"
        )
    cols = max(1, int(math.ceil(math.sqrt(cluster_count))))
    spacing = spacing_factor * radius
    idx = np.arange(cluster_count, dtype=np.int64)
    hx = (idx % cols).astype(np.float64) * spacing
    hy = (idx // cols).astype(np.float64) * spacing
    count = cluster_count * members_per_cluster
    u = rng.random(2 * count)
    rr = radius * np.sqrt(u[0::2])
    theta = 2.0 * math.pi * u[1::2]
    disk = np.arange(count, dtype=np.int64) // members_per_cluster
    mx = hx[disk] + rr * np.cos(theta)
    my = hy[disk] + rr * np.sin(theta)
    return cols, spacing, hx, hy, mx, my


def _assign_members(
    mx: np.ndarray,
    my: np.ndarray,
    spacing: float,
    radius: float,
    cols: int,
    cluster_count: int,
) -> np.ndarray:
    """Lowest-ID head within radius, per member node.

    Spacing > radius bounds the per-axis offset of any in-range head to
    less than one lattice pitch, so the candidates are the four corners
    of the lattice cell containing the node.
    """
    rows_total = (cluster_count + cols - 1) // cols
    c0 = np.floor(mx / spacing).astype(np.int64)
    r0 = np.floor(my / spacing).astype(np.int64)
    best = np.full(mx.shape, np.iinfo(np.int64).max, dtype=np.int64)
    r2 = radius * radius
    for dr in (0, 1):
        for dc in (0, 1):
            col = c0 + dc
            row = r0 + dr
            head = row * cols + col
            valid = (
                (col >= 0)
                & (col < cols)
                & (row >= 0)
                & (row < rows_total)
                & (head < cluster_count)
            )
            dx = mx - col.astype(np.float64) * spacing
            dy = my - row.astype(np.float64) * spacing
            hit = valid & (dx * dx + dy * dy <= r2)
            best = np.where(hit & (head < best), head, best)
    if np.any(best == np.iinfo(np.int64).max):  # pragma: no cover - by
        # construction every member lies within its own disk's head range
        raise TopologyError("member with no head in range")
    return best


#: Cells per float64 scratch buffer of :func:`_fill_adjacency` (256 KiB
#: each; throughput measured flat from 16 K to 128 K cells).
_ADJACENCY_BLOCK_CELLS = 32_768


def _fill_adjacency(
    out: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    radius: float,
    keep_dist: bool = False,
) -> Optional[np.ndarray]:
    """Member<->member adjacency per cluster, written straight into ``out``.

    ``px``/``py`` are NaN at pad slots, so pads compare adjacent to
    nothing.  Blocks of whole clusters go through two scratch buffers of
    ``_ADJACENCY_BLOCK_CELLS`` (or one cluster's ``M * M``) float64:
    beyond ``out`` and the optional float32 distances, nothing of size
    ``C * M * M`` is allocated.
    """
    c, m = px.shape
    dist = np.zeros((c, m, m), dtype=np.float32) if keep_dist else None
    if m == 0:
        return dist
    block = max(1, _ADJACENCY_BLOCK_CELLS // (m * m))
    d2_buf = np.empty((block, m, m))
    dy_buf = np.empty((block, m, m))
    r2 = radius * radius
    di = np.arange(m)
    for lo in range(0, c, block):
        hi = min(c, lo + block)
        d2, dy = d2_buf[: hi - lo], dy_buf[: hi - lo]
        # float64 throughout: the equivalence tests compare against the
        # graph's float64 edge predicate, so no rounding at the boundary.
        np.subtract(px[lo:hi, :, None], px[lo:hi, None, :], out=d2)
        np.multiply(d2, d2, out=d2)
        np.subtract(py[lo:hi, :, None], py[lo:hi, None, :], out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(d2, dy, out=d2)
        np.less_equal(d2, r2, out=out[lo:hi])
        out[lo:hi, di, di] = False
        if dist is not None:
            dist[lo:hi] = np.sqrt(d2, out=d2)
    return dist


def lattice_positions(
    cluster_count: int,
    members_per_cluster: int,
    radius: float,
    rng: np.random.Generator,
    spacing_factor: float = 1.6,
) -> tuple:
    """``(xs, ys)`` of the whole lattice field, heads first.

    Bit-identical to :func:`~repro.topology.generators.
    multi_cluster_field` under the same ``stream("placement")``
    generator -- the coordinate source for protocol formation, which
    needs raw positions rather than the oracle's pre-assigned layout.
    """
    _, _, hx, hy, mx, my = _lattice_field(
        cluster_count, members_per_cluster, radius, spacing_factor, rng
    )
    return np.concatenate([hx, mx]), np.concatenate([hy, my])


def build_array_layout(
    cluster_count: int,
    members_per_cluster: int,
    radius: float,
    rng: np.random.Generator,
    spacing_factor: float = 1.6,
    deputy_count: int = 2,
    max_backups: int = 2,
    keep_pair_dist: bool = False,
) -> ArrayLayout:
    """Build the full array layout (see module docstring)."""
    cols, spacing, hx, hy, mx, my = _lattice_field(
        cluster_count, members_per_cluster, radius, spacing_factor, rng
    )
    node_count = cluster_count + mx.size
    xs = np.concatenate([hx, mx])
    ys = np.concatenate([hy, my])

    assign = np.empty(node_count, dtype=np.int64)
    assign[:cluster_count] = np.arange(cluster_count)
    assign[cluster_count:] = _assign_members(
        mx, my, spacing, radius, cols, cluster_count
    )

    counts = np.bincount(assign[cluster_count:], minlength=cluster_count)
    max_m = int(counts.max()) if counts.size else 0
    members = np.full((cluster_count, max_m), PAD, dtype=np.int64)
    member_mask = np.zeros((cluster_count, max_m), dtype=bool)
    member_ids = np.arange(cluster_count, node_count, dtype=np.int64)
    order = np.argsort(assign[cluster_count:], kind="stable")
    sorted_ids = member_ids[order]
    sorted_cl = assign[cluster_count:][order]
    starts = np.zeros(cluster_count + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    slot = np.arange(sorted_ids.size, dtype=np.int64) - starts[sorted_cl]
    members[sorted_cl, slot] = sorted_ids
    member_mask[sorted_cl, slot] = True

    px = np.where(member_mask, xs[np.where(members >= 0, members, 0)], np.nan)
    py = np.where(member_mask, ys[np.where(members >= 0, members, 0)], np.nan)
    head_dx = px - hx[:, None]
    head_dy = py - hy[:, None]
    head_dist = np.where(
        member_mask, np.sqrt(head_dx * head_dx + head_dy * head_dy), np.inf
    )

    adjacency = np.zeros((cluster_count, max_m, max_m), dtype=bool)
    with np.errstate(invalid="ignore"):
        pair_dist = _fill_adjacency(
            adjacency, px, py, radius, keep_dist=keep_pair_dist
        )

    # Deputy ranking: (distance-to-head asc, in-cluster degree desc, NID).
    # In-cluster degree counts neighbors within the member set *plus* the
    # head (every member is inside its head's disk, hence adjacent).
    degree = adjacency.sum(axis=2) + member_mask.astype(np.int64)
    ids_for_sort = np.where(member_mask, members, np.iinfo(np.int64).max)
    # Per-cluster slot order, best deputy first (pads sort last via inf).
    rank = np.lexsort((ids_for_sort, -degree, head_dist), axis=-1)
    deputies = np.full((cluster_count, deputy_count), PAD, dtype=np.int64)
    deputy_slots = np.full((cluster_count, deputy_count), PAD, dtype=np.int64)
    if max_m and deputy_count:
        for j in range(min(deputy_count, max_m)):
            slot_j = rank[:, j]
            ok = member_mask[np.arange(cluster_count), slot_j]
            deputy_slots[:, j] = np.where(ok, slot_j, PAD)
            deputies[:, j] = np.where(
                ok, members[np.arange(cluster_count), slot_j], PAD
            )

    b_owner, b_peer, b_slots = _build_boundaries(
        cluster_count, cols, spacing, radius, hx, hy, px, py,
        member_mask, members, head_dist, max_backups,
    )

    return ArrayLayout(
        cluster_count=cluster_count,
        node_count=node_count,
        radius=radius,
        xs=xs,
        ys=ys,
        assign=assign,
        members=members,
        member_mask=member_mask,
        member_counts=counts.astype(np.int64),
        adjacency=adjacency,
        head_dist=head_dist,
        deputies=deputies,
        deputy_slots=deputy_slots,
        boundary_owner=b_owner,
        boundary_peer=b_peer,
        boundary_gateway_slots=b_slots,
        pair_dist=pair_dist,
    )


def _build_boundaries(
    cluster_count: int,
    cols: int,
    spacing: float,
    radius: float,
    hx: np.ndarray,
    hy: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    member_mask: np.ndarray,
    members: np.ndarray,
    head_dist: np.ndarray,
    max_backups: int,
) -> tuple:
    """Ordered boundaries with ranked gateways (gateways.py rank key).

    A boundary owner->peer exists iff some owner member lies within
    radius of the peer head.  Peer heads more than one lattice cell away
    sit at distance >= 2*spacing > 2*radius from the owner center, so no
    owner member can reach them: the 8 surrounding cells are exhaustive.
    Per boundary the top ``1 + max_backups`` candidates are kept --
    primary gateway plus the BGW ladder the event layout falls back to
    when the primary is dead or uninformed.
    """
    if members.shape[1] == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), np.zeros((0, 1 + max_backups), np.int64)
    rows_total = (cluster_count + cols - 1) // cols
    idx = np.arange(cluster_count, dtype=np.int64)
    own_col = idx % cols
    own_row = idx // cols
    owners = []
    peers = []
    slots = []
    r2 = radius * radius
    arange_c = idx
    gw_count = 1 + max_backups
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            pcol = own_col + dc
            prow = own_row + dr
            peer = prow * cols + pcol
            valid = (
                (pcol >= 0)
                & (pcol < cols)
                & (prow >= 0)
                & (prow < rows_total)
                & (peer < cluster_count)
            )
            if not valid.any():
                continue
            phx = hx[np.where(valid, peer, 0)][:, None]
            phy = hy[np.where(valid, peer, 0)][:, None]
            with np.errstate(invalid="ignore"):
                d2 = (px - phx) ** 2 + (py - phy) ** 2
                cand = member_mask & (d2 <= r2) & valid[:, None]
                # Rank key: (max of the two head distances, NID).  Slots
                # are NID-ascending, so a stable argsort over the
                # worst-link distance yields the GW + BGW ladder order.
                worst = np.maximum(head_dist, np.sqrt(d2))
            worst = np.where(cand, worst, np.inf)
            has = cand.any(axis=1)
            rank = np.argsort(worst, axis=1, kind="stable")[:, :gw_count]
            ranked_ok = np.take_along_axis(worst, rank, axis=1) < np.inf
            ranked = np.where(ranked_ok, rank, PAD)
            for c in arange_c[has]:
                owners.append(int(c))
                peers.append(int(peer[c]))
                slots.append(ranked[c])
    if not owners:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), np.zeros((0, gw_count), dtype=np.int64)
    order = np.lexsort((np.asarray(peers), np.asarray(owners)))
    return (
        np.asarray(owners, dtype=np.int64)[order],
        np.asarray(peers, dtype=np.int64)[order],
        np.asarray(slots, dtype=np.int64)[order],
    )
