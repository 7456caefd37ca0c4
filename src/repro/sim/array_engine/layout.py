"""The array layout pipeline: the one oracle clustering.

Every geometric (oracle) cluster structure in the code base is built
here, as flat arrays; :func:`repro.cluster.geometric.build_clusters`
reads its :class:`~repro.cluster.state.ClusterLayout` off this pipeline
through :meth:`ArrayLayout.cluster_layout`.  Two partition steps feed
one assembly:

- **Any positions** (:func:`geometric_layout`): the iterative lowest-ID
  partition as per-pass minimum reductions over the unit-disk edge list
  (:func:`~repro.topology.graph.build_unit_disk_edges`), and gateway
  candidates read off the edges (member of the owner -> foreign head).
- **The** ``multi_cluster_field`` **lattice** (:func:`build_array_layout`),
  whose field-wide edge list would outweigh the layout: placement is
  :func:`~repro.topology.generators.draw_lattice`, the one draw behind
  :func:`~repro.topology.generators.multi_cluster_field`, and the
  partition is O(N) lattice arithmetic:
  lattice CHs are pairwise non-adjacent (spacing in ``(r, 2r)``) and
  carry the lowest NIDs, so every member joins the lowest-ID lattice
  head within radio range among the four corners of its cell.  Gateway
  candidates come from the 8 surrounding cells.

Both (and protocol formation's
:func:`~repro.sim.array_engine.formation.formation_array_layout`) share
:func:`_member_slots`; the two oracles share the deputy ranking
(distance to head, in-cluster degree descending, NID) and the gateway
ranking (the larger of the two head distances, NID).  The general path
ranks by ``math.hypot`` distances, like the scalar reference walker
that now lives in the tests (``tests/cluster_reference.py``);
``tests/test_array_engine.py`` pins the lattice path against
:func:`build_clusters`.

The only O(C * M^2) pass, the member<->member adjacency
(:func:`_fill_adjacency`), runs in cache-sized blocks of whole clusters
through two in-place scratch buffers: the one-expression form's
arithmetic without its field-sized temporaries
(``tests/test_array_kernels.py`` checks both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.state import ClusterLayout, LocalClusterView
from repro.errors import TopologyError
from repro.topology.generators import draw_lattice
from repro.topology.graph import UnitDiskEdges, UnitDiskGraph
from repro.types import NodeId, NodeRole

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
    #: Node positions, indexed by node (the NID, except on a graph's
    #: layout: see :meth:`cluster_layout`).
    xs: np.ndarray
    ys: np.ndarray
    #: Cluster index of every node, ``PAD`` if unclustered.
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
    #: Cluster index -> head node.  ``None`` means the lattice identity
    #: (head ``c`` is node ``c``); :func:`geometric_layout` and
    #: :func:`~repro.sim.array_engine.formation.formation_array_layout`
    #: carry arbitrary heads here.
    head_ids: Optional[np.ndarray] = None

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

    def local_views(
        self, nid_of: Optional[Sequence[int]] = None
    ) -> Dict[NodeId, LocalClusterView]:
        """Every node's :class:`LocalClusterView` keyed by NID (index
        ``i`` is NID ``nid_of[i]``, ``i`` by default): the one derivation
        of roles and duties.  Role precedence is CH > GW > BGW > DCH > OM
        (a deputy on a ladder reports its gateway role), UNMARKED for an
        unclustered node; ``gateway_duties`` map peer head -> (ladder
        rank, backup count), ``head_boundaries`` peer head -> ladder
        length."""
        nid_of = range(self.node_count) if nid_of is None else nid_of
        heads = [nid_of[h] for h in self.head_nids.tolist()]
        rows = [
            [nid_of[m] for m in row[:count]]
            for row, count in zip(
                self.members.tolist(), self.member_counts.tolist()
            )
        ]
        duties: Dict[NodeId, Dict[NodeId, Tuple[int, int]]] = {}
        ladder_lengths: List[Dict[NodeId, int]] = [{} for _ in heads]
        for owner, peer, slots in zip(
            self.boundary_owner.tolist(),
            self.boundary_peer.tolist(),
            self.boundary_gateway_slots.tolist(),
        ):
            ladder = [rows[owner][s] for s in slots if s != PAD]
            ladder_lengths[owner][heads[peer]] = len(ladder)
            for rank, nid in enumerate(ladder):
                duties.setdefault(nid, {})[heads[peer]] = (rank, len(ladder) - 1)
        views: Dict[NodeId, LocalClusterView] = {}
        for head, row, deputy_row, lengths in zip(
            heads, rows, self.deputies.tolist(), ladder_lengths
        ):
            members = frozenset((head, *row))
            deputies = tuple(nid_of[d] for d in deputy_row if d != PAD)
            views[head] = LocalClusterView(
                head, NodeRole.CH, head, members, deputies,
                head_boundaries=lengths,
            )
            for nid in row:
                own = duties.get(nid, {})
                if any(rank == 0 for rank, _n in own.values()):
                    role = NodeRole.GW
                elif own:
                    role = NodeRole.BGW
                elif nid in deputies:
                    role = NodeRole.DCH
                else:
                    role = NodeRole.OM
                views[nid] = LocalClusterView(
                    nid, role, head, members, deputies, gateway_duties=own
                )
        for i in np.flatnonzero(self.assign == PAD).tolist():
            nid = nid_of[i]
            views[nid] = LocalClusterView(
                nid, NodeRole.UNMARKED, nid, frozenset({nid}), ()
            )
        return views

    def cluster_layout(
        self, graph: Optional[UnitDiskGraph] = None
    ) -> ClusterLayout:
        """The NID-keyed :class:`ClusterLayout` view: index ``i`` is NID
        ``graph.nodes()[i]`` (checked against the graph) or ``i``."""
        return ClusterLayout(self, graph)

    def mismatches(self, other: "ArrayLayout") -> List[str]:
        """Names of the fields (arrays by dtype and value) on which
        ``other`` differs; empty iff the two layouts are identical."""

        def same(a: Any, b: Any) -> bool:
            if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
                return a.dtype == b.dtype and np.array_equal(a, b)
            return type(a) is type(b) and a == b

        return [
            f.name for f in fields(self)
            if not same(getattr(self, f.name), getattr(other, f.name))
        ]


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

    The coordinates :func:`~repro.topology.generators.
    multi_cluster_field` places from the same generator (both are
    :func:`~repro.topology.generators.draw_lattice`'s) -- the coordinate
    source for protocol formation, which needs raw positions rather than
    the oracle's pre-assigned layout.
    """
    _, _, hx, hy, mx, my = draw_lattice(
        cluster_count, members_per_cluster, radius, rng, spacing_factor
    )
    return np.concatenate([hx, mx]), np.concatenate([hy, my])


def _member_slots(
    xs: np.ndarray,
    ys: np.ndarray,
    radius: float,
    assign: np.ndarray,
    head_ids: np.ndarray,
    keep_pair_dist: bool = False,
) -> Tuple[Dict[str, Any], np.ndarray]:
    """The member-slot fields of an :class:`ArrayLayout`, and ``slot_of``.

    ``assign`` is every node's cluster index (``PAD`` = unclustered) and
    ``head_ids`` the heads' NIDs by cluster index.  Returns the
    ``members``, ``member_mask``, ``member_counts``, ``adjacency``,
    ``head_dist`` and ``pair_dist`` fields, with slots NID-ascending,
    plus each node's member slot (``PAD`` for heads and unclustered
    nodes).
    """
    n, c = int(xs.size), int(head_ids.size)
    is_member = assign != PAD
    is_member[head_ids] = False
    member_nids = np.flatnonzero(is_member)
    member_cl = assign[member_nids]
    counts = np.bincount(member_cl, minlength=c).astype(np.int64)
    max_m = int(counts.max()) if c else 0
    members = np.full((c, max_m), PAD, dtype=np.int64)
    member_mask = np.zeros((c, max_m), dtype=bool)
    order = np.argsort(member_cl, kind="stable")
    sorted_ids = member_nids[order]
    sorted_cl = member_cl[order]
    starts = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    slot = np.arange(sorted_ids.size, dtype=np.int64) - starts[sorted_cl]
    members[sorted_cl, slot] = sorted_ids
    member_mask[sorted_cl, slot] = True
    slot_of = np.full(n, PAD, dtype=np.int64)
    slot_of[sorted_ids] = slot

    safe = np.where(member_mask, members, 0)
    px = np.where(member_mask, xs[safe], np.nan)
    py = np.where(member_mask, ys[safe], np.nan)
    head_dx = px - xs[head_ids][:, None]
    head_dy = py - ys[head_ids][:, None]
    head_dist = np.where(
        member_mask, np.sqrt(head_dx * head_dx + head_dy * head_dy), np.inf
    )
    adjacency = np.zeros((c, max_m, max_m), dtype=bool)
    with np.errstate(invalid="ignore"):
        pair_dist = _fill_adjacency(
            adjacency, px, py, radius, keep_dist=keep_pair_dist
        )
    fields = dict(
        members=members,
        member_mask=member_mask,
        member_counts=counts,
        adjacency=adjacency,
        head_dist=head_dist,
        pair_dist=pair_dist,
    )
    return fields, slot_of


def _rank_deputies(
    fields: Dict[str, Any], dist: np.ndarray, deputy_count: int
) -> Dict[str, np.ndarray]:
    """``deputies`` / ``deputy_slots``: per cluster the top
    ``deputy_count`` members by (``dist`` to the head ascending,
    in-cluster degree descending, NID).  In-cluster degree counts
    neighbors within the member set *plus* the head (every member is
    inside its head's disk, hence adjacent)."""
    members, member_mask = fields["members"], fields["member_mask"]
    c, max_m = members.shape
    degree = fields["adjacency"].sum(axis=2) + member_mask.astype(np.int64)
    ids_for_sort = np.where(member_mask, members, np.iinfo(np.int64).max)
    # Per-cluster slot order, best deputy first (pads sort last via inf).
    rank = np.lexsort((ids_for_sort, -degree, dist), axis=-1)
    deputies = np.full((c, deputy_count), PAD, dtype=np.int64)
    deputy_slots = np.full((c, deputy_count), PAD, dtype=np.int64)
    rows = np.arange(c)
    for j in range(min(deputy_count, max_m)):
        slot_j = rank[:, j]
        ok = member_mask[rows, slot_j]
        deputy_slots[:, j] = np.where(ok, slot_j, PAD)
        deputies[:, j] = np.where(ok, members[rows, slot_j], PAD)
    return dict(deputies=deputies, deputy_slots=deputy_slots)


def _rank_boundaries(
    owner: np.ndarray,
    peer: np.ndarray,
    slot: np.ndarray,
    key: np.ndarray,
    gw_count: int,
) -> Dict[str, np.ndarray]:
    """The boundary fields from flat gateway candidates.

    Candidate ``i`` is member slot ``slot[i]`` of cluster ``owner[i]``,
    able to reach the head of cluster ``peer[i]``.  Per (owner, peer)
    pair the candidates rank by (``key``, slot) -- slots are
    NID-ascending, so slot is the NID tiebreak -- and the first
    ``gw_count`` form the GW + BGW ladder.
    """
    order = np.lexsort((slot, key, peer, owner))
    owner, peer, slot = owner[order], peer[order], slot[order]
    new = np.ones(owner.size, dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (peer[1:] != peer[:-1])
    group = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    rank = np.arange(owner.size) - starts[group]
    keep = rank < gw_count
    slots = np.full((starts.size, gw_count), PAD, dtype=np.int64)
    slots[group[keep], rank[keep]] = slot[keep]
    return dict(
        boundary_owner=owner[starts],
        boundary_peer=peer[starts],
        boundary_gateway_slots=slots,
    )


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.hypot`, the scalar reference's distance
    (``np.hypot`` and ``sqrt(dx*dx + dy*dy)`` can round differently)."""
    flat = map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist())
    return np.fromiter(flat, np.float64, dx.size).reshape(dx.shape)


def _lowest_id_partition(edges: UnitDiskEdges) -> Tuple[np.ndarray, np.ndarray]:
    """``(assign, head_ids)``: the iterative lowest-ID partition.

    Each pass, every unmarked node whose unmarked neighbors all have
    higher NIDs becomes a head, and every other unmarked node adjacent to
    a new head joins the lowest one; passes repeat until every node is
    marked.  Nodes without neighbors stay unclustered (``PAD``).  Node
    index order is NID order.
    """
    n = edges.node_count
    ids = np.arange(n, dtype=np.int64)
    owner = np.full(n, PAD, dtype=np.int64)
    unmarked = np.diff(edges.out_indptr) > 0
    while unmarked.any():
        heads = unmarked & (edges.min_flagged_src(unmarked[edges.src]) > ids)
        nearest = edges.min_flagged_src(heads[edges.src])
        joins = unmarked & ~heads & (nearest < n)
        owner[heads] = ids[heads]
        owner[joins] = nearest[joins]
        unmarked &= ~(heads | joins)
    head_ids = np.flatnonzero(owner == ids)
    cl_of = np.full(n, PAD, dtype=np.int64)
    cl_of[head_ids] = np.arange(head_ids.size, dtype=np.int64)
    assign = np.where(owner != PAD, cl_of[owner], PAD)
    return assign, head_ids


def geometric_layout(
    xs: np.ndarray,
    ys: np.ndarray,
    radius: float,
    edges: UnitDiskEdges,
    deputy_count: int,
    max_backups: int,
) -> ArrayLayout:
    """The oracle layout of any field, from its unit-disk edge list.

    Heads carry their node index in ``head_ids``.  Deputies and gateways
    rank by ``math.hypot`` distances (see module docstring); a gateway
    candidate is any edge from a member of one cluster to the head of
    another.
    """
    assign, head_ids = _lowest_id_partition(edges)
    fields, slot_of = _member_slots(xs, ys, radius, assign, head_ids)
    members, member_mask = fields["members"], fields["member_mask"]
    safe = np.where(member_mask, members, 0)
    hx, hy = xs[head_ids], ys[head_ids]
    dist = np.where(
        member_mask, _hypot(xs[safe] - hx[:, None], ys[safe] - hy[:, None]), np.inf
    )
    is_head = np.zeros(xs.size, dtype=bool)
    is_head[head_ids] = True
    src, dst = edges.src, edges.dst
    cand = np.flatnonzero(is_head[dst] & (slot_of[src] != PAD))
    src, dst = src[cand], dst[cand]
    owner, peer = assign[src], assign[dst]
    src, dst, owner, peer = (a[owner != peer] for a in (src, dst, owner, peer))
    worst = np.maximum(
        _hypot(xs[src] - hx[owner], ys[src] - hy[owner]),
        _hypot(xs[src] - xs[dst], ys[src] - ys[dst]),
    )
    return ArrayLayout(
        cluster_count=int(head_ids.size),
        node_count=int(xs.size),
        radius=radius,
        xs=xs,
        ys=ys,
        assign=assign,
        head_ids=head_ids,
        **fields,
        **_rank_deputies(fields, dist, deputy_count),
        **_rank_boundaries(owner, peer, slot_of[src], worst, 1 + max_backups),
    )


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
    """The oracle layout of the ``multi_cluster_field`` lattice (see
    module docstring); heads are NIDs ``0..C-1``."""
    cols, spacing, hx, hy, mx, my = draw_lattice(
        cluster_count, members_per_cluster, radius, rng, spacing_factor
    )
    xs = np.concatenate([hx, mx])
    ys = np.concatenate([hy, my])
    assign = np.empty(xs.size, dtype=np.int64)
    assign[:cluster_count] = np.arange(cluster_count)
    assign[cluster_count:] = _assign_members(
        mx, my, spacing, radius, cols, cluster_count
    )
    fields, _ = _member_slots(
        xs, ys, radius, assign, np.arange(cluster_count), keep_pair_dist
    )
    return ArrayLayout(
        cluster_count=cluster_count,
        node_count=int(xs.size),
        radius=radius,
        xs=xs,
        ys=ys,
        assign=assign,
        **fields,
        **_rank_deputies(fields, fields["head_dist"], deputy_count),
        **_rank_boundaries(
            *_lattice_gateway_candidates(
                cluster_count, cols, spacing, radius, xs, ys, fields
            ),
            1 + max_backups,
        ),
    )


def _lattice_gateway_candidates(
    cluster_count: int,
    cols: int,
    spacing: float,
    radius: float,
    xs: np.ndarray,
    ys: np.ndarray,
    fields: Dict[str, Any],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(owner, peer, slot, worst)`` of every lattice gateway candidate.

    A candidate is a member within radius of a foreign head.  Peer heads
    more than one lattice cell away sit at distance >= 2*spacing >
    2*radius from the owner center, so no owner member can reach them:
    the 8 surrounding cells are exhaustive.  ``worst`` is the larger of
    the member's two head distances.
    """
    members, member_mask = fields["members"], fields["member_mask"]
    head_dist = fields["head_dist"]
    safe = np.where(member_mask, members, 0)
    px = np.where(member_mask, xs[safe], np.nan)
    py = np.where(member_mask, ys[safe], np.nan)
    rows_total = (cluster_count + cols - 1) // cols
    idx = np.arange(cluster_count, dtype=np.int64)
    own_col = idx % cols
    own_row = idx // cols
    r2 = radius * radius
    found: List[Tuple[np.ndarray, ...]] = []
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
            phx = xs[np.where(valid, peer, 0)][:, None]
            phy = ys[np.where(valid, peer, 0)][:, None]
            with np.errstate(invalid="ignore"):
                d2 = (px - phx) ** 2 + (py - phy) ** 2
                cand = member_mask & (d2 <= r2) & valid[:, None]
            owner, slot = np.nonzero(cand)
            worst = np.maximum(head_dist[owner, slot], np.sqrt(d2[owner, slot]))
            found.append((owner, peer[owner], slot, worst))
    if not found:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(0)
    return tuple(np.concatenate(parts) for parts in zip(*found))
