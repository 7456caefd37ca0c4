"""Unit-disk graph over a placement.

The paper models the network as ``G = (V, E)`` where an edge connects nodes
within transmission range of each other (Section 2.3).  This module holds
the one range test of the code base, :func:`build_unit_disk_edges`
(``dx*dx + dy*dy <= r*r``): the ground-truth :class:`UnitDiskGraph` (read
by topology analysis, the geometric cluster oracle, the metrics layer and
the rt substrate), the radio medium's neighbour tables and the array
formation all read their edges off it.  Protocol code must not consult
the graph; protocols learn the topology only by listening.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.types import NodeId
from repro.util.geometry import Vec2
from repro.util.validation import check_positive

_BIG = np.iinfo(np.int64).max


class UnitDiskEdges:
    """The directed unit-disk edge list of a field, in canonical order.

    Edges are every ordered pair ``(src, dst)`` with ``src != dst`` and
    ``dx*dx + dy*dy <= radius**2``, sorted by ``(src, dst)``: a pure
    function of the positions and the radius.
    :func:`build_unit_disk_edges` finds them with a half stencil of grid
    cells (own cell plus 4 forward cells, so each unordered pair is
    tested once) in candidate blocks of at most :data:`_CANDIDATE_BLOCK`
    pairs.  The set is symmetric, so in-degrees equal out-degrees
    (:attr:`in_indptr` *is* :attr:`out_indptr`) and :attr:`rev`, which
    maps each edge to its reverse, doubles as the in-edge order the
    per-receiver reductions read their flags in (see ``__init__``).
    """

    def __init__(
        self,
        node_count: int,
        src: np.ndarray,
        dst: np.ndarray,
        dist: np.ndarray,
    ) -> None:
        self.node_count = int(node_count)
        self.src = src
        self.dst = dst
        self.dist = dist
        self.edge_count = int(src.size)
        n = self.node_count
        self.out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.out_indptr[1:])
        self.in_indptr = self.out_indptr
        # Edges sorted by (dst, src).  By symmetry of the edge set this
        # permutation is an involution and doubles as the reverse-edge
        # map: the j-th edge in (dst, src) order carries the pair
        # (dst=s_j, src=d_j), i.e. it *is* the reverse of canonical edge
        # j, so rev[j] = perm[j] and in-edge segments of a node list its
        # sources in ascending order.  The keys are distinct, so any
        # sort gives this one permutation.
        perm = np.argsort(dst * n + src)
        self.rev = perm
        self.in_order = perm

    def out_slice(self, node: int) -> slice:
        return slice(int(self.out_indptr[node]), int(self.out_indptr[node + 1]))

    def out_edges(self, nodes: np.ndarray) -> np.ndarray:
        """The out-edges of ascending ``nodes``, in ascending edge order
        (the positions an ``(E,)`` mask of those edges would hold)."""
        starts = self.out_indptr[nodes]
        lengths = self.out_indptr[nodes + 1] - starts
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return np.arange(shift.size, dtype=np.int64) + shift

    def _first_flagged(self, flags: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per node, whether any in-edge is flagged, and the in-order
        position of the first flagged one: the first flagged position at
        or after the segment start, a hit iff before the segment end.  A
        flagged sentinel past the last segment keeps the search in bounds.
        """
        in_flags = np.append(flags[self.in_order], True)
        flagged = np.flatnonzero(in_flags)
        first = flagged[np.searchsorted(flagged, self.in_indptr[:-1])]
        return first < self.in_indptr[1:], first

    def first_flagged_in_edge(self, flags: np.ndarray) -> np.ndarray:
        """Per node, the flagged in-edge with the lowest source NID.

        ``flags`` is an ``(E,)`` bool mask; returns an ``(N,)`` int64
        array of edge indices, ``-1`` where no in-edge is flagged.
        In-edge segments are src-ascending, so the first flagged position
        in a segment is the minimum-NID sender -- exactly the
        ``min(heard)`` / ``any(h < my_id)`` reductions of the event
        protocol.
        """
        hit, first = self._first_flagged(flags)
        out = np.full(self.node_count, -1, dtype=np.int64)
        out[hit] = self.in_order[first[hit]]
        return out

    def min_flagged_src(self, flags: np.ndarray) -> np.ndarray:
        """Per node, the lowest source NID among flagged in-edges.

        ``_BIG`` where no in-edge is flagged.  In-order position ``p``
        holds the reverse of canonical edge ``p``, whose source is
        ``dst[p]``.
        """
        hit, first = self._first_flagged(flags)
        out = np.full(self.node_count, _BIG, dtype=np.int64)
        out[hit] = self.dst[first[hit]]
        return out


#: The forward half of a cell's 3x3 neighborhood, as ``(dy, dx)``: one
#: cell's backward half is its neighbors' forward half.
_FORWARD_CELLS = ((0, 1), (1, -1), (1, 0), (1, 1))

#: Candidate pairs per block of :func:`build_unit_disk_edges` (more only
#: to hold one node's candidates); ~50 bytes of temporaries each.
_CANDIDATE_BLOCK = 1 << 19

#: Cells are this much wider than the radius, so that rounding in the
#: cell index cannot put two nodes in range of each other two cells
#: apart (exhaustive while coordinates stay within ~10**6 radii).
_CELL_SLACK = 1e-9


def build_unit_disk_edges(
    xs: np.ndarray, ys: np.ndarray, radius: float
) -> UnitDiskEdges:
    """Build the canonical directed unit-disk edge list of a field.

    Each node tests the nodes after it in its own cell and those of its
    4 forward cells; each kept pair is emitted in both directions, as
    ``dx*dx + dy*dy <= r*r`` is exactly symmetric in IEEE arithmetic
    (``a - b == -(b - a)``).  One sort of ``src * N + dst`` keys puts
    the edges in canonical order.
    """
    n = int(xs.size)
    if n <= 1:
        empty = np.zeros(0, dtype=np.int64)
        return UnitDiskEdges(n, empty, empty.copy(), np.zeros(0, np.float64))
    inv = 1.0 / (float(radius) * (1.0 + _CELL_SLACK))
    cx = np.floor(xs * inv).astype(np.int64)
    cy = np.floor(ys * inv).astype(np.int64)
    cx -= cx.min()
    cy -= cy.min()
    # One empty column past the widest row: dx = +-1 never wraps a row.
    stride = int(cx.max()) + 2
    cell = cy * stride + cx
    order = np.argsort(cell, kind="stable")
    skey = cell[order]
    sx, sy = xs[order], ys[order]
    # Per sorted position, the candidates' sorted positions
    # [left, left + count): the rest of its own cell, then each forward cell.
    left = np.empty((n, 1 + len(_FORWARD_CELLS)), dtype=np.int64)
    count = np.empty_like(left)
    left[:, 0] = np.arange(1, n + 1)
    count[:, 0] = np.searchsorted(skey, skey, side="right") - left[:, 0]
    for k, (dy, dx) in enumerate(_FORWARD_CELLS, start=1):
        nkey = skey + (dy * stride + dx)
        left[:, k] = np.searchsorted(skey, nkey, side="left")
        count[:, k] = np.searchsorted(skey, nkey, side="right") - left[:, k]
    per_node = count.sum(axis=1)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_node, out=offsets[1:])
    r2 = float(radius) * float(radius)
    keys: List[np.ndarray] = []
    lo = 0
    while lo < n:
        target = offsets[lo] + _CANDIDATE_BLOCK
        hi = int(np.searchsorted(offsets, target, side="right")) - 1
        hi = min(n, max(lo + 1, hi))
        cnt = count[lo:hi].ravel()
        a = np.repeat(np.arange(lo, hi, dtype=np.int64), per_node[lo:hi])
        b = np.repeat(left[lo:hi].ravel() - (np.cumsum(cnt) - cnt), cnt)
        b += np.arange(b.size, dtype=np.int64)
        # ddx*ddx + ddy*ddy, in place: the same roundings.
        ddx = sx[a]
        ddx -= sx[b]
        ddx *= ddx
        ddy = sy[a]
        ddy -= sy[b]
        ddy *= ddy
        ddx += ddy
        keep = ddx <= r2
        u, v = order[a[keep]], order[b[keep]]
        keys += [u * n + v, v * n + u]
        lo = hi
    key = np.concatenate(keys)
    del keys
    key.sort()
    src = key // n
    dst = key  # the key buffer becomes dst = key - src * n
    dst -= src * n
    dx = xs[src]
    dx -= xs[dst]
    dy = ys[src]
    dy -= ys[dst]
    return UnitDiskEdges(n, src, dst, np.hypot(dx, dy, out=dx))


def _index_field(
    positions: Mapping[NodeId, Vec2], radius: float
) -> Tuple[Tuple[NodeId, ...], np.ndarray, np.ndarray, UnitDiskEdges]:
    """``(nids, xs, ys, edges)``: the field in index space, where index
    ``i`` is the ``i``-th smallest NID (so index order is NID order)."""
    nids = tuple(sorted(positions))
    xs = np.array([positions[nid].x for nid in nids], dtype=np.float64)
    ys = np.array([positions[nid].y for nid in nids], dtype=np.float64)
    return nids, xs, ys, build_unit_disk_edges(xs, ys, radius)


def _neighbor_tuples(
    nids: Tuple[NodeId, ...], edges: UnitDiskEdges
) -> Dict[NodeId, Tuple[NodeId, ...]]:
    """Each NID's one-hop neighbours, ascending (out-edges are
    dst-ascending and index order is NID order)."""
    dst = np.asarray(nids, dtype=np.int64)[edges.dst].tolist()
    bounds = edges.out_indptr.tolist()
    return {
        nid: tuple(dst[bounds[i] : bounds[i + 1]]) for i, nid in enumerate(nids)
    }


def unit_disk_neighbors(
    positions: Mapping[NodeId, Vec2], radius: float
) -> Dict[NodeId, Tuple[NodeId, ...]]:
    """Every node's sorted one-hop neighbours under
    :func:`build_unit_disk_edges`; NIDs need not be contiguous."""
    nids, _, _, edges = _index_field(positions, radius)
    return _neighbor_tuples(nids, edges)


class UnitDiskGraph:
    """Immutable unit-disk graph built from positions and a range.

    The edges come from :func:`build_unit_disk_edges` over the nodes in
    NID order; neighbor lookups are O(1) after construction.
    """

    def __init__(self, positions: Mapping[NodeId, Vec2], radius: float) -> None:
        check_positive("radius", radius)
        if not positions:
            raise TopologyError("a graph needs at least one node")
        self._positions: Dict[NodeId, Vec2] = dict(positions)
        self._radius = float(radius)
        nids, xs, ys, edges = _index_field(self._positions, self._radius)
        self._field = (xs, ys, edges)
        self._adjacency = _neighbor_tuples(nids, edges)

    # ------------------------------------------------------------------
    @property
    def radius(self) -> float:
        """The shared transmission range."""
        return self._radius

    def field(self) -> Tuple[np.ndarray, np.ndarray, UnitDiskEdges]:
        """``(xs, ys, edges)`` in index space: index ``i`` is
        ``nodes()[i]``.  The arrays are shared; do not modify them."""
        return self._field

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._positions

    def nodes(self) -> Tuple[NodeId, ...]:
        """All NIDs, sorted."""
        return tuple(sorted(self._positions))

    def position(self, node_id: NodeId) -> Vec2:
        try:
            return self._positions[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id}") from None

    def positions(self) -> Dict[NodeId, Vec2]:
        """A copy of the position map."""
        return dict(self._positions)

    def neighbors(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """One-hop neighbors of ``node_id``, sorted."""
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id}") from None

    def degree(self, node_id: NodeId) -> int:
        return len(self.neighbors(node_id))

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Each undirected edge once, as ``(low, high)`` pairs."""
        for node_id, neigh in sorted(self._adjacency.items()):
            for other in neigh:
                if other > node_id:
                    yield (node_id, other)

    def edge_count(self) -> int:
        return sum(len(n) for n in self._adjacency.values()) // 2

    def distance(self, a: NodeId, b: NodeId) -> float:
        """Euclidean distance between two nodes."""
        return self.position(a).distance_to(self.position(b))

    def are_neighbors(self, a: NodeId, b: NodeId) -> bool:
        """Whether an edge connects ``a`` and ``b``."""
        return b in self._adjacency.get(a, ())

    def common_neighbors(self, a: NodeId, b: NodeId) -> Tuple[NodeId, ...]:
        """Nodes adjacent to both ``a`` and ``b`` (gateway candidates)."""
        return tuple(sorted(set(self.neighbors(a)) & set(self.neighbors(b))))

    def subgraph(self, node_ids: Iterable[NodeId]) -> "UnitDiskGraph":
        """The induced subgraph on ``node_ids``."""
        keep = set(node_ids)
        missing = keep - set(self._positions)
        if missing:
            raise TopologyError(f"unknown nodes in subgraph request: {sorted(missing)}")
        return UnitDiskGraph(
            {nid: self._positions[nid] for nid in keep}, self._radius
        )
