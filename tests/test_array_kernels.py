"""The array engine's blocked kernels against one-shot references.

``_fill_adjacency``, ``ArrayLossDraw.delivered`` / ``draw_into`` and
the unit-disk edge build stream through cache-sized blocks; each must
give, bit for bit, what the unblocked formulation gives -- same arrays,
same counters, and the random stream left at the same position.  The
graph and the radio medium read their neighbours off that edge build,
so they must give what the brute-force pair scan gives too.  The
formation's per-receiver reductions must give what a per-node loop
gives, and the inter-cluster scan on int bitmasks what the
per-crossing fixpoint on bool rows gives, draw for draw.  The
reference formulations live here and nowhere else.
"""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import ScenarioConfig, run_engine, scenario_config
from repro.fds.config import FdsConfig
from repro.sim.array_engine import layout as layout_module
from repro.sim.array_engine import loss as loss_module
from repro.sim.array_engine import rounds as rounds_module
from repro.sim.array_engine import runner as runner_module
from repro.sim.array_engine.formation import build_unit_disk_edges
from repro.sim.array_engine.layout import build_array_layout, lattice_positions
from repro.sim.array_engine.loss import ArrayLossDraw
from repro.sim.array_engine.rounds import ArrayRoundEngine
from repro.sim.array_engine.runner import ArrayEngine
from repro.sim.engine import Simulator
from repro.sim.medium import RadioMedium
from repro.sim.trace import NullTracer
from repro.topology import graph as graph_module
from repro.topology.graph import UnitDiskGraph
from repro.util.geometry import Vec2
from repro.util.rng import RngFactory

RADIUS = 100.0
CELLS = layout_module._ADJACENCY_BLOCK_CELLS
BLOCK = loss_module._DRAW_BLOCK


# ---------------------------------------------------------------------------
# (a) _fill_adjacency vs a per-pair float64 loop
# ---------------------------------------------------------------------------
def adjacency_reference(px, py, radius):
    """``dx*dx + dy*dy <= r*r`` pair by pair in Python floats (IEEE
    doubles, the kernel's arithmetic), pads (NaN) adjacent to nothing."""
    c, m = px.shape
    adjacency = np.zeros((c, m, m), dtype=bool)
    dist = np.zeros((c, m, m), dtype=np.float32)
    r2 = radius * radius
    for ci in range(c):
        xs, ys = px[ci].tolist(), py[ci].tolist()
        for i in range(m):
            for j in range(m):
                dx, dy = xs[i] - xs[j], ys[i] - ys[j]
                d2 = dx * dx + dy * dy
                adjacency[ci, i, j] = i != j and d2 <= r2
                dist[ci, i, j] = math.nan if math.isnan(d2) else math.sqrt(d2)
    return adjacency, dist


def ragged_field(c, m, seed):
    """Random member coordinates with NaN-padded ragged rows."""
    rng = np.random.default_rng(seed)
    px = rng.uniform(-RADIUS, RADIUS, (c, m))
    py = rng.uniform(-RADIUS, RADIUS, (c, m))
    counts = rng.integers(0, m + 1, c)
    pads = np.arange(m)[None, :] >= counts[:, None]
    px[pads] = np.nan
    py[pads] = np.nan
    return px, py


def fill(px, py, radius=RADIUS, keep_dist=False):
    c, m = px.shape
    out = np.zeros((c, m, m), dtype=bool)
    with np.errstate(invalid="ignore"):
        dist = layout_module._fill_adjacency(
            out, px, py, radius, keep_dist=keep_dist
        )
    return out, dist


@pytest.mark.parametrize("m", [1, 2, 127])
@pytest.mark.parametrize("edge", [None, -1, 0, 1])
def test_fill_adjacency_matches_pair_loop_around_block_edges(m, edge):
    block = max(1, CELLS // (m * m))
    c = 1 if edge is None else max(1, block + edge)
    px, py = ragged_field(c, m, seed=c + m)
    got, got_dist = fill(px, py, keep_dist=True)
    want, want_dist = adjacency_reference(px, py, RADIUS)
    np.testing.assert_array_equal(got, want)
    assert got_dist.dtype == np.float32
    np.testing.assert_array_equal(got_dist, want_dist)  # NaN == NaN here
    assert fill(px, py)[1] is None


def test_fill_adjacency_without_member_slots():
    out, dist = fill(np.zeros((3, 0)), np.zeros((3, 0)), keep_dist=True)
    assert out.shape == dist.shape == (3, 0, 0)
    assert fill(np.zeros((3, 0)), np.zeros((3, 0)))[1] is None


def test_fill_adjacency_radius_is_inclusive():
    # 3-4-5 triangle: d2 == r2 exactly in float64.
    px = np.array([[0.0, 30.0, 30.0 + 1e-9, np.nan]])
    py = np.array([[0.0, 40.0, 40.0, np.nan]])
    out, _ = fill(px, py, radius=50.0)
    assert out[0, 0, 1] and out[0, 1, 0]
    assert not out[0, 0, 2] and not out[0, 2, 0]
    assert not out[0, :, 3].any() and not out[0, 3, :].any()
    assert not out[0].diagonal().any()


# ---------------------------------------------------------------------------
# (b) blocked loss draws vs one rng.random(count) per call
# ---------------------------------------------------------------------------
class OneShotLossDraw(ArrayLossDraw):
    """The draws as they were before blocking: one ``rng.random(count)``
    per call, ``flatnonzero`` index gather/scatter."""

    def delivered(self, count, distances=None, chain=None, at=None):
        if count <= 0 or self.kind in ("perfect", "gilbert"):
            return super().delivered(count, distances, chain=chain, at=at)
        self.attempted += count
        if self.kind == "distance":
            p = self.model.loss_probabilities(distances)
            out = self.rng.random(count) >= p
            self.delivered_count += int(out.sum())
            return out
        p = self.model.p
        if p == 0.0:
            self.delivered_count += count
            return np.ones(count, dtype=bool)
        if self.kind == "bounded" and self.budget_left <= 0:
            self.delivered_count += count
            return np.ones(count, dtype=bool)
        if p == 1.0:
            lost = np.ones(count, dtype=bool)
        else:
            lost = self.rng.random(count) < p
        if self.kind == "bounded":
            idx = np.flatnonzero(lost)
            if idx.size > self.budget_left:
                lost[idx[self.budget_left:]] = False
                self.budget_left = 0
            else:
                self.budget_left -= int(idx.size)
        out = ~lost
        self.delivered_count += int(out.sum())
        return out

    def draw_into(self, active, distances=None, chain=None, at=None):
        if self.kind == "gilbert":
            out = np.zeros(active.shape, dtype=bool)
            flat = np.flatnonzero(active)
            if flat.size:
                self.attempted += int(flat.size)
                state = self._chain_view(chain, at, active.shape)
                gathered = state[at].copy() if at is not None else state
                s = gathered.ravel()[flat].copy()
                s, lost = self._gilbert_flat(int(flat.size), s)
                gathered.ravel()[flat] = s
                if at is not None:
                    state[at] = gathered
                out.ravel()[flat] = ~lost
                self.delivered_count += int((~lost).sum())
            return out
        out = np.zeros(active.shape, dtype=bool)
        flat = np.flatnonzero(active)
        if flat.size:
            d = None
            if distances is not None:
                d = np.asarray(distances).ravel()[flat]
            out.ravel()[flat] = self.delivered(int(flat.size), distances=d)
        return out


def loss_pair(kind, params, seed, p=0.1):
    return tuple(
        cls(kind, params, p, RADIUS, np.random.default_rng(seed))
        for cls in (ArrayLossDraw, OneShotLossDraw)
    )


def assert_same_state(new, ref):
    assert (new.attempted, new.delivered_count, new.budget_left) == (
        ref.attempted, ref.delivered_count, ref.budget_left,
    )
    assert sorted(new._chains) == sorted(ref._chains)
    for name, state in new._chains.items():
        np.testing.assert_array_equal(state, ref._chains[name])


def assert_same_stream_position(new, ref):
    assert new.rng.random() == ref.rng.random()


def mask_with(count, rng):
    """A 2-D mask holding exactly ``count`` True cells among False ones."""
    cells = 4 * ((count + count // 3) // 4 + 1)
    mask = np.zeros(cells, dtype=bool)
    mask[rng.permutation(cells)[:count]] = True
    return mask.reshape(4, -1)


SMALL = loss_module._SMALL_DRAW
SIZES = [0, 1, 3, SMALL, SMALL + 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]


def bounded_budget(mode, seed, p):
    """A budget that runs out in the first block, in a later one, on the
    first block's last uniform -- or never."""
    if mode == "first":
        return 3
    if mode == "never":
        return 10 ** 9
    lost = np.random.default_rng(seed).random(BLOCK + 500) < p
    if mode == "edge":  # the last drop is the first block's last loss
        return int(lost[:BLOCK].sum())
    return int(lost.sum())  # "later": a few hundred uniforms into block two


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["bernoulli", "distance", "bounded"]),
    sizes=st.tuples(st.sampled_from(SIZES), st.sampled_from(SIZES)),
    seed=st.integers(0, 2 ** 32 - 1),
    p=st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0]),
    budget_mode=st.sampled_from(["first", "later", "edge", "never"]),
    through_mask=st.booleans(),
)
def test_blocked_draws_equal_one_shot_draws(
    kind, sizes, seed, p, budget_mode, through_mask
):
    params = ()
    if kind == "bounded":
        params = (("budget", float(bounded_budget(budget_mode, seed, p))),)
    new, ref = loss_pair(kind, params, seed, p=p)
    shapes = np.random.default_rng(seed ^ 0x5EED)
    for count in sizes:  # two consecutive calls on one stream
        if through_mask:
            active = mask_with(count, shapes)
            distances = shapes.uniform(0.0, 1.2 * RADIUS, active.shape)
            got = new.draw_into(active, distances)
            want = ref.draw_into(active, distances)
            assert not got[~active].any()
        else:
            distances = shapes.uniform(0.0, 1.2 * RADIUS, count)
            got = new.delivered(count, distances)
            want = ref.delivered(count, distances)
        np.testing.assert_array_equal(got, want)
        assert_same_state(new, ref)
    assert_same_stream_position(new, ref)


@pytest.mark.parametrize("mode", ["first", "later", "edge"])
def test_bounded_budget_runs_out_where_the_mode_says(mode):
    """The three budget strategies above do hit their three places, and
    the call in which the budget dies still consumes all its uniforms."""
    seed, p, count = 11, 0.1, 3 * BLOCK + 7
    budget = bounded_budget(mode, seed, p)
    new, ref = loss_pair("bounded", (("budget", float(budget)),), seed, p=p)
    got = new.delivered(count)
    np.testing.assert_array_equal(got, ref.delivered(count))
    last_drop = int(np.flatnonzero(~got)[-1])
    assert int((~got).sum()) == budget and new.budget_left == 0
    if mode == "first":
        assert last_drop < BLOCK - 1
    elif mode == "edge":
        uniforms = np.random.default_rng(seed).random(BLOCK)
        assert last_drop == int(np.flatnonzero(uniforms < p)[-1])
    else:
        assert BLOCK <= last_drop < 2 * BLOCK
    # All ``count`` uniforms are gone; the next call draws none.
    expected = np.random.default_rng(seed)
    expected.random(count)
    assert new.delivered(5).all()
    assert new.rng.random() == expected.random()


@pytest.mark.parametrize("at_kind", ["none", "rows_slots", "row", "slice"])
def test_gilbert_mask_gather_equals_index_gather(at_kind):
    params = (("p_good", 0.05), ("p_bad", 0.7), ("p_gb", 0.2), ("p_bg", 0.3))
    new, ref = loss_pair("gilbert", params, seed=5)
    shapes = np.random.default_rng(9)
    family = (6, 7, 7) if at_kind == "rows_slots" else (6, 7)
    at = {
        "none": None,
        "rows_slots": (np.arange(6), shapes.integers(0, 7, 6)),
        "row": 4,
        "slice": slice(1, 4),
    }[at_kind]
    for loss in (new, ref):
        loss.ensure_chain("fam", family)
    shape = np.zeros(family, dtype=bool)[at if at is not None else ...].shape
    for _ in range(4):  # chains carry state from draw to draw
        active = shapes.random(shape) < 0.6
        np.testing.assert_array_equal(
            new.draw_into(active, chain="fam", at=at),
            ref.draw_into(active, chain="fam", at=at),
        )
        assert_same_state(new, ref)
    assert new._chains["fam"].any()  # some link did go Bad
    assert_same_stream_position(new, ref)


GILBERT = (("p_good", 0.05), ("p_bad", 0.7), ("p_gb", 0.2), ("p_bg", 0.3))


@pytest.mark.parametrize("at_kind", ["none", "row", "slice", "rows"])
@pytest.mark.parametrize(
    "kind", ["perfect", "bernoulli", "distance", "bounded", "gilbert"]
)
def test_all_active_draw_equals_masked_draw(kind, at_kind):
    """Every copy active (the formation's heartbeat flood and edge-list
    draws) skips the gather/scatter: same masks, counters, chains and
    stream position, across more than one uniform block."""
    params = {"bounded": (("budget", 4000.0),), "gilbert": GILBERT}.get(kind, ())
    new, ref = loss_pair(kind, params, seed=3, p=0.2)
    family = (3, BLOCK // 2 + 5)
    at = {
        "none": None, "row": 1, "slice": slice(1, 3), "rows": np.array([0, 2]),
    }[at_kind]
    for loss in (new, ref):
        loss.ensure_chain("fam", family)
    shape = np.zeros(family, dtype=bool)[at if at is not None else ...].shape
    distances = np.random.default_rng(4).uniform(0.0, 1.2 * RADIUS, shape)
    for _ in range(3):  # chains carry state from draw to draw
        active = np.ones(shape, dtype=bool)
        got = new.draw_into(active, distances, chain="fam", at=at)
        assert got.shape == shape
        np.testing.assert_array_equal(
            got, ref.draw_into(active, distances, chain="fam", at=at)
        )
        assert_same_state(new, ref)
    assert_same_stream_position(new, ref)


# ---------------------------------------------------------------------------
# (c) unit-disk edge build vs a brute-force pair scan
# ---------------------------------------------------------------------------
def unit_disk_reference(xs, ys, radius):
    """Every ordered pair tested over the full N x N difference matrix
    (``dx*dx + dy*dy <= r*r``, the builder's arithmetic), row-major."""
    n = xs.size
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    adjacent = (dx * dx + dy * dy <= radius * radius) & ~np.eye(n, dtype=bool)
    src, dst = np.nonzero(adjacent)
    index = np.full((n, n), -1, dtype=np.int64)
    index[src, dst] = np.arange(src.size)
    out_indptr, in_indptr = (
        np.concatenate(([0], np.cumsum(adjacent.sum(axis=axis))))
        for axis in (1, 0)
    )
    return dict(
        src=src,
        dst=dst,
        dist=np.hypot(dx[src, dst], dy[src, dst]),
        rev=index[dst, src],
        out_indptr=out_indptr,
        in_indptr=in_indptr,
    )


def assert_edges_match_pair_scan(xs, ys, radius=RADIUS):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    edges = build_unit_disk_edges(xs, ys, radius)
    want = unit_disk_reference(xs, ys, radius)
    assert edges.node_count == xs.size
    assert edges.edge_count == want["src"].size
    for name, value in want.items():
        got = getattr(edges, name)
        np.testing.assert_array_equal(got, value, err_msg=name)
        assert got.dtype == value.dtype, name
    np.testing.assert_array_equal(edges.in_order, want["rev"])
    return edges


#: Multiples of r/20: 3-4-5 triangles and collinear runs put pairs
#: exactly ``radius`` apart and nodes exactly on cell boundaries, and
#: repeats give coincident points.
LATTICE = st.integers(-40, 40).map(lambda k: k * RADIUS / 20)
COORD = st.one_of(LATTICE, st.floats(-3 * RADIUS, 3 * RADIUS))


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.tuples(COORD, COORD), max_size=80))
@example(points=[])
@example(points=[(0.0, 0.0)])
@example(points=[(0.0, 0.0), (RADIUS, 0.0)])
@example(points=[(-RADIUS, -RADIUS), (-0.4 * RADIUS, -0.2 * RADIUS)])
@example(points=[(5.0, 5.0)] * 3 + [(5.0 + RADIUS, 5.0)])
# In range (dx rounds to -RADIUS) yet in cells -1 and +1 of width RADIUS.
@example(points=[(-1e-20, 0.0), (RADIUS, 0.0)])
def test_edges_equal_brute_force_pair_scan(points):
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    assert_edges_match_pair_scan(xs, ys)


def test_edges_of_a_field_in_one_cell_form_a_clique():
    rng = np.random.default_rng(7)
    xs, ys = rng.uniform(0.0, RADIUS / 3, (2, 60))
    edges = assert_edges_match_pair_scan(xs, ys)
    assert edges.edge_count == 60 * 59


def test_edges_across_the_stride_gap_column():
    """Nodes packed along the east and west edges of stacked cell rows:
    east-edge nodes of a row neighbor those of the rows above and
    below, never the west-edge nodes a row-wrapping key would put next
    to them."""
    rng = np.random.default_rng(8)
    rows = np.repeat(np.arange(6), 20)
    east = rng.random(120) < 0.5
    xs = (np.where(east, 4.99, 0.01) + rng.uniform(-0.005, 0.005, 120)) * RADIUS
    ys = (rows + rng.uniform(0.0, 1.0, 120)) * RADIUS
    edges = assert_edges_match_pair_scan(xs, ys)
    assert edges.edge_count
    assert (east[edges.src] == east[edges.dst]).all()


@pytest.mark.parametrize("block", [1, 7, 500])
def test_edges_do_not_depend_on_the_candidate_block(monkeypatch, block):
    """Small blocks split the scan mid-field; a block of 1 holds one
    node's candidates, however many there are."""
    monkeypatch.setattr(graph_module, "_CANDIDATE_BLOCK", block)
    xs, ys = lattice_positions(3, 60, RADIUS, np.random.default_rng(9))
    assert_edges_match_pair_scan(xs, ys)


def pair_scan_neighbors(positions):
    """NID -> sorted neighbours by :func:`unit_disk_reference`."""
    nids = sorted(positions)
    xs = np.array([positions[nid].x for nid in nids], dtype=np.float64)
    ys = np.array([positions[nid].y for nid in nids], dtype=np.float64)
    want = unit_disk_reference(xs, ys, RADIUS)
    neighbors = {nid: [] for nid in nids}
    for i, j in zip(want["src"].tolist(), want["dst"].tolist()):
        neighbors[nids[i]].append(nids[j])
    return {nid: tuple(sorted(found)) for nid, found in neighbors.items()}


def fresh_medium():
    return RadioMedium(Simulator(), transmission_range=RADIUS)


def assert_medium_matches_pair_scan(medium, positions):
    want = pair_scan_neighbors(positions)
    for nid, pos in positions.items():
        assert medium.neighbors_of(nid) == want[nid]
        neighbors, distances = medium.neighbor_arrays(nid)
        assert neighbors == want[nid]
        # Per-sender distances stay math.hypot (Vec2.distance_to):
        # np.hypot rounds differently and would move distance-loss draws.
        np.testing.assert_array_equal(
            distances, [pos.distance_to(positions[m]) for m in neighbors]
        )


#: Distinct, non-contiguous NIDs for a field of up to 80 nodes.
NIDS = st.lists(st.integers(0, 10**6), min_size=80, max_size=80, unique=True)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=80), ids=NIDS)
@example(points=[(-1e-20, 0.0), (RADIUS, 0.0)], ids=[0, 1] + list(range(2, 80)))
@example(points=[(-1e-20, 0.0), (RADIUS, 0.0)], ids=[907, 12] + list(range(2, 80)))
def test_graph_and_medium_equal_brute_force_pair_scan(points, ids):
    """``UnitDiskGraph`` and ``RadioMedium`` neighbours are the pair
    scan's, under any NIDs -- including the ``(-1e-20, 0)``-``(r, 0)``
    pair, in range yet in cells -1 and +1 of a grid of width ``r``."""
    positions = {ids[i]: Vec2(x, y) for i, (x, y) in enumerate(points)}
    want = pair_scan_neighbors(positions)
    graph = UnitDiskGraph(positions, RADIUS)
    assert list(graph.edges()) == sorted(
        (a, b) for a, found in want.items() for b in found if a < b
    )
    assert {nid: graph.neighbors(nid) for nid in positions} == want
    medium = fresh_medium()
    for nid, pos in positions.items():
        medium.register(nid, pos, {})
    assert_medium_matches_pair_scan(medium, positions)


def test_medium_rebuilds_neighbors_after_register_and_unregister():
    positions = {40: Vec2(0.0, 0.0), 7: Vec2(RADIUS, 0.0), 93: Vec2(3 * RADIUS, 0.0)}
    medium = fresh_medium()
    for nid, pos in positions.items():
        medium.register(nid, pos, {})
    assert_medium_matches_pair_scan(medium, positions)
    assert medium.neighbors_of(93) == ()
    # A node registered after the first lookup joins both ends' tables.
    positions[3] = Vec2(2 * RADIUS, 0.0)
    medium.register(3, positions[3], {})
    assert_medium_matches_pair_scan(medium, positions)
    assert medium.neighbors_of(93) == (3,)
    assert medium.neighbors_of(7) == (3, 40)
    del positions[7]
    medium.unregister(7)
    assert_medium_matches_pair_scan(medium, positions)
    assert medium.neighbors_of(40) == ()


# ---------------------------------------------------------------------------
# (d) in-order reductions vs a per-node loop
# ---------------------------------------------------------------------------
def first_flagged_reference(edges, flags):
    """Per node, the flagged in-edge with the lowest source, and that
    source (``-1`` / int64 max where none is flagged)."""
    first = np.full(edges.node_count, -1, dtype=np.int64)
    lowest = np.full(edges.node_count, np.iinfo(np.int64).max, dtype=np.int64)
    for node in range(edges.node_count):
        hits = np.flatnonzero(flags & (edges.dst == node))
        if hits.size:
            first[node] = hits[np.argmin(edges.src[hits])]
            lowest[node] = edges.src[first[node]]
    return first, lowest


def reduction_field():
    """Clustered nodes plus isolated ones first, mid-field and last:
    zero in-degree segments, leading and trailing."""
    rng = np.random.default_rng(10)
    xs, ys = rng.uniform(0.0, 3 * RADIUS, (2, 60))
    far = 40 * RADIUS * np.arange(1, 6)
    xs = np.concatenate(([-far[0]], xs[:30], [far[1]], xs[30:], far[2:]))
    ys = np.concatenate(([0.0], ys[:30], [0.0], ys[30:], [0.0] * 3))
    edges = build_unit_disk_edges(xs, ys, RADIUS)
    degree = np.diff(edges.in_indptr)
    assert degree[0] == degree[31] == 0 and (degree[-3:] == 0).all()
    assert degree[1:31].all()
    return edges


REDUCTION_EDGES = reduction_field()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    density=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
)
def test_first_flagged_equals_per_node_loop(seed, density):
    edges = REDUCTION_EDGES
    flags = np.random.default_rng(seed).random(edges.edge_count) < density
    first, lowest = first_flagged_reference(edges, flags)
    np.testing.assert_array_equal(edges.first_flagged_in_edge(flags), first)
    np.testing.assert_array_equal(edges.min_flagged_src(flags), lowest)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_reductions_without_edges(n):
    edges = build_unit_disk_edges(
        np.arange(n) * 10 * RADIUS, np.zeros(n), RADIUS
    )
    flags = np.zeros(0, dtype=bool)
    assert edges.edge_count == 0
    np.testing.assert_array_equal(edges.first_flagged_in_edge(flags), [-1] * n)
    np.testing.assert_array_equal(
        edges.min_flagged_src(flags), [np.iinfo(np.int64).max] * n
    )


# ---------------------------------------------------------------------------
# Memory: the bound the docstrings state
# ---------------------------------------------------------------------------
def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_layout_build_holds_no_field_sized_temporaries():
    """numpy reports its buffers to tracemalloc.  The O(N) bookkeeping
    arrays of the build weigh about as much as this small field's 3 MB
    adjacency, hence 2.5x; the unblocked kernel peaked at 26x."""
    layout, peak = traced_peak(lambda: build_array_layout(
        200, 100, RADIUS, RngFactory(1).stream("placement")
    ))
    returned = sum(
        value.nbytes for value in vars(layout).values()
        if isinstance(value, np.ndarray)
    )
    assert layout.adjacency.nbytes > 3_000_000
    assert peak <= 2.5 * returned


def test_edge_build_keeps_its_candidates_in_blocks():
    """A 2*10**4-node field with 1.2*10**6 edges: the build peaks at
    1.7x the arrays it returns; one unchunked candidate block made it
    3.3x, and the 9-cell scan with a lexsort 2.4x."""
    xs, ys = lattice_positions(400, 49, RADIUS, RngFactory(1).stream("placement"))
    edges, peak = traced_peak(lambda: build_unit_disk_edges(xs, ys, RADIUS))
    arrays = {
        id(value): value for value in vars(edges).values()
        if isinstance(value, np.ndarray)
    }
    returned = sum(value.nbytes for value in arrays.values())
    assert edges.edge_count > 10 ** 6
    assert peak <= 2 * returned


def test_draw_into_allocates_less_than_its_mask_and_output():
    """Beyond ``out``: one bool per active copy and one uniform block
    (index gather + one-shot uniforms took 16 bytes per active copy)."""
    mask = np.random.default_rng(0).random((2000, 2000)) < 0.4
    loss = ArrayLossDraw(
        "bernoulli", (), 0.1, RADIUS, np.random.default_rng(1)
    )
    out, peak = traced_peak(lambda: loss.draw_into(mask))
    assert peak <= mask.nbytes + out.nbytes


# ---------------------------------------------------------------------------
# (e) the inter-cluster scan vs the per-crossing oracle
# ---------------------------------------------------------------------------
class OracleRoundEngine(ArrayRoundEngine):
    """The inter-cluster fixpoint one crossing at a time on the bool
    ``known`` rows, numpy throughout: what the int scan replaced.

    ``rescan`` recomputes every channel's news each wave instead of the
    entered clusters' channels (the frontier invariant's reference).
    :attr:`waves` holds, per execution, every wave's ``[(channel,
    ranks_ok, crossed), ...]``; :attr:`capped` one flag per fixpoint
    the wave cap stopped: whether news was still pending then.
    """

    rescan = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.crossing = list(zip(
            self.ch_dst.tolist(), self.ch_dst_nid.tolist(),
            self.ch_src_nid.tolist(), self.ch_inbound.tolist(),
            self.ch_gw_ids.tolist(),
        ))
        self.safe_gw = np.where(self.ch_gw_ok, self.ch_gw_ids, 0)
        self.waves = []
        self.capped = []

    def _intercluster(self, alive, alive_m, hd):
        run = []
        self.waves.append(run)
        if not self.T:
            return
        fds = self.fds
        attempts = (fds.max_forward_retries + 1) if fds.implicit_ack else 1
        alive_gw = self.ch_gw_ok & alive[self.safe_gw]
        has = self._has_news(slice(None), alive_gw)
        entered = np.zeros(self.C, dtype=bool)
        guard = 0
        while guard <= self.C + 2:
            guard += 1
            active = np.flatnonzero(has.any(axis=1)).tolist()
            entered[:] = False
            wave = []
            for b in active:
                crossed = self._cross_channel(b, has[b], alive_m, hd, attempts)
                wave.append((b, has[b].tolist(), crossed))
                if crossed:
                    entered[self.ch_dst[b]] = True
            if wave:
                run.append(wave)
            if not entered.any():
                return
            rows = (
                slice(None) if self.rescan
                else np.flatnonzero(entered[self.ch_src] | entered[self.ch_dst])
            )
            has[rows] = self._has_news(rows, alive_gw)
        self.capped.append(bool(has.any()))

    def _has_news(self, rows, alive_gw):
        known = self.known
        dst_known = known[self.ch_dst_nid[rows]]  # (R, T)
        out_has = (known[self.safe_gw[rows]] & ~dst_known[:, None, :]).any(axis=2)
        in_has = (known[self.ch_src_nid[rows]] & ~dst_known).any(axis=1)
        has = np.where(self.ch_inbound[rows, None], in_has[:, None], out_has)
        return has & alive_gw[rows]

    def _cross_channel(self, b, ranks_ok, alive_m, hd, attempts):
        loss = self.loss
        layout = self.layout
        dst, dst_nid, src_nid, inbound, gw_ids = self.crossing[b]
        src_row = self.known[src_nid]
        for g in np.flatnonzero(ranks_ok).tolist():
            gid = gw_ids[g]
            if inbound:
                news = src_row & ~self.known[dst_nid]
            else:
                news = self.known[gid] & ~self.known[dst_nid]
            if not news.any():
                return False
            if inbound:
                over = self._ladder("over", self.ch_overhear_dist, b, g, attempts)
                if self._e_rx is not None:
                    self._e_rx[gid] += int(over.sum())
                if not over.any():
                    continue
            if g > 0:
                self.bgw_activations += 1
            rep = self._ladder("rep", self.ch_report_dist, b, g, attempts)
            self.reports_sent += 1
            self.report_retransmissions += attempts - 1
            self.transmissions += attempts
            if self._e_tx is not None:
                self._e_tx[gid] += attempts
                self._e_rx[dst_nid] += int(rep.sum())
            if not rep.any():
                continue
            self.known[dst_nid] |= news
            rel = loss.draw_into(alive_m[dst], hd[dst], chain="cm", at=dst)
            self.transmissions += 1
            rec_ids = layout.members[dst][rel & layout.member_mask[dst]]
            if self._e_tx is not None:
                self._e_tx[dst_nid] += 1
                self._e_rx[rec_ids] += 1
            if rec_ids.size:
                self.known[rec_ids] |= news[None, :]
            return True
        return False

    def _ladder(self, chain, dist, b, g, attempts):
        distances = None
        if self.loss.kind == "distance":
            distances = np.full(attempts, dist[b, g])
        return self.loss.delivered(
            attempts, distances=distances, chain=chain, at=(b, g)
        )


class RescanOracleRoundEngine(OracleRoundEngine):
    rescan = True


class LoggedLossDraw(ArrayLossDraw):
    """Logs every inter-cluster draw -- gateway ladders and relays -- as
    ``(chain, at, delivered, budget before, budget after)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def delivered(self, count, distances=None, chain=None, at=None):
        before = self.budget_left
        out = super().delivered(count, distances, chain=chain, at=at)
        if chain in ("over", "rep"):
            self.log.append((chain, at, out.tolist(), before, self.budget_left))
        return out

    def draw_into(self, active, distances=None, chain=None, at=None):
        before = self.budget_left
        out = super().draw_into(active, distances, chain=chain, at=at)
        if chain == "cm" and isinstance(at, int):  # a relay
            self.log.append((chain, at, out.tolist(), before, self.budget_left))
        return out


def scan_and_oracle(monkeypatch, config, oracle=OracleRoundEngine):
    """``config`` run end to end on the scan and on ``oracle``."""
    engines = []
    for rounds_class in (ArrayRoundEngine, oracle):
        with monkeypatch.context() as patch:
            patch.setattr(runner_module, "ArrayRoundEngine", rounds_class)
            patch.setattr(runner_module, "ArrayLossDraw", LoggedLossDraw)
            engine = ArrayEngine(config)
            run_engine(engine)
        engines.append(engine)
    return engines


ENGINE_COUNTERS = (
    "transmissions", "peer_requests", "peer_forwards", "peer_recoveries",
    "reports_sent", "report_retransmissions", "bgw_activations",
)


def assert_same_run(scan, oracle):
    """Draw for draw, then every piece of state the run leaves."""
    got, want = scan.rounds, oracle.rounds
    assert got.loss.log == want.loss.log
    assert got.t_ids == want.t_ids
    np.testing.assert_array_equal(got.known, want.known)
    np.testing.assert_array_equal(got.suspected, want.suspected)
    np.testing.assert_array_equal(got.takeover_active, want.takeover_active)
    for name in ENGINE_COUNTERS:
        assert getattr(got, name) == getattr(want, name), name
    assert scan.tracer.records == oracle.tracer.records
    if scan.energy is not None:
        for name in ("level", "last_update", "tx_count", "rx_count"):
            np.testing.assert_array_equal(
                getattr(scan.energy, name), getattr(oracle.energy, name)
            )
    assert_same_state(got.loss, want.loss)
    assert_same_stream_position(got.loss, want.loss)


def crossings(oracle):
    return sum(
        crossed
        for run in oracle.rounds.waves for wave in run for _, _, crossed in wave
    )


#: 36 twelve-member clusters, spacing 1.25: multi-duty gateways, BGW
#: ladders and waves several deep.
SCAN_FIELD = dict(engine="array", cluster_count=36, executions=4, crash_count=8)


@pytest.mark.parametrize(
    "kind", ["perfect", "bernoulli", "distance", "bounded", "gilbert"]
)
def test_scan_equals_oracle_for_every_loss_kind(monkeypatch, kind):
    config = scenario_config(
        loss_kind=kind, loss_p=0.3, loss_budget=400, seed=5, **SCAN_FIELD
    )
    scan, oracle = scan_and_oracle(monkeypatch, config)
    assert crossings(oracle) > 20
    assert_same_run(scan, oracle)


def test_scan_equals_oracle_with_gilbert_and_energy(monkeypatch):
    config = scenario_config(
        loss_kind="gilbert", loss_p=0.3, track_energy=True, seed=6,
        **SCAN_FIELD,
    )
    scan, oracle = scan_and_oracle(monkeypatch, config)
    assert crossings(oracle) > 20
    assert scan.energy.rx_count.sum() > 0
    assert_same_run(scan, oracle)


def test_scan_equals_oracle_on_a_protocol_formed_layout(monkeypatch):
    config = ScenarioConfig(
        engine="array", formation="protocol", formation_iterations=2,
        cluster_count=16, members_per_cluster=20, executions=4,
        crash_count=6, loss_probability=0.3, seed=5,
    )
    scan, oracle = scan_and_oracle(monkeypatch, config)
    # Lossy short formation: 18 clusters, heads off the lattice identity.
    heads = scan.layout.head_nids
    assert (heads != np.arange(heads.size)).any()
    assert crossings(oracle) > 20
    assert_same_run(scan, oracle)


def test_scan_equals_oracle_when_the_budget_runs_out_mid_fixpoint(monkeypatch):
    """The budget is set to the drops made before the inter-cluster
    draw in the middle of a budget-free run, plus one: the scan must
    spend the last drop where the oracle does and draw nothing after."""
    free = scenario_config(
        loss_kind="bounded", loss_p=0.3, loss_budget=10 ** 9, seed=8,
        **SCAN_FIELD,
    )
    _, probe = scan_and_oracle(monkeypatch, free)
    log = probe.rounds.loss.log
    spent = 10 ** 9 - log[len(log) // 2][3]
    config = dataclasses.replace(
        free, loss_params=(("budget", float(spent + 1)),)
    )
    scan, oracle = scan_and_oracle(monkeypatch, config)
    ran_out = [entry for entry in oracle.rounds.loss.log if entry[3] > entry[4] == 0]
    assert ran_out, "the budget ran out outside the inter-cluster fixpoint"
    assert_same_run(scan, oracle)


def test_scan_equals_oracle_past_64_targets(monkeypatch):
    """More than 64 tracked targets: multi-word ints and words."""
    config = scenario_config(
        engine="array", cluster_count=64, executions=4, crash_count=72,
        loss_kind="bernoulli", loss_p=0.2, seed=9,
    )
    scan, oracle = scan_and_oracle(monkeypatch, config)
    assert scan.rounds.T > 64
    assert crossings(oracle) > 20
    assert_same_run(scan, oracle)


#: 9-cluster fields with a fixpoint that at p = 0.8 runs all C + 3 = 12
#: waves and still has news pending: the cap, not a quiet wave, stops
#: it, so a cap one wave early or late moves the draws.
CAPPED_SEEDS = [18, 50, 71]


@pytest.mark.parametrize("seed", CAPPED_SEEDS)
def test_scan_stops_at_the_wave_cap_where_the_oracle_does(monkeypatch, seed):
    config = ScenarioConfig(
        engine="array", cluster_count=9, members_per_cluster=10,
        crash_count=3, executions=5, loss_probability=0.8, seed=seed,
    )
    scan, oracle = scan_and_oracle(monkeypatch, config)
    rounds = oracle.rounds
    assert any(
        len(run) == rounds.C + 3 and all(any(c for *_, c in w) for w in run)
        for run in rounds.waves
    )
    assert True in rounds.capped
    assert_same_run(scan, oracle)


FRONTIER_FIELD = dict(
    cluster_count=100, members_per_cluster=12, executions=4, crash_count=8,
    engine="array", seed=4,
)


def test_frontier_scan_crosses_the_channels_a_full_rescan_would(monkeypatch):
    config = ScenarioConfig(loss_probability=0.25, **FRONTIER_FIELD)
    scan, rescan = scan_and_oracle(monkeypatch, config, RescanOracleRoundEngine)
    assert max(len(run) for run in rescan.rounds.waves) > 3  # news did travel in waves
    assert_same_run(scan, rescan)


def test_exhausted_report_ladder_keeps_its_channel_active(monkeypatch):
    """70 % loss and one attempt per report: ladders run dry, and a
    channel whose crossing failed is tried again in the next wave even
    when neither of its clusters was entered -- a channel the frontier
    did *not* recompute must still hold its news."""
    config = ScenarioConfig(
        loss_probability=0.7,
        fds=FdsConfig(implicit_ack=False),
        **FRONTIER_FIELD,
    )
    scan, oracle = scan_and_oracle(monkeypatch, config)
    rounds = oracle.rounds
    src, dst = rounds.ch_src.tolist(), rounds.ch_dst.tolist()
    retained_retries = 0
    for run in rounds.waves:
        for wave, following in zip(run, run[1:]):
            entered = {dst[b] for b, _, crossed in wave if crossed}
            again = {b for b, _, _ in following}
            retained_retries += sum(
                1 for b, _, crossed in wave
                if not crossed and b in again
                and src[b] not in entered and dst[b] not in entered
            )
    assert retained_retries > 0
    assert_same_run(scan, oracle)


@settings(max_examples=60, deadline=None)
@given(
    t=st.sampled_from([1, 7, 8, 63, 64, 65, 128, 130]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_bitmasks_round_trip(t, seed):
    rows = np.random.default_rng(seed).random((5, t)) < 0.5
    ints, words = rounds_module._bitmasks(rows)
    assert ints == [
        sum(1 << j for j in np.flatnonzero(row).tolist()) for row in rows
    ]
    assert words.dtype == np.dtype("<u8") and words.shape == (5, -(-t // 64))
    np.testing.assert_array_equal(rounds_module._bool_rows(ints, t), rows)


def test_known_grows_in_column_chunks():
    """``known`` is an (N, T) view whose buffer grows a fixed chunk at a
    time, and a deep copy (a plain array) grows from its own values."""
    layout = build_array_layout(4, 30, RADIUS, RngFactory(1).stream("placement"))
    n = layout.node_count
    loss = ArrayLossDraw("perfect", (), 0.0, RADIUS, np.random.default_rng(1))
    engine = ArrayRoundEngine(
        layout, FdsConfig(), loss, NullTracer(), np.full(n, 9, np.int64)
    )
    chunk = rounds_module._KNOWN_CHUNK
    targets = list(range(4, 4 + 2 * chunk + 3))
    buffers = []
    for nid in targets:
        col = engine._col(nid)
        engine.known[nid, col] = True
        assert engine.known.shape == (n, col + 1)
        if not any(engine.known.base is seen for seen in buffers):
            buffers.append(engine.known.base)
    assert len(buffers) == 3
    assert [b.shape[1] for b in buffers] == [chunk, 2 * chunk, 3 * chunk]
    twin = copy.deepcopy(engine)
    for nid in (100, 101):
        for e in (engine, twin):
            col = e._col(nid)
            e.known[nid, col] = True
    np.testing.assert_array_equal(twin.known, engine.known)
    expected = np.zeros((n, len(targets) + 2), dtype=bool)
    expected[targets + [100, 101], np.arange(len(targets) + 2)] = True
    np.testing.assert_array_equal(engine.known, expected)
