"""The array engine's blocked kernels against one-shot references.

``_fill_adjacency``, ``ArrayLossDraw.delivered`` / ``draw_into``, the
member-pair pass with its witness reduction, and the unit-disk edge
build stream through cache-sized blocks; each must
give, bit for bit, what the unblocked formulation gives -- same arrays,
same counters, and the random stream left at the same position.  The
member-pair cubes are packed bits (``bits``); every packed reader must
give what its bool-cube form gives.  The
graph and the radio medium read their neighbours off that edge build,
so they must give what the brute-force pair scan gives too.  The
formation's per-receiver reductions must give what a per-node loop
gives, the uniform tape's ladders and broadcasts what the per-call
draws give, and the inter-cluster scan on int bitmasks what the
per-crossing fixpoint on bool rows gives, draw for draw.  The
reference formulations live here and nowhere else.
"""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.experiments.runner import ScenarioConfig, run_engine, scenario_config
from repro.fds.config import FdsConfig
from repro.sim.array_engine import bits
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
    """The packed adjacency, unpacked, and the optional distances."""
    c, m = px.shape
    out = np.zeros((c, m, bits.width(m)), dtype=np.uint8)
    with np.errstate(invalid="ignore"):
        dist = layout_module._fill_adjacency(
            out, px, py, radius, keep_dist=keep_dist
        )
    np.testing.assert_array_equal(bits.pack(bits.unpack(out, m)), out)  # pads 0
    return bits.unpack(out, m), dist


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
            return super().delivered(count, distances)
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
                s, lost = self._gilbert_flat(s)
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
# (b') the blocked member-pair pass vs the one-shot mask draw
# ---------------------------------------------------------------------------
PAIR_CELLS = loss_module._PAIR_BLOCK_CELLS


def pair_field(c, m, seed):
    """A ``(C, M, M)`` adjacency (no self pairs), float32 pair distances
    and two ``(C, M)`` alive masks, one per consecutive draw."""
    shapes = np.random.default_rng(seed)
    adjacency = shapes.random((c, m, m)) < 0.6
    adjacency[:, np.arange(m), np.arange(m)] = False
    distances = shapes.uniform(0.0, 1.2 * RADIUS, (c, m, m)).astype(np.float32)
    alive = [shapes.random((c, m)) < 0.9 for _ in range(2)]
    return adjacency, distances, alive


def pair_mask(adjacency, alive):
    return adjacency & alive[:, None, :] & alive[:, :, None]


def pair_budget(mode, adjacency, alive, seed, p, step):
    """A bounded budget read off the first draw's one-shot uniforms: it
    dies half-way through the first block's losses ("inside"), on that
    block's last loss ("edge"), half-way through the later blocks'
    losses ("later"), or never."""
    if mode == "never":
        return 10 ** 9
    active = pair_mask(adjacency, alive)
    lost = np.random.default_rng(seed).random(int(active.sum())) < p
    first = int(lost[: int(active[:step].sum())].sum())
    return {
        "inside": first // 2,
        "edge": first,
        "later": first + (int(lost.sum()) - first) // 2,
    }[mode]


PAIR_KINDS = {
    "bernoulli-p0": ("bernoulli", (), 0.0),
    "bernoulli-p0.1": ("bernoulli", (), 0.1),
    "bernoulli-p1": ("bernoulli", (), 1.0),
    "bounded-inside": ("bounded", "inside", 0.1),
    "bounded-edge": ("bounded", "edge", 0.1),
    "bounded-later": ("bounded", "later", 0.1),
    "bounded-never": ("bounded", "never", 0.1),
    "distance": ("distance", (), 0.1),
    "gilbert": ("gilbert", GILBERT, 0.1),
}


@pytest.mark.parametrize("around", [-1, 0, 1, "three"])
@pytest.mark.parametrize("m", [1, 2, 127])
@pytest.mark.parametrize("case", sorted(PAIR_KINDS))
def test_pair_pass_equals_one_shot_mask_draw(case, m, around):
    """Two consecutive draws (chains and the budget carry over) with C
    at, one under, one over the block edge, or past three blocks."""
    kind, params, p = PAIR_KINDS[case]
    step = max(1, PAIR_CELLS // (m * m))
    c = 3 * step + 1 if around == "three" else step + around
    seed = 17 * m + c
    adjacency, distances, alive = pair_field(c, m, seed)
    if kind == "bounded":
        params = (("budget", float(pair_budget(
            params, adjacency, alive[0], seed, p, step
        ))),)
    new, ref = loss_pair(kind, params, seed, p=p)
    dist = distances if kind == "distance" else None
    for alive_m in alive:
        got = new.draw_into(
            bits.pack(adjacency), dist, chain="mm", alive=alive_m
        )
        want = ref.draw_into(pair_mask(adjacency, alive_m), dist, chain="mm")
        np.testing.assert_array_equal(got, bits.pack(want))
        assert_same_state(new, ref)
    if kind == "bounded":
        # The budget is spent by the first draw unless it never dies.
        assert (new.budget_left > 0) == (PAIR_KINDS[case][1] == "never")
    assert_same_stream_position(new, ref)


@pytest.mark.parametrize("around", [-1, 0, 1])
@pytest.mark.parametrize("m", [1, 2, 127])
def test_witness_reduce_equals_one_shot_reduce(m, around):
    step = max(1, PAIR_CELLS // (m * m))
    shapes = np.random.default_rng(m + around)
    sender_ok = shapes.random((step + around, m)) < 0.3
    hb_mm = shapes.random((step + around, m, m)) < 0.05
    np.testing.assert_array_equal(
        ArrayRoundEngine._witness_reduce(sender_ok, bits.pack(hb_mm)),
        (sender_ok[:, :, None] & hb_mm).any(axis=1),
    )


# ---------------------------------------------------------------------------
# (b'') the packed member-pair readers vs their bool-cube forms
# ---------------------------------------------------------------------------
#: No cells; 7, 1 and 0 pad bits in one byte; 7 and 1 pad bits past it.
PACKED_M = [0, 1, 7, 8, 9, 127]


def pack_reference(cells):
    """Bit ``v % 8`` of byte ``v // 8`` per cell, bit by bit; pads 0."""
    m = cells.shape[-1]
    rows = np.zeros(cells.shape[:-1] + (-(-m // 8),), dtype=np.uint8)
    for v in range(m):
        rows[..., v // 8] |= cells[..., v].astype(np.uint8) << (v % 8)
    return rows


def pad_bits(rows, m):
    """The bits past ``m`` in each packed row's last byte."""
    if m % 8 == 0:
        return np.zeros(rows.shape[:-1], dtype=np.uint8)
    return rows[..., -1] >> (m % 8)


def block_sizes(m):
    """C one under, at and one over the pair block edge, and past two."""
    step = max(1, PAIR_CELLS // max(1, m * m))
    return sorted({max(1, step - 1), step, step + 1, 2 * step + 1})


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from(PACKED_M),
    at=st.integers(0, 3),
    seed=st.integers(0, 2 ** 32 - 1),
    density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
)
def test_packed_readers_equal_their_bool_forms(m, at, seed, density):
    """The witness reduce, a target's column read, the deputy row, the
    rx counts and the deputy degree, each on the packed cube against
    the same read of the bool cube; and the pack itself, bit by bit."""
    c = block_sizes(m)[at] if m > 9 else 3 + at
    shapes = np.random.default_rng(seed)
    cube = shapes.random((c, m, m)) < density
    rows = pack_reference(cube)
    np.testing.assert_array_equal(bits.pack(cube), rows)
    np.testing.assert_array_equal(bits.unpack(rows, m), cube)
    sender_ok = shapes.random((c, m)) < 0.3
    np.testing.assert_array_equal(
        ArrayRoundEngine._witness_reduce(sender_ok, rows),
        (sender_ok[:, :, None] & cube).any(axis=1),
    )
    np.testing.assert_array_equal(bits.popcount(rows), cube.sum(axis=2))
    if not m:
        return
    slot = int(shapes.integers(m))
    for ci in range(c):
        np.testing.assert_array_equal(bits.column(rows[ci], slot), cube[ci, :, slot])
    slots = shapes.integers(0, m, c)
    np.testing.assert_array_equal(
        bits.unpack(rows[np.arange(c), slots], m), cube[np.arange(c), slots]
    )


@settings(max_examples=30, deadline=None)
@given(
    m=st.sampled_from(PACKED_M),
    at=st.integers(0, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_packed_layout_ranks_and_pads_as_the_bool_cube(m, at, seed):
    """``_fill_adjacency`` leaves every pad bit zero, and the deputies
    ranked off its packed rows are those ranked by the bool degree."""
    c = block_sizes(m)[at] if m > 9 else 3 + at
    px, py = ragged_field(c, m, seed)
    packed = np.zeros((c, m, bits.width(m)), dtype=np.uint8)
    with np.errstate(invalid="ignore"):
        layout_module._fill_adjacency(packed, px, py, RADIUS)
    cube = adjacency_reference(px, py, RADIUS)[0]
    np.testing.assert_array_equal(packed, pack_reference(cube))
    assert not pad_bits(packed, m).any()
    mask = ~np.isnan(px)
    members = np.where(mask, np.arange(c * m).reshape(c, m), layout_module.PAD)
    dist = np.where(mask, np.hypot(px, py), np.inf)
    fields = dict(members=members, member_mask=mask, adjacency=packed)
    got = layout_module._rank_deputies(fields, dist, 3)
    degree = cube.sum(axis=2) + mask
    ids = np.where(mask, members, np.iinfo(np.int64).max)
    rank = np.lexsort((ids, -degree, dist), axis=-1)[:, :3]
    ok = np.take_along_axis(mask, rank, axis=1)
    want = np.full((c, 3), layout_module.PAD)
    want[:, : rank.shape[1]] = np.where(ok, rank, layout_module.PAD)
    np.testing.assert_array_equal(got["deputy_slots"], want)


PACKED_KINDS = dict(PAIR_KINDS, perfect=("perfect", (), 0.0))


@settings(max_examples=80, deadline=None)
@given(
    m=st.sampled_from(PACKED_M),
    case=st.sampled_from(sorted(PACKED_KINDS)),
    at=st.integers(0, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_packed_pair_pass_equals_the_bool_mask_draw(m, case, at, seed):
    """Two consecutive pair passes on the packed adjacency (chains and
    the budget carry over) against the one-shot draw over the bool
    active mask, under all five loss kinds: the packed result, its pad
    bits, the counters, the chains and the stream position."""
    kind, params, p = PACKED_KINDS[case]
    step = max(1, PAIR_CELLS // max(1, m * m))
    c = block_sizes(m)[at]
    adjacency, distances, alive = pair_field(c, m, seed)
    if kind == "bounded":
        params = (("budget", float(pair_budget(
            params, adjacency, alive[0], seed, p, step
        ))),)
    new, ref = loss_pair(kind, params, seed, p=p)
    dist = distances if kind == "distance" else None
    for alive_m in alive:
        got = new.draw_into(
            pack_reference(adjacency), dist, chain="mm", alive=alive_m
        )
        want = ref.draw_into(pair_mask(adjacency, alive_m), dist, chain="mm")
        assert got.dtype == np.uint8 and got.shape == (c, m, bits.width(m))
        np.testing.assert_array_equal(got, pack_reference(want))
        assert not pad_bits(got, m).any()
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
    """numpy reports its buffers to tracemalloc.  Beyond what it
    returns, the build holds the (C, M) and O(N) bookkeeping of the
    member slots: about eight packed adjacencies' worth on this small
    field (3.1 MB).  A bool (C, M, M) cube anywhere in the build -- the
    adjacency unpacked, or a degree summed through an int64 cast of the
    packed bytes -- adds eight more and fails the bound of twelve; the
    unblocked kernel peaked at 26x the returned arrays."""
    layout, peak = traced_peak(lambda: build_array_layout(
        200, 100, RADIUS, RngFactory(1).stream("placement")
    ))
    returned = sum(
        value.nbytes for value in vars(layout).values()
        if isinstance(value, np.ndarray)
    )
    c, m, w = layout.adjacency.shape
    assert layout.adjacency.dtype == np.uint8 and w == bits.width(m)
    assert c * m * m > 3_000_000  # the bool cube it does not hold
    assert peak <= returned + 12 * layout.adjacency.nbytes


class TracedRoundEngine(ArrayRoundEngine):
    """Records each execution's tracemalloc peak, counted from its entry."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.peaks = []

    def run_execution(self, e):
        tracemalloc.start()
        try:
            super().run_execution(e)
            self.peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("kind", ["bernoulli", "distance", "gilbert"])
def test_round_program_holds_one_pair_cube(monkeypatch, kind):
    """Beyond what it held at entry, an execution holds the packed
    ``hb_mm`` cube (0.7 MB here) plus block-sized scratch (~1.7 MB).  A
    bool (C, M, M) cube (5.3 MB) anywhere in it fails the bound.  With
    the mask formed whole and the witness reduce in 16 M-cell chunks it
    held 3 bool cubes (bernoulli), 4 (distance) and 10.5 (gilbert)."""
    monkeypatch.setattr(runner_module, "ArrayRoundEngine", TracedRoundEngine)
    config = scenario_config(
        cluster_count=200, members_per_cluster=100, executions=3,
        crash_count=6, loss_probability=0.1, loss_kind=kind,
        engine="array", seed=1,
    )
    engine = ArrayEngine(config)
    run_engine(engine)
    c, m, w = engine.layout.adjacency.shape
    cube = engine.layout.adjacency.nbytes  # packed, like ``hb_mm``
    assert w == bits.width(m) and c * m * m > 5_000_000
    assert len(engine.rounds.peaks) == 3
    for e, peak in enumerate(engine.rounds.peaks):
        # The first gilbert execution creates the ``mm`` chain family,
        # state the run keeps: one bool per (hearer, sender) cell, since
        # each step reads and writes the chains of scattered cells.
        kept = c * m * m if kind == "gilbert" and e == 0 else 0
        assert peak <= cube + 32 * PAIR_CELLS + kept, (e, peak / cube)


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


def test_update_merge_gathers_only_the_updated_rows():
    """Past 64 targets, ``_apply_updates`` merges the ``(K, T)`` rows of
    the K members that got the update (5 % here), bit for bit what the
    ``(C, M, T)`` formulation gives.  A gathered ``(C, M, T)`` copy of
    ``known`` (1.4 MB here) fails the bound by itself; the rows and
    their index arrays take under a third of it."""
    layout = build_array_layout(200, 100, RADIUS, RngFactory(1).stream("placement"))
    n = layout.node_count
    loss = ArrayLossDraw("perfect", (), 0.0, RADIUS, np.random.default_rng(1))
    engine = ArrayRoundEngine(
        layout, FdsConfig(), loss, NullTracer(), np.full(n, 9, np.int64)
    )
    for nid in layout.members[layout.member_mask][:70].tolist():
        engine._col(nid)
    rng = np.random.default_rng(2)
    c, m, t = layout.members.shape + (engine.T,)
    engine.known[...] = rng.random(engine.known.shape) < 0.3
    got_update = rng.random((c, m)) < 0.05
    refuted = rng.random((c, t - 3)) < 0.2  # narrower: grown targets
    # The (C, M, T) formulation.
    want = engine.known.copy()
    safe = np.where(layout.member_mask, layout.members, 0)
    mk = want[safe]
    rec = got_update[:, :, None]
    wide = np.zeros((c, t), dtype=bool)
    wide[:, : t - 3] = refuted
    mk &= ~(rec & wide[:, None, :])
    mk |= rec & want[layout.head_nids][:, None, :]
    take = got_update & layout.member_mask
    want[layout.members[take]] = mk[take]
    _, peak = traced_peak(lambda: engine._apply_updates(got_update, refuted))
    assert t > 64 and c * m * t > 1_000_000
    assert peak <= c * m * t // 3
    np.testing.assert_array_equal(engine.known, want)


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


def gilbert_ladder(loss, count, chain, at):
    """``count`` sequential attempts on the gilbert link ``chain[at]``,
    one ``rng.random(1)`` each for the transition and then the loss: the
    per-call ladder the tape's replaced."""
    state = loss._chain_view(chain, at, ())
    s = np.asarray([state[at]])
    out = np.empty(count, dtype=bool)
    for i in range(count):
        s, lost = loss._gilbert_flat(s)
        out[i] = not lost[0]
    state[at] = bool(s[0])
    loss.attempted += count
    loss.delivered_count += int(out.sum())
    return out


class LoggedLossDraw(ArrayLossDraw):
    """Logs every inter-cluster draw -- gateway ladders and relays -- as
    ``(chain, at, delivered, budget before, budget after)``, drawn per
    call (the oracle's ``delivered`` / ``draw_into``) or off a tape (the
    scan's ``ladder`` / ``broadcast``).  A relay logs its active copies'
    flags.  ``delivered`` with ``chain`` draws a gilbert ladder per call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def delivered(self, count, distances=None, chain=None, at=None):
        before = self.budget_left
        if self.kind == "gilbert" and chain is not None:
            out = gilbert_ladder(self, count, chain, at)
        else:
            out = super().delivered(count, distances)
        if chain in ("over", "rep"):
            self.log.append((chain, at, out.tolist(), before, self.budget_left))
        return out

    def draw_into(self, active, distances=None, chain=None, at=None, alive=None):
        before = self.budget_left
        out = super().draw_into(active, distances, chain=chain, at=at, alive=alive)
        if chain == "cm" and isinstance(at, int):  # a relay
            self.log.append((chain, at, out[active].tolist(), before, self.budget_left))
        return out

    def tape(self):
        return LoggedTape(self)


class LoggedTape(loss_module.UniformTape):
    def ladder_flags(self, attempts, chain, at, link_p=None):
        before = self._loss.budget_left
        flags = super().ladder_flags(attempts, chain, at, link_p)
        self._loss.log.append((chain, at, list(flags), before, self._loss.budget_left))
        return flags

    def broadcast(self, active, count, link_p=None, chain=None, at=None):
        before = self._loss.budget_left
        out = super().broadcast(active, count, link_p, chain, at)
        self._loss.log.append((chain, at, out.tolist(), before, self._loss.budget_left))
        return out


#: Tape cases: ``(kind, p, params)``; the bounded budgets are set per
#: example (:func:`tape_budget`).
TAPE_CASES = {
    "perfect": ("perfect", 0.0, ()),
    "p0": ("bernoulli", 0.0, ()),
    "p01": ("bernoulli", 0.1, ()),
    "p1": ("bernoulli", 1.0, ()),
    "bounded_in_ladder": ("bounded", 0.3, None),
    "bounded_in_row": ("bounded", 0.3, None),
    "bounded_on_last": ("bounded", 0.3, None),
    "bounded_p1": ("bounded", 1.0, (("budget", 5.0),)),
    "distance": ("distance", 0.0, ()),
    "gilbert": ("gilbert", 0.0, GILBERT),
}
TAPE_LINKS = (4, 3)  # (B, G) ladder cells


def tape_field(m, seed):
    """Row activity, CH distances and ladder link distances."""
    rng = np.random.default_rng(seed)
    active = rng.random((3, m)) < 0.8
    hd = rng.uniform(0.0, 1.2 * RADIUS, (3, m))
    links = rng.uniform(0.0, 1.2 * RADIUS, TAPE_LINKS)
    links[0, 0] = np.inf  # a pad: the far loss probability
    return active, hd, links


def per_call_draws(loss, draws, field):
    """``draws`` as the per-call engine drew them: a ladder through
    ``delivered``, a relay through ``draw_into`` on one row."""
    active, hd, links = field
    for ladder, attempts, cell in draws:
        if ladder:
            at = divmod(cell % links.size, links.shape[1])
            loss.delivered(attempts, np.full(attempts, links[at]), chain="rep", at=at)
        else:
            c = cell % active.shape[0]
            loss.draw_into(active[c], hd[c], chain="cm", at=c)


def tape_draws(loss, draws, field):
    """The same draws off one tape."""
    active, hd, links = field
    link_p = loss.link_loss(links)
    with loss.tape() as tape:
        for ladder, attempts, cell in draws:
            if ladder:
                at = divmod(cell % links.size, links.shape[1])
                tape.ladder(attempts, "rep", at, link_p)
            else:
                c = cell % active.shape[0]
                copy_p = loss.link_loss(hd[c, active[c]])
                tape.broadcast(active[c], int(active[c].sum()), copy_p, "cm", c)


def tape_budget(case, draws, field, seed):
    """A budget that runs out inside a ladder, inside a row, or on a
    call's last copy, read off a budget-free per-call run; None when
    ``draws`` has no such call."""
    probe = LoggedLossDraw(
        "bounded", (("budget", 1e9),), 0.3, RADIUS, np.random.default_rng(seed)
    )
    for name in ("rep", "cm"):
        probe.ensure_chain(name, field[2].shape if name == "rep" else field[0].shape)
    per_call_draws(probe, draws, field)
    lost_before = 0
    for chain, _, flags, _, _ in probe.log:
        lost = [i for i, arrived in enumerate(flags) if not arrived]
        wanted = {
            "bounded_in_ladder": chain == "rep" and len(lost) >= 2,
            "bounded_in_row": chain == "cm" and len(lost) >= 2,
            "bounded_on_last": bool(flags) and not flags[-1],
        }[case]
        if wanted:
            spend = len(lost) if case == "bounded_on_last" else 1
            return (("budget", float(lost_before + spend)),)
        lost_before += len(lost)
    return None


def tape_pair(case, draws, field, seed):
    kind, p, params = TAPE_CASES[case]
    if params is None:
        params = tape_budget(case, draws, field, seed)
        assume(params is not None)
    pair = []
    for _ in range(2):
        loss = LoggedLossDraw(kind, params, p, RADIUS, np.random.default_rng(seed))
        loss.ensure_chain("rep", field[2].shape)
        loss.ensure_chain("cm", field[0].shape)
        pair.append(loss)
    return pair


TAPE_DRAWS = st.lists(
    st.tuples(st.booleans(), st.integers(1, 4), st.integers(0, 11)),
    min_size=1, max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(sorted(TAPE_CASES)),
    draws=TAPE_DRAWS,
    m=st.sampled_from([12, 150, 5000]),  # 5000: one row past _TAPE_MAX
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_tape_draws_equal_per_call_draws(case, draws, m, seed):
    """Any sequence of ladders and rows off one tape gives, draw for
    draw, the per-call draws: flags, counters, budget, chains, and the
    stream left at the same position -- across block refills too."""
    field = tape_field(m, seed)
    new, ref = tape_pair(case, draws, field, seed)
    tape_draws(new, draws, field)
    per_call_draws(ref, draws, field)
    assert new.log == ref.log
    assert_same_state(new, ref)
    assert_same_stream_position(new, ref)
    if case.startswith("bounded_in") or case == "bounded_on_last":
        assert ref.budget_left == 0


@pytest.mark.parametrize("case", ["p01", "gilbert", "distance"])
def test_tape_grows_past_its_first_block(case):
    """Rows of 150 copies, 300 uniforms for gilbert, run the tape
    through several refills of its first block."""
    draws = [(False, 1, c) for c in range(12)] + [(True, 4, 5)]
    field = tape_field(150, 3)
    new, ref = tape_pair(case, draws, field, 3)
    tape_draws(new, draws, field)
    per_call_draws(ref, draws, field)
    assert new.attempted > 4 * loss_module._TAPE_FIRST
    assert new.log == ref.log
    assert_same_state(new, ref)
    assert_same_stream_position(new, ref)


def test_tape_leaves_the_stream_where_its_draws_did_after_an_exception():
    """An exception inside the tape still rewinds and advances the
    stream past the consumed uniforms only (a cached half-word from a
    32-bit draw included), and hands ``rng`` back; any other draw on the
    stream while the tape is open raises."""
    field = tape_field(12, 7)
    draws = [(True, 3, 1), (False, 1, 0), (True, 2, 4)]
    new, ref = tape_pair("p01", draws, field, 7)
    for loss in (new, ref):
        loss.rng.integers(0, 10, dtype=np.uint32)  # caches the other half
    generator = new.rng
    with pytest.raises(ValueError, match="mid-fixpoint"):
        with new.tape() as tape:
            tape.ladder(3, "rep", (0, 1))
            tape.broadcast(np.arange(12) < 5, 5, None, "cm", 0)
            raise ValueError("mid-fixpoint")
    assert new.rng is generator
    other = ArrayLossDraw("bernoulli", (), 0.1, RADIUS, np.random.default_rng(7))
    with other.tape():
        for draw in (
            lambda: other.delivered(3),
            lambda: other.draw_into(field[0]),
            other.tape,
        ):
            with pytest.raises(ExperimentError, match="tape is open"):
                draw()
    ref.delivered(3, chain="rep", at=(0, 1))
    ref.draw_into(np.arange(12) < 5, chain="cm", at=0)
    assert new.log == ref.log
    assert_same_state(new, ref)
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state
    assert new.rng.integers(0, 10, dtype=np.uint32) == ref.rng.integers(
        0, 10, dtype=np.uint32
    )
    assert_same_stream_position(new, ref)


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
    ints, words = bits.bitmasks(rows)
    assert ints == [
        sum(1 << j for j in np.flatnonzero(row).tolist()) for row in rows
    ]
    assert words.dtype == np.dtype("<u8") and words.shape == (5, -(-t // 64))
    np.testing.assert_array_equal(bits.bool_rows(ints, t), rows)


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
