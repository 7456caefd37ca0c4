"""The array engine's blocked kernels against one-shot references.

``_fill_adjacency``, ``ArrayLossDraw.delivered`` / ``draw_into`` and the
inter-cluster frontier scan stream through cache-sized blocks; each must
give, bit for bit, what the unblocked formulation gives -- same arrays,
same counters, and the random stream left at the same position.  The
unblocked formulations live here and nowhere else.
"""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import ScenarioConfig
from repro.fds.config import FdsConfig
from repro.sim.array_engine import layout as layout_module
from repro.sim.array_engine import loss as loss_module
from repro.sim.array_engine.layout import build_array_layout
from repro.sim.array_engine.loss import ArrayLossDraw
from repro.sim.array_engine.rounds import ArrayRoundEngine
from repro.sim.trace import NullTracer
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


SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]


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
# (d) frontier scan vs recomputing every channel every wave
# ---------------------------------------------------------------------------
def full_rescan_intercluster(engine, alive, alive_m, hd, waves):
    """``_intercluster`` as it was: ``has`` over all channels, each wave.
    Appends one ``[(channel, ranks_ok, crossed), ...]`` list per wave."""
    if not engine.T:
        return
    fds = engine.fds
    attempts = (fds.max_forward_retries + 1) if fds.implicit_ack else 1
    ok = engine.ch_gw_ok
    safe_gw = np.where(ok, engine.ch_gw_ids, 0)
    alive_gw = ok & alive[safe_gw]
    guard = 0
    while guard <= engine.C + 2:
        guard += 1
        dst_known = engine.known[engine.ch_dst_nid]
        gw_known = engine.known[safe_gw]
        out_has = (gw_known & ~dst_known[:, None, :]).any(axis=2)
        in_has = (engine.known[engine.ch_src_nid] & ~dst_known).any(axis=1)
        has = np.where(engine.ch_inbound[:, None], in_has[:, None], out_has)
        has &= alive_gw
        active = np.flatnonzero(has.any(axis=1))
        if active.size == 0:
            break
        wave = []
        for b in active:
            crossed = engine._cross_channel(
                int(b), has[b], alive_m, hd, attempts
            )
            wave.append((int(b), has[b].tolist(), crossed))
        waves.append(wave)
        if not any(crossed for _, _, crossed in wave):
            break


def frontier_engines(config):
    """Two identical engines (own copies of the loss stream) on one
    field, ``crash_count`` members silent from execution 1 on."""
    layout = build_array_layout(
        config.cluster_count, config.members_per_cluster,
        config.transmission_range, RngFactory(config.seed).stream("placement"),
    )
    crash_exec = np.full(layout.node_count, config.executions + 1, np.int64)
    members = np.arange(config.cluster_count, layout.node_count)
    crashed = np.random.default_rng(config.seed).choice(
        members, config.crash_count, replace=False
    )
    crash_exec[crashed] = 1
    loss = ArrayLossDraw(
        config.loss_kind, config.loss_params, config.loss_probability,
        config.transmission_range,
        RngFactory(config.seed).stream("array", "loss"),
    )
    frontier = ArrayRoundEngine(
        layout, config.fds, loss, NullTracer(), crash_exec
    )
    return frontier, copy.deepcopy(frontier)


def run_recording_waves(frontier, rescan, executions):
    """Per execution, every wave's ``(channel, ranks_ok, crossed)`` list
    on both engines: ``(frontier, rescan)``, each ``[execution][wave]``."""
    frontier_runs, rescan_runs = [], []
    scan, cross = frontier._has_news, frontier._cross_channel

    def scanning(rows, alive_gw):  # one scan opens each wave
        frontier_runs[-1].append([])
        return scan(rows, alive_gw)

    def crossing(b, ranks_ok, *rest):
        crossed = cross(b, ranks_ok, *rest)
        frontier_runs[-1][-1].append((b, ranks_ok.tolist(), crossed))
        return crossed

    frontier._has_news, frontier._cross_channel = scanning, crossing
    rescan._intercluster = lambda alive, alive_m, hd: full_rescan_intercluster(
        rescan, alive, alive_m, hd, rescan_runs[-1]
    )
    for e in range(executions):
        frontier_runs.append([])
        rescan_runs.append([])
        frontier.run_execution(e)
        rescan.run_execution(e)
    # The scan after the last progressing wave opens one nothing crosses in.
    return [[w for w in run if w] for run in frontier_runs], rescan_runs


def assert_same_outcome(frontier, rescan):
    np.testing.assert_array_equal(frontier.known, rescan.known)
    assert frontier.transmissions == rescan.transmissions
    assert_same_state(frontier.loss, rescan.loss)
    assert_same_stream_position(frontier.loss, rescan.loss)


FRONTIER_FIELD = dict(
    cluster_count=100, members_per_cluster=12, executions=4, crash_count=8,
    engine="array", seed=4,
)


def test_frontier_scan_crosses_the_channels_a_full_rescan_would():
    config = ScenarioConfig(loss_probability=0.25, **FRONTIER_FIELD)
    frontier, rescan = frontier_engines(config)
    got, want = run_recording_waves(frontier, rescan, config.executions)
    assert got == want
    assert max(len(run) for run in want) > 3  # news did travel in waves
    assert_same_outcome(frontier, rescan)


def test_exhausted_report_ladder_keeps_its_channel_active():
    """70 % loss and one attempt per report: ladders run dry, and a
    channel whose crossing failed is tried again in the next wave even
    when neither of its clusters was entered -- the row the frontier
    scan did *not* recompute must still say so."""
    config = ScenarioConfig(
        loss_probability=0.7,
        fds=FdsConfig(implicit_ack=False),
        **FRONTIER_FIELD,
    )
    frontier, rescan = frontier_engines(config)
    got, want = run_recording_waves(frontier, rescan, config.executions)
    assert got == want
    src, dst = frontier.ch_src.tolist(), frontier.ch_dst.tolist()
    retained_retries = 0
    for run in got:
        for wave, following in zip(run, run[1:]):
            entered = {dst[b] for b, _, crossed in wave if crossed}
            again = {b for b, _, _ in following}
            retained_retries += sum(
                1 for b, _, crossed in wave
                if not crossed and b in again
                and src[b] not in entered and dst[b] not in entered
            )
    assert retained_retries > 0
    assert_same_outcome(frontier, rescan)
