"""Property-based tests (hypothesis) on core data structures and invariants."""

import functools
import heapq
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis.false_detection import (
    p_false_detection,
    p_false_detection_literal,
)
from repro.analysis.incompleteness import (
    p_incompleteness,
    p_incompleteness_literal,
)
from repro.cluster.geometric import build_clusters
from repro.fds.config import FdsConfig
from repro.fds.detector import evidence_mask, failure_rule_mask
from repro.fds.digest import build_digest
from repro.fds.reports import BoundaryLedger, ReportHistory
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.obs.spool import SpoolingTracer
from repro.sim.trace import TraceRecord, record_line
from repro.topology.graph import UnitDiskGraph
from repro.util.geometry import Vec2, lens_area
from repro.util.logmath import log_binomial, log_binomial_pmf, logsumexp
from repro.util.rng import derive_seed
from repro.util.tables import render_table
from tests.spool_helpers import record_to_dict


# ----------------------------------------------------------------------
# Event queue / engine ordering
# ----------------------------------------------------------------------

event_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(min_value=-3, max_value=3),
    ),
    min_size=1,
    max_size=60,
)


@given(event_specs)
def test_event_queue_pops_in_total_order(specs):
    q = EventQueue()
    for i, (time, priority) in enumerate(specs):
        q.push(time, lambda: None, priority=priority)
    popped = []
    while q:
        e = q.pop()
        popped.append((e.time, e.priority, e.sequence))
    assert popped == sorted(popped)


@given(event_specs, st.sets(st.integers(min_value=0, max_value=59)))
def test_event_queue_cancellation_removes_exactly_those(specs, to_cancel):
    q = EventQueue()
    events = [q.push(t, lambda: None, priority=p) for t, p in specs]
    cancelled = set()
    for index in to_cancel:
        if index < len(events):
            q.cancel(events[index])
            cancelled.add(events[index].sequence)
    survivors = []
    while q:
        survivors.append(q.pop().sequence)
    ordered = sorted(events, key=lambda e: (e.time, e.priority, e.sequence))
    expected = [e.sequence for e in ordered if e.sequence not in cancelled]
    assert survivors == expected


class HeapModel:
    """The queue the simulator must be indistinguishable from: one heap,
    one entry per firing, a batch pushed entry by entry in array order."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = 0

    def at(self, time, priority, callback):
        entry = [time, priority, self._sequence, callback, False]
        self._sequence += 1
        heapq.heappush(self._heap, entry)
        return entry

    def batch(self, times, callback):
        for target, time in enumerate(times):
            self.at(time, 0, functools.partial(callback, target))

    def cancel(self, entry):
        entry[4] = True

    def run(self, split):
        while self._heap:
            time, _priority, _sequence, callback, cancelled = heapq.heappop(
                self._heap
            )
            if not cancelled:
                self.now = time
                callback()


class EngineUnderTest:
    def __init__(self):
        self.sim = Simulator()

    @property
    def now(self):
        return self.sim.now

    def at(self, time, priority, callback):
        return self.sim.schedule_at(time, callback, priority=priority)

    def batch(self, times, callback):
        self.sim.schedule_batch(
            np.array(times, dtype=np.float64),
            np.arange(len(times), dtype=np.int64),
            callback,
        )

    def cancel(self, event):
        self.sim.cancel(event)

    def run(self, split):
        # Two legs, so a run also ends (and resumes) mid-lane.
        self.sim.run_until(split)
        self.sim.run()


def run_program(scheduler, program, split):
    """Interpret ``program`` on ``scheduler``; returns the firing log.

    Every fired callback logs where in the program it came from and the
    clock it saw, then runs its child actions -- scheduling, batching and
    cancelling from inside callbacks, as protocol handlers do.
    """
    log = []
    handles = []  # [handle, fired_or_cancelled]

    def interpret(actions, path):
        for index, action in enumerate(actions):
            label = path + (index,)
            if action[0] == "at":
                _, delay, priority, children = action
                slot = [None, False]

                def fire(label=label, children=children, slot=slot):
                    slot[1] = True
                    log.append((label, scheduler.now))
                    interpret(children, label)

                slot[0] = scheduler.at(scheduler.now + delay, priority, fire)
                handles.append(slot)
            elif action[0] == "batch":
                _, delays, children = action

                def deliver(target, label=label, children=children):
                    log.append((label, target, scheduler.now))
                    if target == 0:
                        interpret(children, label)

                scheduler.batch([scheduler.now + d for d in delays], deliver)
            elif handles:
                slot = handles[action[1] % len(handles)]
                if not slot[1]:
                    slot[1] = True
                    scheduler.cancel(slot[0])

    interpret(program, ())
    scheduler.run(split)
    return log


# Few distinct delays (0 included), so exact time ties between heap
# events and lane entries -- and entries due "now" -- are the common case.
tie_prone_delays = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.75])


def queue_actions(children):
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("at"), tie_prone_delays,
                st.integers(min_value=-2, max_value=2), children,
            ),
            st.tuples(
                st.just("batch"),
                st.lists(tie_prone_delays, max_size=5),
                children,
            ),
            st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
        ),
        max_size=5,
    )


queue_programs = st.recursive(st.just([]), queue_actions, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(queue_programs, st.sampled_from([0.0, 0.5, 1.0, 2.25]))
def test_delivery_lane_fires_exactly_like_a_single_heap(program, split):
    expected = run_program(HeapModel(), program, split)
    engine = EngineUnderTest()
    assert run_program(engine, program, split) == expected
    assert engine.sim.processed_events == len(expected)
    assert engine.sim.pending_events == 0


@given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False),
                min_size=1, max_size=40))
def test_simulator_clock_never_goes_backwards(times):
    sim = Simulator()
    observed = []
    for t in times:
        sim.schedule_at(t, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == max(times)


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------


@given(
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_lens_area_bounds(radius, k):
    distance = k * radius
    area = lens_area(radius, distance)
    assert 0.0 <= area <= math.pi * radius * radius + 1e-6


@given(
    st.floats(min_value=1.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_lens_area_monotone(radius, k1, k2):
    d1, d2 = sorted((k1 * 2 * radius, k2 * 2 * radius))
    assert lens_area(radius, d1) >= lens_area(radius, d2) - 1e-9


# ----------------------------------------------------------------------
# Log-domain math
# ----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
def test_log_binomial_symmetry(n, k):
    assume(k <= n)
    assert math.isclose(
        log_binomial(n, k), log_binomial(n, n - k), rel_tol=1e-12, abs_tol=1e-9
    )


@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_binomial_pmf_normalizes(n, p):
    total = logsumexp(log_binomial_pmf(k, n, p) for k in range(n + 1))
    assert math.isclose(total, 0.0, abs_tol=1e-9)


@given(st.lists(st.floats(min_value=-700, max_value=0), min_size=1, max_size=50))
def test_logsumexp_upper_and_lower_bounds(values):
    result = logsumexp(values)
    assert result >= max(values) - 1e-12
    assert result <= max(values) + math.log(len(values)) + 1e-12


# ----------------------------------------------------------------------
# Analysis measures
# ----------------------------------------------------------------------

measure_params = st.tuples(
    st.integers(min_value=2, max_value=120),
    st.floats(min_value=0.0, max_value=1.0),
)


@given(measure_params)
def test_false_detection_is_probability_and_matches_literal(params):
    n, p = params
    closed = p_false_detection(n, p)
    assert 0.0 <= closed <= 1.0
    literal = p_false_detection_literal(n, p)
    assert math.isclose(literal, closed, rel_tol=1e-8, abs_tol=1e-300)


@given(measure_params)
def test_incompleteness_is_probability_and_bounded_by_p(params):
    n, p = params
    value = p_incompleteness(n, p)
    assert 0.0 <= value <= p + 1e-12
    literal = p_incompleteness_literal(n, p)
    assert math.isclose(literal, value, rel_tol=1e-8, abs_tol=1e-300)


# ----------------------------------------------------------------------
# Detection rule
# ----------------------------------------------------------------------

node_ids = st.integers(min_value=0, max_value=40)


@given(
    st.sets(node_ids, max_size=20),
    st.sets(node_ids, max_size=20),
    st.dictionaries(node_ids, st.frozensets(node_ids, max_size=10), max_size=10),
)
def test_failure_rule_detects_exactly_the_unevidenced(expected, heartbeats, digests):
    nodes = sorted(expected | heartbeats | set(digests))
    listed = set().union(*digests.values())

    def row(group):
        return np.array([v in group for v in nodes], dtype=bool)

    flagged = failure_rule_mask(
        row(expected), evidence_mask(row(heartbeats), row(digests), row(listed))
    )
    detected = frozenset(v for v, hit in zip(nodes, flagged) if hit)
    for v in expected:
        has_evidence = (
            v in heartbeats
            or v in digests
            or any(v in heard for heard in digests.values())
        )
        assert (v not in detected) == has_evidence
    assert detected <= frozenset(expected)


@given(
    st.sets(node_ids, max_size=20),
    st.sets(node_ids, max_size=20),
    st.sets(node_ids, max_size=20),
)
def test_digest_filter_properties(heard, members, extra):
    sender = 99
    digest = build_digest(sender, 0, heard | extra, members)
    assert digest.heard <= frozenset(members)
    assert sender not in digest.heard


# ----------------------------------------------------------------------
# Report bookkeeping
# ----------------------------------------------------------------------


@given(st.lists(st.frozensets(node_ids, max_size=8), max_size=15))
def test_report_history_add_is_monotone_and_exact(batches):
    history = ReportHistory()
    seen = set()
    for batch in batches:
        novel = history.add(batch)
        assert novel == frozenset(batch) - frozenset(seen)
        seen |= set(batch)
        assert history.known == frozenset(seen)


@given(
    st.lists(
        st.tuples(node_ids, st.frozensets(node_ids, min_size=1, max_size=5)),
        max_size=15,
    )
)
def test_boundary_ledger_pending_is_acked_complement(operations):
    ledger = BoundaryLedger()
    acked = {}
    for peer, failures in operations:
        ledger.note_ack(peer, failures)
        acked.setdefault(peer, set()).update(failures)
    for peer, known in acked.items():
        probe = frozenset(range(0, 41))
        assert ledger.pending(peer, probe) == probe - frozenset(known)


# ----------------------------------------------------------------------
# Clustering invariants
# ----------------------------------------------------------------------

positions_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=500.0),
    ),
    min_size=1,
    max_size=40,
)


@settings(deadline=None)
@given(positions_strategy)
def test_lowest_id_partition_invariants(points):
    graph = UnitDiskGraph(
        {i: Vec2(x, y) for i, (x, y) in enumerate(points)}, 100.0
    )
    partition = {
        head: cluster.members
        for head, cluster in build_clusters(graph).clusters.items()
    }
    all_members = [m for members in partition.values() for m in members]
    # Exactly-one-cluster membership (feature F3 at the partition level).
    assert len(all_members) == len(set(all_members))
    for head, members in partition.items():
        assert head in members
        for member in members:
            if member != head:
                assert graph.are_neighbors(head, member)
        # The head has the lowest NID in its cluster.
        assert head == min(members)
    # Heads are never adjacent.
    heads = sorted(partition)
    for i, a in enumerate(heads):
        for b in heads[i + 1:]:
            assert not graph.are_neighbors(a, b)
    # Coverage: every non-isolated node is clustered.
    isolated = {nid for nid in graph.nodes() if graph.degree(nid) == 0}
    assert set(all_members) == set(graph.nodes()) - isolated


# ----------------------------------------------------------------------
# Misc utilities
# ----------------------------------------------------------------------


@given(st.integers(), st.lists(st.text(max_size=10), max_size=5))
def test_derive_seed_is_stable_and_in_range(root, names):
    seed = derive_seed(root, *names)
    assert 0 <= seed < 2**64
    assert seed == derive_seed(root, *names)


@given(
    st.lists(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(
                    alphabet=st.characters(
                        blacklist_categories=("Cs", "Cc", "Zl", "Zp")
                    ),
                    max_size=8,
                ),
                st.integers(min_value=-10**9, max_value=10**9),
            ),
            min_size=2,
            max_size=2,
        ),
        min_size=1,
        max_size=10,
    )
)
def test_render_table_never_crashes_and_aligns(rows):
    text = render_table(["a", "b"], rows)
    lines = text.splitlines()
    assert len(lines) == len(rows) + 2
    widths = {len(line.rstrip()) <= len(lines[0]) + 200 for line in lines}
    assert widths  # smoke: all lines rendered


# ----------------------------------------------------------------------
# Execution timing policy (one owner: FdsConfig)
# ----------------------------------------------------------------------

#: phi from rt's wall-scaled 0.3 s (thop 25 ms) up to the paper's 30 s.
timing_cases = st.tuples(
    st.sampled_from([0.3, 0.4, 0.6, 1.0, 6.0, 8.0, 20.0, 30.0, 1e3]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=400),
)


@given(timing_cases)
def test_crash_execution_inverts_crash_time_and_precedes_run_end(case):
    phi, start, execution, extra = case
    fds = FdsConfig(phi=phi, thop=phi / 16.0, wait_slot=phi / 1000.0)
    crash = fds.crash_time(start, execution)
    assert fds.crash_execution(start, crash) == execution
    # The faultload window draws from 1 .. max(1, count - 2): such a
    # crash always lands before the run ends, outside any execution.
    count = execution + extra
    assert crash < fds.run_end(start, count)
    assert fds.run_end(start, count) < start + count * phi
    assert (crash - start) % phi > fds.execution_duration()



# ----------------------------------------------------------------------
# Trace line serialization
# ----------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([1e-07, -0.0, 0.1 + 0.2, 1e22, 5e-324]),
    st.floats().map(np.float64),  # a float subclass json encodes
    st.text(max_size=12),
)
#: Detail keys, among them the flat record's own names and names that
#: need escaping (or a literal ``%`` in a ``%`` template).
detail_keys = st.one_of(
    st.text(max_size=8),
    st.sampled_from([
        "time", "kind", "node", 'q"uote', "back\\slash", "new\nline",
        "%s", "100%", "\u00e9", "\ud800", "\x7f",
    ]),
)
detail_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(detail_keys, inner, max_size=3),
    ),
    max_leaves=12,
)
record_times = st.one_of(
    st.floats(), st.integers(), st.floats().map(np.float64),
)
record_kinds = st.one_of(
    st.text(max_size=20), st.sampled_from(["radio.rx", 'a"b', "%s%%"]),
)
record_nodes = st.one_of(st.none(), st.integers(min_value=0, max_value=10**6))


def _dumps_or_error(thunk):
    try:
        return thunk()
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)


@given(
    record_times,
    record_kinds,
    record_nodes,
    st.dictionaries(detail_keys, detail_values, max_size=6),
)
@example(float("nan"), "k", None, {"v": float("inf"), "w": -float("inf")})
@example(3, "k%s", 1, {"%s": "100%", 'q"uote': {"b": [1.5, None]}, "time": 2})
@example(np.float64(0.5), "rx", 4, {"v": np.float64(1e-07), "kind": "x"})
def test_record_line_is_the_sorted_dump_of_the_flat_record(
    time, kind, node, detail
):
    # The spool's bytes are pinned to what json.dumps of the flat dict
    # gave before record_line existed: same key order, float repr,
    # ASCII escaping and separators.  A detail key named time/kind/node
    # overrides the record's own, as in the flat dict.
    expected = json.dumps(
        record_to_dict(TraceRecord(time, kind, node, detail)), sort_keys=True
    )
    assert record_line(time, kind, node, detail) == expected
    assert "\n" not in expected


@pytest.mark.parametrize(
    "detail",
    [
        {"x": np.int64(3)}, {"x": 1.5, "y": [np.bool_(True)]},
        {"x": object()}, {"x": {1: "a", "b": 2}},
        # A key that is no str cannot be sorted among the record's own.
        {1: 1}, {2.5: 1}, {None: 1}, {True: 1},
    ],
    ids=[
        "int64", "nested-bool_", "object", "mixed-nested-keys",
        "int-key", "float-key", "none-key", "bool-key",
    ],
)
def test_record_line_raises_what_json_raises(detail):
    flat = {"time": 1.0, "kind": "k", "node": 2, **detail}
    expected = _dumps_or_error(lambda: json.dumps(flat, sort_keys=True))
    assert isinstance(expected, tuple)
    assert _dumps_or_error(lambda: record_line(1.0, "k", 2, detail)) == (
        expected
    )


emit_rows = st.lists(
    st.tuples(
        record_times,
        record_kinds,
        record_nodes,
        st.lists(st.tuples(detail_keys, detail_values), max_size=5),
    ),
    max_size=8,
)


@settings(max_examples=50)
@given(emit_rows)
def test_spooled_rows_are_their_record_lines(rows):
    # SpoolingTracer.emit fills the template from the row itself; the
    # file holds record_line of the row's detail dict, repeated keys
    # included (the last value wins).
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        with SpoolingTracer(path) as tracer:
            for time, kind, node, pairs in rows:
                keys = tuple(key for key, _ in pairs)
                tracer.emit(time, kind, node, keys, *(v for _, v in pairs))
        expected = "".join(
            record_line(time, kind, node, dict(pairs)) + "\n"
            for time, kind, node, pairs in rows
        )
        assert path.read_text(encoding="utf-8") == expected


def test_a_row_with_more_or_fewer_values_than_keys_spools_their_pairs(
    tmp_path,
):
    path = tmp_path / "t.jsonl"
    rows = [(1.0, "k", 2, ("a", "b"), (1,)), (2.0, "k", 3, ("a",), (1, 2))]
    with SpoolingTracer(path) as tracer:
        for time, kind, node, keys, values in rows:
            tracer.emit(time, kind, node, keys, *values)
    assert path.read_text(encoding="utf-8").splitlines() == [
        record_line(time, kind, node, dict(zip(keys, values)))
        for time, kind, node, keys, values in rows
    ]


@pytest.mark.parametrize(
    "value", [np.int64(3), np.bool_(True), object()],
    ids=["int64", "bool_", "object"],
)
def test_spooling_an_unencodable_value_raises_what_json_raises(
    tmp_path, value
):
    expected = _dumps_or_error(lambda: json.dumps({"x": value}))
    with SpoolingTracer(tmp_path / "t.jsonl") as tracer:
        assert _dumps_or_error(
            lambda: tracer.emit(1.0, "k", 2, ("x",), value)
        ) == expected
