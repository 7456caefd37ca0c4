"""Tests for tracing."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.trace as trace_module
from repro.obs.spool import SpoolingTracer
from repro.sim.trace import (
    NullTracer,
    RecordingTracer,
    TraceRecord,
    Tracer,
    iter_jsonl,
)


class TestRecordingTracer:
    def test_record_and_filter(self):
        tracer = RecordingTracer()
        tracer.record(1.0, "radio.tx", node=1)
        tracer.record(2.0, "radio.rx", node=2)
        tracer.record(3.0, "fds.detection", node=3, target=9)
        assert len(tracer) == 3
        assert tracer.count("radio") == 2
        assert tracer.count("radio.tx") == 1
        assert [r.time for r in tracer.filter("fds")] == [3.0]

    def test_prefix_matching_is_segment_aware(self):
        tracer = RecordingTracer()
        tracer.record(1.0, "radio.tx")
        tracer.record(1.0, "radiology")
        assert tracer.count("radio") == 1

    def test_prefix_scans_skip_a_longer_sibling_kind(self):
        tracer = RecordingTracer()
        tracer.row(1.0, "radiox", 1, trace_module.LOSS_KEYS, 2)
        tracer.row(2.0, "radio", 1, trace_module.LOSS_KEYS, 2)
        tracer.row(3.0, "radio.rx", 1, trace_module.LOSS_KEYS, 2)
        assert tracer.count("radio") == 2
        assert [r.time for r in tracer.iter_kind("radio")] == [2.0, 3.0]
        assert [r.time for r in tracer.filter("radio")] == [2.0, 3.0]
        assert tracer.count("radiox") == 1

    def test_detail_payload(self):
        tracer = RecordingTracer()
        tracer.record(1.0, "fds.detection", node=1, target=5, execution=2)
        record = tracer.records[0]
        assert record.detail["target"] == 5
        assert record.detail["execution"] == 2

    def test_kinds_histogram(self):
        tracer = RecordingTracer()
        for _ in range(3):
            tracer.record(0.0, "a")
        tracer.record(0.0, "b")
        assert tracer.kinds() == {"a": 3, "b": 1}

    def test_clear(self):
        tracer = RecordingTracer()
        tracer.record(0.0, "a")
        tracer.clear()
        assert len(tracer) == 0

    def test_iter_kind(self):
        tracer = RecordingTracer()
        tracer.record(0.0, "x.y")
        tracer.record(0.0, "x.z")
        assert len(list(tracer.iter_kind("x"))) == 2


    def test_record_fast_path_matches_emit(self):
        # ``record`` appends without the ``emit`` dispatch; both must
        # hold the same records.
        calls = [
            (0.5, "radio.tx", 3, {"recipient": None}),
            (0.5, "radio.rx", 4, {"sender": 3, "overheard": False}),
            (0.75, "meta.note", None, {}),
        ]
        direct, emitted = RecordingTracer(), RecordingTracer()
        for time, kind, node, detail in calls:
            direct.record(time, kind, node=node, **detail)
            emitted.emit(TraceRecord(time, kind, node, detail))
        assert direct.records == emitted.records


def test_null_tracer_discards():
    tracer = NullTracer()
    tracer.record(0.0, "anything")  # must not raise or store
    tracer.row(0.0, "radio.tx", 1, trace_module.TX_KEYS, None)


def test_only_recording_tracer_overrides_record(tmp_path):
    # Besides RecordingTracer's in-memory fast path, SpoolingTracer is
    # the one other ``record`` override: a record bound for disk only
    # needs its JSON line, so ``record`` encodes the arguments without
    # building a TraceRecord first -- and must write exactly what
    # ``emit`` of the equivalent record writes.
    from repro.obs.spool import SpoolingTracer
    from repro.sim.trace import Tracer

    assert SpoolingTracer.record is not Tracer.record
    with SpoolingTracer(tmp_path / "t.jsonl") as spool:
        spool.record(1.0, "k", node=2, x=1)
        spool.emit(TraceRecord(1.0, "k", 2, {"x": 1}))
    first, second = (tmp_path / "t.jsonl").read_text().splitlines()
    assert first == second == '{"kind": "k", "node": 2, "time": 1.0, "x": 1}'


# ----------------------------------------------------------------------
# Rows: the in-memory form of a record
# ----------------------------------------------------------------------
_KEY = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda k: k not in ("time", "kind", "node", "self")
)
_ATOM = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 0.0, 1e-07, 1.5, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.sampled_from(["\u00e9t\u00e9", "\u4e2d\u6587", "\U0001f4e1", "a\"b"]),
)
_VALUE = st.recursive(
    _ATOM, lambda inner: st.lists(inner, max_size=3), max_leaves=6
)


class _Collecting(Tracer):
    """A tracer with only ``emit``: ``record`` and ``row`` use the
    base class defaults."""

    def __init__(self):
        self.emitted = []

    def emit(self, record):
        self.emitted.append(record)


def _spool_bytes(directory, name, write):
    path = Path(directory) / name
    with SpoolingTracer(path) as spool:
        write(spool)
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    time=st.floats(min_value=0.0, max_value=1e6),
    kind=st.sampled_from(["radio.rx", "fds.detection", "meta.note", "k"]),
    node=st.one_of(st.none(), st.integers(0, 10**6)),
    detail=st.dictionaries(_KEY, _VALUE, max_size=4),
)
@example(time=-0.0, kind="radio.rx", node=None,
         detail={"sender": -0.0, "overheard": True, "latency": 1e-07})
@example(time=1.0, kind="k", node=3,
         detail={"x": None, "y": [[1, "\u00e9"], []], "z": False})
def test_record_emit_and_row_store_and_write_the_same(time, kind, node, detail):
    keys, values = tuple(detail), tuple(detail.values())
    writers = {
        "record": lambda t: t.record(time, kind, node, **detail),
        "emit": lambda t: t.emit(TraceRecord(time, kind, node, dict(detail))),
        "row": lambda t: t.row(time, kind, node, keys, *values),
    }
    expected = [TraceRecord(time, kind, node, detail)]
    lines = []
    for write in writers.values():
        tracer = RecordingTracer()
        write(tracer)
        write(tracer)
        assert tracer.records == expected * 2
        assert list(tracer.records[0].detail) == list(keys)
        lines.append(list(iter_jsonl(tracer.records)))
        collecting = _Collecting()
        write(collecting)
        assert collecting.emitted == expected
    assert lines[0] == lines[1] == lines[2] == list(iter_jsonl(expected * 2))
    with tempfile.TemporaryDirectory() as directory:
        spooled = {
            name: _spool_bytes(directory, name, write)
            for name, write in writers.items()
        }
    assert spooled["record"] == spooled["emit"] == spooled["row"]
    assert spooled["row"] == (lines[0][0] + "\n").encode("utf-8")


def _recorded():
    tracer = RecordingTracer()
    tracer.row(0.5, "radio.tx", 3, trace_module.TX_KEYS, None)
    tracer.row(0.5, "radio.loss", 4, trace_module.LOSS_KEYS, 3)
    tracer.row(0.6, "radio.rx", 5, trace_module.RX_KEYS, 3, True, 0.1)
    tracer.record(0.7, "fds.detection", node=5, target=4, execution=0)
    tracer.emit(TraceRecord(0.8, "meta.note"))
    return tracer


def test_rows_materialise_keys_against_their_values():
    records = _recorded().records
    assert records[0] == TraceRecord(0.5, "radio.tx", 3, {"recipient": None})
    assert records[1] == TraceRecord(0.5, "radio.loss", 4, {"sender": 3})
    assert records[2] == TraceRecord(
        0.6, "radio.rx", 5, {"sender": 3, "overheard": True, "latency": 0.1}
    )
    assert records[-1] == TraceRecord(0.8, "meta.note", None, {})
    assert records[1:3] == [records[1], records[2]]


def test_len_count_and_kinds_materialise_no_record(monkeypatch):
    tracer = _recorded()

    def forbidden(*args, **kwargs):
        raise AssertionError("a TraceRecord was materialised")

    monkeypatch.setattr(trace_module, "TraceRecord", forbidden)
    assert len(tracer.records) == len(tracer) == 5
    assert tracer.count("radio") == 3
    assert tracer.count("fds.detection") == 1
    assert tracer.kinds()["radio.rx"] == 1
    assert tracer.records != [None]  # unequal lengths: no element is read


def test_records_view_caches_nothing():
    tracer = _recorded()
    records = tracer.records
    first = list(records)
    assert len(records) == 5
    assert records[0] is not records[0]
    assert records[0].detail is not records[0].detail
    tracer.record(0.9, "fds.detection", node=6, target=4)
    assert len(records) == 6
    assert list(records) == first + [
        TraceRecord(0.9, "fds.detection", 6, {"target": 4})
    ]
    assert records[-1].node == 6
    assert tracer.count("fds") == 2
    tracer.clear()
    assert len(records) == 0 and list(records) == []


def test_records_view_is_read_only_and_compares_element_wise():
    tracer = _recorded()
    with pytest.raises(AttributeError):
        tracer.records = []
    with pytest.raises(TypeError):
        tracer.records[0] = TraceRecord(0.0, "x")
    other = RecordingTracer()
    for record in tracer.records:
        other.emit(record)
    assert other.records == tracer.records
    assert tracer.records == list(tracer.records)
    other.record(1.0, "extra")
    assert other.records != tracer.records
    reordered = RecordingTracer()
    for record in tracer.records:
        reordered.emit(
            TraceRecord(record.time, record.kind, record.node,
                        dict(reversed(record.detail.items())))
        )
    assert reordered.records == tracer.records


def test_stored_rows_are_untracked_after_one_collection():
    import gc

    tracer = _recorded()
    gc.collect()
    radio = [row for row in tracer._rows if row[1].startswith("radio.")]
    assert radio and not any(gc.is_tracked(row) for row in radio)
