"""Tests for tracing."""

from repro.sim.trace import NullTracer, RecordingTracer, TraceRecord


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
