"""The verdict timeline (repro.obs.verdicts): every query at its boundary.

Each rule is pinned where it turns: a detection at the crash instant is
the crash's detection and no predetection, one an instant earlier is a
predetection and not the crash's; a refutation at the detection instant
answers it, and a detection at the refutation instant supports it.
"""

from repro.fds import events as ev
from repro.obs.verdicts import Verdict, VerdictTimeline
from repro.sim.trace import RecordingTracer


def _trace(*rows):
    tracer = RecordingTracer()
    for time, kind, node, detail in rows:
        tracer.record(time, kind, node=node, **detail)
    return tracer


def _detection(time, detector, target):
    return (time, ev.DETECTION, detector,
            {"target": target, "detector": detector, "execution": 0})


def _refutation(time, node, target):
    return (time, ev.REFUTATION, node, {"target": target})


def _crash(time, node):
    return (time, "sim.crash", node, {})


TRACE = _trace(
    (0.0, "radio.tx", 1, {"recipient": None}),
    _detection(8.0, 1, 5),      # false: 5 is still up
    _crash(10.0, 5),
    _detection(10.0, 2, 5),     # at the crash instant: the crash's
    _detection(12.0, 1, 5),
    _crash(20.0, 7),
    _detection(20.0, 3, 7),
    (21.0, "radio.rx", 2, {"sender": 1, "overheard": False, "latency": 0.1}),
    _detection(30.0, 4, 6),     # 6 never crashes
    _refutation(30.0, 6, 6),    # ... and is heard at the same instant
    _detection(40.0, 4, 6),
    _refutation(25.0, 6, 6),    # too early for either
)


def test_every_way_in_reads_the_same_timeline():
    rows = VerdictTimeline.read(TRACE)
    records = VerdictTimeline.read(iter(TRACE.records))
    fed = VerdictTimeline()
    for record in TRACE.records:
        fed.feed(record)
    for timeline in (rows, records, fed.finish()):
        assert timeline.crash_times == {5: 10.0, 7: 20.0}
        assert [v.time for v in timeline.detections] == [
            8.0, 10.0, 12.0, 20.0, 30.0, 40.0,
        ]
        assert timeline.refutations == [Verdict(30.0, 6, 6), Verdict(25.0, 6, 6)]


def test_the_crash_is_detected_at_or_after_it():
    timeline = VerdictTimeline.read(TRACE)
    assert timeline.first_detections() == {5: 10.0, 7: 20.0}
    assert timeline.latencies() == {5: 0.0, 7: 0.0}
    assert timeline.first_announcements() == {5: 8.0, 7: 20.0, 6: 30.0}
    assert timeline.detectors(5) == (1, 2)


def test_a_crash_announced_only_before_it_is_undetected_and_predetected():
    timeline = VerdictTimeline.read(TRACE, crash_times={5: 12.5, 7: 20.0})
    assert timeline.latencies() == {5: None, 7: 0.0}
    # 7's detection at its crash instant is no predetection.
    assert timeline.predetected() == {5}


def test_given_crash_times_replace_the_crash_records():
    timeline = VerdictTimeline.read(TRACE, crash_times={6: 30.0})
    assert timeline.crash_times == {6: 30.0}
    assert timeline.latencies() == {6: 0.0}
    assert VerdictTimeline.read(TRACE, crash_times={}).crash_times == {}


def test_a_refutation_at_the_detection_instant_answers_it():
    assert VerdictTimeline.read(TRACE).unrefuted() == [
        Verdict(8.0, 1, 5), Verdict(10.0, 2, 5), Verdict(12.0, 1, 5),
        Verdict(20.0, 3, 7), Verdict(40.0, 4, 6),
    ]


def test_a_refutation_needs_a_detection_at_or_before_it():
    timeline = VerdictTimeline.read(_trace(
        _refutation(1.0, 2, 9),     # before 9's first detection
        _detection(2.0, 0, 9),
        _refutation(2.0, 2, 9),     # at it: supported
        _refutation(3.0, 2, 8),     # 8 is never detected
    ))
    assert timeline.unsupported_refutations() == [
        (Verdict(1.0, 2, 9), 2.0), (Verdict(3.0, 2, 8), None),
    ]


def test_detection_counts_per_target():
    counts = VerdictTimeline.read(TRACE).detection_counts()
    assert counts == {5: 3, 7: 1, 6: 2}
    assert counts[11] == 0
