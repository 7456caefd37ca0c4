"""The verdict timeline: the one reader of detection and refutation records.

Completeness, accuracy and detection latency are all read from the same
records, ``fds.detection`` and ``fds.refutation``, against the crash
times.  :class:`VerdictTimeline` reads them -- from a
:class:`~repro.sim.trace.RecordingTracer`'s rows in one pass, from any
record stream (:func:`~repro.obs.spool.iter_spool`), or one record at a
time through :meth:`~VerdictTimeline.feed`, which the reducers of
:mod:`repro.obs.analyze` call on :data:`TIMELINE_KINDS` only -- and
every consumer asks it a question instead of scanning a trace with a
filter of its own.  Crash times come from the caller, else from the
``sim.crash`` records.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Set, Tuple, Union

from repro.fds.events import DETECTION, REFUTATION
from repro.sim.trace import RecordingTracer, TraceRecord

#: Kind the node runtime emits when a node fail-stops.
CRASH_KIND = "sim.crash"
#: The kinds the timeline reads; a record pass feeds it these only.
TIMELINE_KINDS = frozenset((DETECTION, REFUTATION, CRASH_KIND))


class Verdict(NamedTuple):
    """One detection or refutation."""

    time: float
    #: The detector of a detection, the refuting node of a refutation.
    node: Optional[int]
    target: int


class VerdictTimeline:
    """The detections and refutations of one run, in record order, and
    the crash times they are judged against."""

    def __init__(self, crash_times: Optional[Mapping[int, float]] = None) -> None:
        self._crashes_from_records = crash_times is None
        #: node -> crash time (ground truth).
        self.crash_times: Dict[int, float] = dict(crash_times or {})
        self.detections: List[Verdict] = []
        self.refutations: List[Verdict] = []

    @classmethod
    def read(
        cls,
        source: Union[RecordingTracer, Iterable[TraceRecord]],
        crash_times: Optional[Mapping[int, float]] = None,
    ) -> "VerdictTimeline":
        """The timeline of a recording tracer or of a record stream."""
        timeline = cls(crash_times)
        if isinstance(source, RecordingTracer):
            source = source.select(TIMELINE_KINDS)
        for record in source:
            if record.kind in TIMELINE_KINDS:
                timeline.feed(record)
        return timeline.finish()

    def feed(self, record: TraceRecord) -> None:
        """Take one record; kinds other than :data:`TIMELINE_KINDS` are
        ignored."""
        kind = record.kind
        if kind == CRASH_KIND:
            if self._crashes_from_records and record.node is not None:
                self.crash_times.setdefault(int(record.node), record.time)
            return
        target = record.detail.get("target")
        if target is None:
            return
        verdict = Verdict(record.time, record.node, int(target))
        if kind == DETECTION:
            self.detections.append(verdict)
        elif kind == REFUTATION:
            self.refutations.append(verdict)

    def finish(self) -> "VerdictTimeline":
        return self

    # -- queries ---------------------------------------------------------
    def first_detections(self) -> Dict[int, float]:
        """crashed target -> its first detection at or after its crash.

        A false detection before the crash is not the crash's detection,
        so a crash detected only before it happened has no entry.
        """
        crash_times = self.crash_times
        first: Dict[int, float] = {}
        for time, _node, target in self.detections:
            crashed_at = crash_times.get(target)
            if crashed_at is not None and time >= crashed_at:
                first.setdefault(target, time)
        return first

    def latencies(self) -> Dict[int, Optional[float]]:
        """Seconds from each crash to :meth:`first_detections` (None if
        none), in the order of ``crash_times``."""
        first = self.first_detections()
        return {
            nid: (first[nid] - t if nid in first else None)
            for nid, t in self.crash_times.items()
        }

    def first_announcements(self) -> Dict[int, float]:
        """target -> its first detection at any time, false ones included."""
        first: Dict[int, float] = {}
        for time, _node, target in self.detections:
            first.setdefault(target, time)
        return first

    def detectors(self, target: int) -> Tuple[int, ...]:
        """The nodes that detected ``target``, each once, in record order."""
        return tuple(dict.fromkeys(
            node for _time, node, of in self.detections
            if of == target and node is not None
        ))

    def predetected(self) -> Set[int]:
        """Crashed targets some node detected before they crashed."""
        crash_times = self.crash_times
        return {
            target for time, _node, target in self.detections
            if target in crash_times and time < crash_times[target]
        }

    def unrefuted(self) -> List[Verdict]:
        """The detections with no refutation of their target at or after
        them, in record order."""
        last_refuted: Dict[int, float] = {}
        for time, _node, target in self.refutations:
            last_refuted[target] = max(time, last_refuted.get(target, time))
        return [
            verdict for verdict in self.detections
            if last_refuted.get(verdict.target, -math.inf) < verdict.time
        ]

    def unsupported_refutations(self) -> List[Tuple[Verdict, Optional[float]]]:
        """The refutations with no detection of their target at or before
        them, in record order, each with the target's first detection
        time (None: never detected)."""
        first_detected: Dict[int, float] = {}
        for time, _node, target in self.detections:
            first_detected[target] = min(time, first_detected.get(target, time))
        return [
            (verdict, first_detected.get(verdict.target))
            for verdict in self.refutations
            if first_detected.get(verdict.target, math.inf) > verdict.time
        ]

    def detection_counts(self) -> Counter:
        """target -> the number of detections of it."""
        return Counter(target for _time, _node, target in self.detections)
