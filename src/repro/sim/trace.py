"""Structured tracing of simulation activity.

A :class:`Tracer` receives one :class:`TraceRecord` per noteworthy event
(transmission, delivery, loss, detection, ...).  Components emit through
whatever tracer the network was built with; the default
:class:`NullTracer` makes tracing free when disabled, and
:class:`RecordingTracer` captures records for tests and metrics.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional

from repro.types import SimTime


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced occurrence.

    ``kind`` is a dotted category string (e.g. ``"radio.loss"``,
    ``"fds.false_detection"``); ``node`` is the acting node's NID when one
    applies; ``detail`` carries kind-specific fields.
    """

    time: SimTime
    kind: str
    node: Optional[int] = None
    detail: Mapping[str, object] = field(default_factory=dict)


class Tracer:
    """Interface: receives trace records; subclasses decide what to keep.

    ``enabled`` is a class-level fast-path flag: hot loops (the radio
    medium's transmit fan-out) consult it *before* assembling a record, so
    a disabled tracer costs a single attribute load per event instead of a
    :class:`TraceRecord` allocation.  Subclasses that discard everything
    (:class:`NullTracer`) set it to ``False``; emitting to a tracer whose
    ``enabled`` is ``False`` is still safe, just wasted work.
    """

    enabled: bool = True

    def emit(self, record: TraceRecord) -> None:
        raise NotImplementedError

    def record(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int] = None,
        **detail: object,
    ) -> None:
        """Convenience constructor-and-emit."""
        self.emit(TraceRecord(time=time, kind=kind, node=node, detail=detail))


class NullTracer(Tracer):
    """Discards everything; the zero-overhead default."""

    enabled = False

    def emit(self, record: TraceRecord) -> None:
        pass

    def record(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int] = None,
        **detail: object,
    ) -> None:
        # Overridden to skip even the TraceRecord construction.
        pass


class RecordingTracer(Tracer):
    """Keeps every record in memory; supports filtering and counting.

    The buffer is unbounded (tests and metrics want every record).  For
    large traces use :class:`repro.obs.spool.SpoolingTracer`, which
    streams to disk instead.
    """

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def emit(self, record: TraceRecord) -> None:
        self.records.append(record)

    def record(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int] = None,
        **detail: object,
    ) -> None:
        self.records.append(TraceRecord(time, kind, node, detail))

    def __len__(self) -> int:
        return len(self.records)

    def filter(self, kind: str) -> list[TraceRecord]:
        """All records whose kind equals or is nested under ``kind``."""
        prefix = kind + "."
        return [r for r in self.records if r.kind == kind or r.kind.startswith(prefix)]

    def count(self, kind: str) -> int:
        """Number of records matching ``kind`` (prefix semantics)."""
        return len(self.filter(kind))

    def kinds(self) -> Counter:
        """Histogram of record kinds."""
        return Counter(r.kind for r in self.records)

    def iter_kind(self, kind: str) -> Iterator[TraceRecord]:
        prefix = kind + "."
        for r in self.records:
            if r.kind == kind or r.kind.startswith(prefix):
                yield r

    def clear(self) -> None:
        self.records.clear()


def record_to_dict(record: TraceRecord) -> Dict[str, object]:
    """The record's flat-dict serialization (detail keys inlined)."""
    return {
        "time": record.time,
        "kind": record.kind,
        "node": record.node,
        **dict(record.detail),
    }


#: ``json.dumps(..., sort_keys=True)`` builds this encoder on every call;
#: trace lines share one.
_encode = json.JSONEncoder(sort_keys=True).encode


def record_line(
    time: SimTime,
    kind: str,
    node: Optional[int],
    detail: Mapping[str, object],
) -> str:
    """The one serialized form of a record: a JSON object on one line.

    Every writer of trace lines -- :func:`iter_jsonl`, the disk spool,
    the rt spool merge, the dashboard's SSE tail -- goes through here, so
    the format has a single owner: :func:`record_to_dict`'s flat object
    with sorted keys, encoded without building the record first.
    """
    return _encode({"time": time, "kind": kind, "node": node, **detail})


def iter_jsonl(
    records: Iterator[TraceRecord] | list[TraceRecord],
) -> Iterator[str]:
    """One JSON line per record, streamed.

    The memory-safe serialization path: consumers that write to disk or
    feed a hash incrementally never hold more than one line.  Detail
    values must be JSON-serializable (the library's own emitters only use
    ints, floats, bools, strings, lists).
    """
    for r in records:
        yield record_line(r.time, r.kind, r.node, r.detail)
