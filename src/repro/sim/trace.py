"""Structured tracing of simulation activity.

A :class:`Tracer` receives one :class:`TraceRecord` per noteworthy event
(transmission, delivery, loss, detection, ...).  Components emit through
whatever tracer the network was built with; the default
:class:`NullTracer` makes tracing free when disabled, and
:class:`RecordingTracer` captures records for tests and metrics.

Hot emitters (the radio's ``radio.tx`` / ``radio.loss`` / ``radio.rx``,
over nine records in ten) call :meth:`Tracer.row` with the detail as
positional values after a ``keys`` tuple declared once per kind
(:data:`TX_KEYS`, :data:`LOSS_KEYS`, :data:`RX_KEYS`).  The in-memory
sink stores each record as that flat row, ``(time, kind, node, keys,
*values)``: a tuple of atoms, which CPython's collector untracks at its
first pass, where a dataclass holding a dict stays tracked for the life
of the trace.  ``RecordingTracer.records`` materialises a
:class:`TraceRecord` per row on read.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import eq, itemgetter
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.types import SimTime

#: Detail names of the radio kinds, in emission order.
TX_KEYS = ("recipient",)
LOSS_KEYS = ("sender",)
RX_KEYS = ("sender", "overheard", "latency")


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

    def row(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int],
        keys: Tuple[str, ...],
        *values: object,
    ) -> None:
        """Positional :meth:`record`: detail ``keys[i]`` is ``values[i]``."""
        self.emit(TraceRecord(time, kind, node, dict(zip(keys, values))))


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

    def row(self, *row: object) -> None:
        pass


def _materialise(row: tuple) -> TraceRecord:
    time, kind, node, keys, *values = row
    return TraceRecord(time, kind, node, dict(zip(keys, values)))


class TraceRows(Sequence):
    """Read-only sequence of :class:`TraceRecord` over stored rows.

    ``len`` is O(1); indexing and iteration build a fresh record per
    item (nothing is cached, so holding the trace costs only its rows);
    equality with another sequence of records is element-wise.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: List[tuple]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_materialise(row) for row in self._rows[index]]
        return _materialise(self._rows[index])

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_materialise, self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (TraceRows, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]


class RecordingTracer(Tracer):
    """Keeps every record in memory; supports filtering and counting.

    The buffer is unbounded (tests and metrics want every record), held
    as flat rows (see the module doc) and read through :attr:`records`.
    For large traces use :class:`repro.obs.spool.SpoolingTracer`, which
    streams to disk instead.
    """

    def __init__(self) -> None:
        self._rows: List[tuple] = []
        self._view = TraceRows(self._rows)

    @property
    def records(self) -> TraceRows:
        """Every record so far, as a read-only view."""
        return self._view

    def emit(self, record: TraceRecord) -> None:
        detail = record.detail
        self._rows.append(
            (record.time, record.kind, record.node, tuple(detail),
             *detail.values())
        )

    def record(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int] = None,
        **detail: object,
    ) -> None:
        self._rows.append((time, kind, node, tuple(detail), *detail.values()))

    def row(self, *row: object) -> None:
        # The call's own argument tuple is the stored row.
        self._rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    def _matching(self, kind: str) -> Iterator[tuple]:
        prefix = kind + "."
        for row in self._rows:
            if row[1] == kind or row[1].startswith(prefix):
                yield row

    def filter(self, kind: str) -> list[TraceRecord]:
        """All records whose kind equals or is nested under ``kind``."""
        return list(self.iter_kind(kind))

    def count(self, kind: str) -> int:
        """Number of records matching ``kind`` (prefix semantics)."""
        return sum(1 for _ in self._matching(kind))

    def kinds(self) -> Counter:
        """Histogram of record kinds."""
        return Counter(map(itemgetter(1), self._rows))

    def iter_kind(self, kind: str) -> Iterator[TraceRecord]:
        return map(_materialise, self._matching(kind))

    def clear(self) -> None:
        self._rows.clear()


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
