"""Structured tracing of simulation activity.

A :class:`Tracer` receives one record per noteworthy event
(transmission, delivery, loss, detection, ...).  Components emit through
whatever tracer the network was built with; the default
:class:`NullTracer` makes tracing free when disabled, and
:class:`RecordingTracer` captures records for tests and metrics.

Every record enters a sink through one method, :meth:`Tracer.emit`,
which takes the detail as positional values after a ``keys`` tuple.  Hot
emitters (the radio's ``radio.tx`` / ``radio.loss`` / ``radio.rx``, over
nine records in ten) call it directly with keys declared once per kind
(:data:`TX_KEYS`, :data:`LOSS_KEYS`, :data:`RX_KEYS`); everyone else
calls :meth:`Tracer.record`, its keyword adapter.  The in-memory sink
stores each record as the argument row, ``(time, kind, node, keys,
*values)``: a tuple of atoms, which CPython's collector untracks at its
first pass, where a dataclass holding a dict stays tracked for the life
of the trace.  :class:`TraceRecord` is the read side only:
``RecordingTracer.records`` materialises one per row on read.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Container, Sequence
from dataclasses import dataclass, field
from itertools import compress
from json.encoder import encode_basestring_ascii
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
    applies; ``detail`` carries kind-specific fields.  Built on the read
    side only (:class:`TraceRows`, the spool reader, the analyzers);
    writers call :meth:`Tracer.emit` or :meth:`Tracer.record`.
    """

    time: SimTime
    kind: str
    node: Optional[int] = None
    detail: Mapping[str, object] = field(default_factory=dict)


class Tracer:
    """Interface: receives trace records; subclasses decide what to keep.

    A sink defines :meth:`emit` only; :meth:`record` is shared.
    ``enabled`` is a class-level fast-path flag: hot loops (the radio
    medium's transmit fan-out) consult it *before* assembling a record, so
    a disabled tracer costs a single attribute load per event.  Subclasses
    that discard everything (:class:`NullTracer`) set it to ``False``;
    emitting to a tracer whose ``enabled`` is ``False`` is still safe,
    just wasted work.
    """

    enabled: bool = True

    def emit(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int],
        keys: Tuple[str, ...],
        *values: object,
    ) -> None:
        """Take one record: detail ``keys[i]`` is ``values[i]``."""
        raise NotImplementedError

    def record(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int] = None,
        **detail: object,
    ) -> None:
        """Keyword :meth:`emit`: the detail in argument order."""
        self.emit(time, kind, node, tuple(detail), *detail.values())


class NullTracer(Tracer):
    """Discards everything; the zero-overhead default."""

    enabled = False

    def emit(self, *row: object) -> None:
        pass


def kind_matches(kind: str, prefixes: Sequence[str]) -> bool:
    """Segment-aware prefix match (``"fds"`` matches ``"fds.detection"``,
    not ``"fdsx"``)."""
    for prefix in prefixes:
        if kind == prefix or kind.startswith(prefix + "."):
            return True
    return False


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

    def emit(self, *row: object) -> None:
        # The call's own argument tuple is the stored row.
        self._rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    def _matching(self, kind: str) -> Iterator[tuple]:
        # kind_matches for the one prefix, inline: no call per row.
        nested = kind + "."
        return (
            row for row in self._rows
            if row[1] == kind or row[1].startswith(nested)
        )

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

    def select(self, kinds: Container[str]) -> Iterator[TraceRecord]:
        """The records whose kind is one of ``kinds`` (exact names), in
        one pass that builds no record for the other rows."""
        rows = self._rows
        wanted = map(kinds.__contains__, map(itemgetter(1), rows))
        return map(_materialise, compress(rows, wanted))

    def clear(self) -> None:
        self._rows.clear()


#: ``json.dumps(..., sort_keys=True)`` builds this encoder on every call;
#: trace lines share one.  It encodes the records no template fits and
#: every value that is no plain scalar.
_encode = json.JSONEncoder(sort_keys=True).encode

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


#: json's own text for a value of exactly these types; any other type
#: (lists, dicts, float/int subclasses, unencodable objects) goes through
#: :data:`_encode`, which is what json does for a nested value.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}.get

#: ``(kind, keys) -> (format, order)`` or ``None`` (no template fits).
#: Emitters use a few dozen shapes; the cache is emptied when full.
_TEMPLATES: Dict[tuple, Optional[tuple]] = {}
_TEMPLATE_LIMIT = 4096


def _template(kind: object, keys: Tuple[object, ...]) -> Optional[tuple]:
    """The ``%`` format of a flat record of ``kind`` with detail ``keys``
    and the getter that puts ``(time, node, *values)`` in its slot order;
    ``None`` when the record needs the dict encode (a kind or key that is
    no ``str``, a key that repeats or shadows ``time``/``kind``/``node``).
    """
    template = None
    if (
        type(kind) is str
        and all(type(key) is str for key in keys)
        and len({"time", "kind", "node", *keys}) == len(keys) + 3
    ):
        # The members in sort_keys order, each with its value's index
        # into (time, node, *values) or, for the kind, its literal text.
        members = sorted([
            ("kind", encode_basestring_ascii(kind)), ("node", 1), ("time", 0),
            *zip(keys, range(2, len(keys) + 2)),
        ])
        text = ", ".join(
            (encode_basestring_ascii(name) + ": ").replace("%", "%%")
            + ("%s" if type(slot) is int else slot.replace("%", "%%"))
            for name, slot in members
        )
        slots = [slot for _, slot in members if type(slot) is int]
        template = ("{" + text + "}", itemgetter(*slots))
    if len(_TEMPLATES) >= _TEMPLATE_LIMIT:
        _TEMPLATES.clear()
    _TEMPLATES[kind, keys] = template
    return template


def row_line(
    time: SimTime,
    kind: str,
    node: Optional[int],
    keys: Tuple[str, ...],
    values: Tuple[object, ...],
) -> str:
    """:func:`record_line` of a record given as an emit row (detail
    ``keys[i]`` is ``values[i]``), without building the detail dict."""
    try:
        template = _TEMPLATES[kind, keys]
    except KeyError:
        template = _template(kind, keys)
    except TypeError:  # an unhashable kind or key: no template
        template = None
    if template is None or len(values) != len(keys):
        detail = dict(zip(keys, values))
        return _encode({"time": time, "kind": kind, "node": node, **detail})
    text, order = template
    return text % tuple([
        _SCALAR_TEXT(type(value), _encode)(value)
        for value in order((time, node, *values))
    ])


def record_line(
    time: SimTime,
    kind: str,
    node: Optional[int],
    detail: Mapping[str, object],
) -> str:
    """The one serialized form of a record: a JSON object on one line.

    Every writer of trace lines -- :func:`iter_jsonl`, the disk spool,
    the rt spool merge, the dashboard's SSE tail -- goes through here, so
    the format has a single owner: the flat object ``{"time", "kind",
    "node", **detail}`` as ``json.dumps(..., sort_keys=True)`` writes
    it.  It is filled into a template cached per ``(kind, keys)``: the
    key names escaped and sorted once, the kind literal, each value in
    json's own scalar text (anything else through the encoder, as json
    does for a nested value); a record no template fits is encoded as
    the dict.  Either way the bytes are json's.
    """
    if type(detail) is dict:
        keys, values = tuple(detail), tuple(detail.values())
        return row_line(time, kind, node, keys, values)
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
