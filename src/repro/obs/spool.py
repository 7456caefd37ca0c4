"""Disk-spooling tracer: bounded memory, gzip'd JSONL on disk.

:class:`~repro.sim.trace.RecordingTracer` keeps every record in memory,
which is unusable for large-field or soak runs (a 200-node scenario
emits hundreds of thousands of radio records per execution).  A
:class:`SpoolingTracer` instead streams each record to a JSONL file
(gzip'd when the path ends in ``.gz``) and holds at most one batch of
encoded lines.

The on-disk format is one JSON object per line, serialized by
:func:`repro.sim.trace.record_line` (``time``/``kind``/``node`` plus the
flattened detail), so ``repro trace``, ``jq``, and pandas all read it
directly; :func:`iter_spool` streams it back as
:class:`~repro.sim.trace.TraceRecord` objects.

Writing is batched.  :meth:`SpoolingTracer.emit`, the one write method
(``record()`` is the base class's keyword adapter onto it), encodes its
arguments straight to a line (:func:`repro.sim.trace.row_line`: the
record's cached ``(kind, keys)`` template filled with json's text for
each value, no dict built) and appends it to a pending batch; every
``flush_every`` records, and on ``flush()`` / ``close()``, the batch
goes to the file as one write followed by a stream flush.  So
``flush_every`` bounds three things at once: the records a crash of the
writing process can lose, the lines held in memory, and how far a
reader of the growing file
(``iter_spool(follow=True)``, the dashboard's ``/events``) can lag -- a
live tail advances in steps of ``flush_every`` records (4096 by
default; the rt runtime uses 64, a dashboard following a run wants a
small value too).  In exchange the file only ever grows by whole lines:
another reader never sees a torn one.

Emission is safe under concurrency: the batch, the counters and the
file are only touched under an internal lock (lines are encoded outside
it), so asyncio callbacks that hop threads (executors,
loop.call_soon_threadsafe) and the rt runtime's socket callbacks can
share one spool without interleaving half-written lines.  (Within a
single event loop the callbacks never truly race, but the lock makes the
guarantee independent of the caller's scheduling.)

Reading goes by batches.  Each read of the file is split once at its
last newline (a trailing partial line waits for the next read) and its
complete lines are parsed up to :data:`_BATCH_LINES` at a time, in
plain, gzip and follow mode alike.  A batch whose every line starts with
its only ``{`` and ends with its only ``}`` is loaded as one JSON array;
there an element can only begin at a line start, so exactly one element
per line means each is its own line's object.  Any other batch, or one
that fails that load, is parsed line by line.  Both feed one validation
step, tolerant by type: a line that is torn, not UTF-8, not JSON, not a
JSON object, has no string ``kind``, a ``time`` that is not a number or
a ``node`` that is neither an integer nor null carries no record and is
skipped.  A gzip spool cut short (its writer killed) yields the complete
lines before the cut; a corrupt gzip stream is a
:class:`ConfigurationError` naming the file.
"""

from __future__ import annotations

import gzip
import io
import json
import time
import threading
import zlib
from pathlib import Path
from typing import (
    BinaryIO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import ConfigurationError
from repro.sim.trace import TraceRecord, Tracer, kind_matches, row_line
from repro.types import SimTime


class SpoolingTracer(Tracer):
    """Streams records to disk; holds only the pending batch in memory."""

    enabled = True

    def __init__(
        self,
        path: Union[str, Path],
        flush_every: int = 4096,
    ) -> None:
        """``flush_every`` is the batch size: that many records are held
        as encoded lines, then written and flushed together
        (crash-tolerant and live-tailed spools want small values;
        throughput wants large ones).
        """
        if flush_every < 1:
            raise ConfigurationError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._flush_every = flush_every
        #: Records accepted for the spool.
        self.spooled = 0
        if self.path.suffix == ".gz":
            self._handle: io.TextIOBase = gzip.open(
                self.path, "wt", encoding="utf-8"
            )
        else:
            self._handle = self.path.open("w", encoding="utf-8")
        self._closed = False
        #: Encoded lines not yet written (fewer than ``flush_every``).
        self._pending: List[str] = []
        # Serializes batch/flush/close across threads: one record is one
        # intact line on disk, and the counters stay exact.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def emit(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int],
        keys: Tuple[str, ...],
        *values: object,
    ) -> None:
        # Encode outside the lock (pure CPU), batch inside it.
        line = row_line(time, kind, node, keys, values)
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    f"SpoolingTracer {self.path} is closed; no further records"
                )
            self._pending.append(line)
            self.spooled += 1
            if len(self._pending) >= self._flush_every:
                self._write_pending()

    def _write_pending(self) -> None:
        """Write the batch as whole lines and flush (lock held)."""
        if self._pending:
            self._handle.write("\n".join(self._pending))
            self._handle.write("\n")
            self._pending.clear()
        self._handle.flush()

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran (the file on disk is then complete)."""
        return self._closed

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._write_pending()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._write_pending()
            finally:
                self._handle.close()

    def __enter__(self) -> "SpoolingTracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reading spools back
# ----------------------------------------------------------------------
def _is_gzip(path: Path) -> bool:
    with path.open("rb") as probe:
        return probe.read(2) == b"\x1f\x8b"


def _open_spool(path: Path) -> BinaryIO:
    """Open a spool for reading, sniffing gzip by magic bytes (a spool
    renamed without its ``.gz`` suffix still loads)."""
    if _is_gzip(path):
        return gzip.open(path, "rb")
    return path.open("rb")


#: Bytes asked of the file per read; the complete lines of each read are
#: parsed together, in batches of at most :data:`_BATCH_LINES` lines.
_READ_BYTES = 65536
_BATCH_LINES = 1024


def _load_line(raw: bytes) -> object:
    """One line's JSON value, or ``None`` when it has none (torn, not
    UTF-8, not JSON)."""
    try:
        return json.loads(str(raw, "utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None


def _load_batch(text: bytes) -> Optional[list]:
    """The JSON values of ``text``'s newline-separated lines in one
    ``json.loads``, or ``None`` when the batch does not qualify.

    It qualifies when every line starts with its only ``{`` and ends
    with its only ``}``: then an array element can only begin at a line
    start, and a string or error that crosses a line fails the parse or
    merges lines, so exactly one element per line means each element is
    its own line's object -- what :func:`_load_line` returns for it.
    """
    lines = text.count(b"\n") + 1
    if not (
        text[:1] == b"{"
        and text[-1:] == b"}"
        and text.count(b"}\n{") == lines - 1
        and text.count(b"{") == lines
        and text.count(b"}") == lines
    ):
        return None
    try:
        # Strict decode: json.loads(bytes) would pass surrogates.
        values = json.loads(
            "[" + str(text, "utf-8").replace("}\n{", "},{") + "]"
        )
    except (ValueError, RecursionError):
        return None
    return values if len(values) == lines else None


def _records(
    payloads: Iterable[object], prefixes: Optional[Sequence[str]]
) -> Iterator[TraceRecord]:
    """The records among JSON values, each checked as a trace line.

    Garbage is anything that is not a JSON object with a string
    ``kind``, a numeric ``time`` (default 0.0) and an integer or null
    ``node``: a bare number or list, an object without a kind,
    ``"time": "soon"``.  None of them carries a completed event.
    """
    for payload in payloads:
        if not isinstance(payload, dict):
            continue
        kind = payload.pop("kind", None)
        if not isinstance(kind, str):
            continue
        if prefixes is not None and not kind_matches(kind, prefixes):
            continue
        time = payload.pop("time", 0.0)
        node = payload.pop("node", None)
        # Exact types: JSON's true/false parse to bool, which is no number.
        if type(time) not in (int, float) or not (
            node is None or type(node) is int
        ):
            continue
        try:
            time = SimTime(time)
        except OverflowError:  # an integer past the float range
            continue
        # What is left of the object is the detail, in file order.
        yield TraceRecord(time, kind, node, payload)


def _parse_lines(
    text: bytes, prefixes: Optional[Sequence[str]]
) -> Iterator[TraceRecord]:
    """The records of ``text``'s newline-separated lines (no trailing
    newline), parsed in batches of at most :data:`_BATCH_LINES` lines:
    each batch in one ``json.loads`` when :func:`_load_batch` allows it,
    else line by line."""
    if text.count(b"\n") < _BATCH_LINES:
        batches = [text]
    else:
        lines = text.split(b"\n")
        batches = [
            b"\n".join(lines[start:start + _BATCH_LINES])
            for start in range(0, len(lines), _BATCH_LINES)
        ]
    for batch in batches:
        payloads = _load_batch(batch)
        if payloads is None:
            payloads = map(_load_line, batch.split(b"\n"))
        yield from _records(payloads, prefixes)


def iter_spool(
    path: Union[str, Path],
    kinds: Optional[Sequence[str]] = None,
    *,
    follow: bool = False,
    poll_interval: float = 0.2,
    stop: Optional[threading.Event] = None,
    idle_marker: bool = False,
) -> Iterator[Optional[TraceRecord]]:
    """Stream a spool file back as :class:`TraceRecord` objects.

    Torn final lines (a run killed mid-write) are skipped, matching the
    campaign telemetry reader's policy: an incomplete line carries no
    completed event.

    With ``follow=True`` the iterator tails a *growing* spool instead of
    stopping at EOF: a trailing line without its newline is held back and
    re-attempted until the writer completes it (one record is one intact
    line -- :class:`SpoolingTracer` writes are lock-serialized), and the
    reader sleeps ``poll_interval`` seconds between attempts.  The loop
    runs until ``stop`` (a :class:`threading.Event`) is set; remaining
    complete lines are drained before returning.  ``idle_marker=True``
    yields ``None`` once per empty poll so a consumer (the dashboard's
    SSE endpoint) can emit keep-alives and notice dead peers.  Follow
    mode refuses gzip spools: a gzip stream is not seekable-appendable,
    so a growing ``.gz`` file cannot be tailed record-by-record.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"no trace spool at {path}")
    prefixes = tuple(kinds) if kinds is not None else None
    if follow and poll_interval <= 0:
        raise ConfigurationError(
            f"poll_interval must be > 0, got {poll_interval}"
        )
    if follow and (path.suffix == ".gz" or _is_gzip(path)):
        raise ConfigurationError(
            f"cannot follow gzip spool {path}: gzip streams are not "
            "seekable-appendable; spool to plain .jsonl for live tailing"
        )
    # Bytes after the last newline stay buffered: at the end of a
    # finished spool they are its last line; in follow mode they wait
    # for the writer to finish the line, so a torn trailing line is
    # retried rather than dropped.
    with _open_spool(path) as handle:
        pending = b""
        while True:
            try:
                # read1: what one read decompressed is kept even when the
                # next one finds a gzip stream cut short (its writer
                # killed before close), which ends the spool there.
                chunk = handle.read1(_READ_BYTES)
            except EOFError:
                return
            except (zlib.error, gzip.BadGzipFile) as exc:
                raise ConfigurationError(
                    f"corrupt gzip spool {path}: {exc}"
                ) from None
            if chunk:
                pending += chunk
                cut = pending.rfind(b"\n")
                if cut >= 0:
                    yield from _parse_lines(pending[:cut], prefixes)
                    pending = pending[cut + 1:]
                continue
            if not follow:
                if pending:
                    yield from _parse_lines(pending, prefixes)
                return
            if stop is not None and stop.is_set():
                return
            if idle_marker:
                yield None
            time.sleep(poll_interval)


def read_spool(
    path: Union[str, Path],
    kinds: Optional[Sequence[str]] = None,
) -> list:
    """Materialize a spool (small files / tests); prefer :func:`iter_spool`."""
    return list(iter_spool(path, kinds=kinds))
