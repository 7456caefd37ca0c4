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

Writing is batched.  ``record()`` and ``row()`` encode their arguments
straight to a line (no :class:`TraceRecord` is built) and append it to a
pending batch; every ``flush_every`` records, and on ``flush()`` /
``close()``, the batch goes to the file as one write followed by a
stream flush.  So ``flush_every`` bounds three things at once: the
records a crash of the writing process can lose, the lines held in
memory, and how far a reader of the growing file
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

Reading is tolerant by type, in both modes through one bytes-level line
parser: a line that is torn, not UTF-8, not JSON, not a JSON object or
has no string ``kind`` carries no record and is skipped.
"""

from __future__ import annotations

import gzip
import io
import json
import time
import threading
from pathlib import Path
from typing import (
    BinaryIO, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.errors import ConfigurationError
from repro.sim.trace import TraceRecord, Tracer, record_line
from repro.types import SimTime


def _kind_matches(kind: str, prefixes: Sequence[str]) -> bool:
    """Segment-aware prefix match (``"fds"`` matches ``"fds.detection"``,
    not ``"fdsx"``)."""
    for prefix in prefixes:
        if kind == prefix or kind.startswith(prefix + "."):
            return True
    return False


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
    def record(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int] = None,
        **detail: object,
    ) -> None:
        # Overridden so the hot path builds no TraceRecord.
        self._spool(time, kind, node, detail)

    def row(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int],
        keys: Tuple[str, ...],
        *values: object,
    ) -> None:
        # Overridden so a row goes to its line with no TraceRecord either.
        self._spool(time, kind, node, dict(zip(keys, values)))

    def emit(self, record: TraceRecord) -> None:
        self._spool(record.time, record.kind, record.node, record.detail)

    def _spool(
        self,
        time: SimTime,
        kind: str,
        node: Optional[int],
        detail: Mapping[str, object],
    ) -> None:
        # Encode outside the lock (pure CPU), batch inside it.
        line = record_line(time, kind, node, detail)
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


def _parse_line(
    raw: bytes, prefixes: Optional[Sequence[str]]
) -> Optional[TraceRecord]:
    """One JSONL line -> record, or ``None`` (blank/garbage/filtered).

    Garbage is anything that is not a JSON object with a string
    ``kind``: a torn line, bytes that are not UTF-8, a bare number or
    list.  None of them carries a completed event.
    """
    try:
        payload = json.loads(str(raw, "utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None
    if not isinstance(payload, dict):
        return None
    kind = payload.pop("kind", "")
    if not isinstance(kind, str):
        return None
    if prefixes is not None and not _kind_matches(kind, prefixes):
        return None
    time = SimTime(payload.pop("time", 0.0))
    node = payload.pop("node", None)
    # What is left of the object is the detail, in file order.
    return TraceRecord(time, kind, node, payload)


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
    if not follow:
        with _open_spool(path) as handle:
            for raw in handle:
                record = _parse_line(raw, prefixes)
                if record is not None:
                    yield record
        return
    if poll_interval <= 0:
        raise ConfigurationError(
            f"poll_interval must be > 0, got {poll_interval}"
        )
    if path.suffix == ".gz" or _is_gzip(path):
        raise ConfigurationError(
            f"cannot follow gzip spool {path}: gzip streams are not "
            "seekable-appendable; spool to plain .jsonl for live tailing"
        )
    # Binary tail loop: bytes after the last newline stay buffered until
    # the writer finishes the line, so a torn trailing line is retried
    # rather than dropped.
    with path.open("rb") as handle:
        pending = b""
        while True:
            chunk = handle.read(65536)
            if chunk:
                pending += chunk
                while True:
                    newline = pending.find(b"\n")
                    if newline < 0:
                        break
                    raw, pending = pending[:newline], pending[newline + 1:]
                    record = _parse_line(raw, prefixes)
                    if record is not None:
                        yield record
                continue
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
