"""Live campaign telemetry: append-only JSONL progress events.

Long campaigns must not be black boxes that report only at the end.  The
runner emits one event per state change -- campaign start/end, chunk
start, chunk done (with running throughput, cache-hit ratio, and ETA),
worker timeouts and retries -- to an append-only JSONL file that a
``repro campaign status`` call, a ``tail -f``, or a CI artifact collector
can consume while the campaign is still running.

Each line is a self-contained JSON object::

    {"seq": 12, "t": 1754473201.8, "event": "chunk_done", "index": 7,
     "cache_hit": false, "elapsed_s": 0.41, "done": 8, "total": 16,
     "replications_done": 60000, "reps_per_s": 145000.0,
     "cache_hit_ratio": 0.25, "eta_s": 3.2}

Writes are line-buffered and flushed per event so a reader (or a
post-mortem after a kill) sees every completed chunk.  Telemetry is an
*observability* plane: events never feed back into results, so replaying
a campaign from a warm store emits fresh events but identical numbers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.registry import MetricsRegistry


class Telemetry:
    """Append-only JSONL event writer (optionally teed to a second path)."""

    def __init__(
        self,
        path: Optional[Path],
        mirror: Optional[Path] = None,
        clock=time.time,
    ) -> None:
        self._clock = clock
        self._seq = 0
        self._handles = []
        for target in (path, mirror):
            if target is None:
                continue
            target = Path(target)
            target.parent.mkdir(parents=True, exist_ok=True)
            self._handles.append(target.open("a", encoding="utf-8"))

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event line; returns the record for convenience."""
        record = {"seq": self._seq, "t": self._clock(), "event": event}
        record.update(fields)
        self._seq += 1
        line = json.dumps(record, sort_keys=False) + "\n"
        for handle in self._handles:
            handle.write(line)
            handle.flush()
        return record

    def close(self) -> None:
        for handle in self._handles:
            try:
                handle.flush()
            finally:
                handle.close()
        self._handles = []

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_events(path: Path) -> List[Dict[str, Any]]:
    """Parse a telemetry (or journal) JSONL file, skipping garbage lines.

    A campaign killed mid-write can leave a truncated final line, and a
    damaged disk anything at all; a line that is not a UTF-8 JSON object
    carries no completed work, so it is dropped rather than fatal.
    """
    events: List[Dict[str, Any]] = []
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return events
    for raw in data.splitlines():
        try:
            event = json.loads(str(raw, "utf-8"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
            continue
        if isinstance(event, dict):
            events.append(event)
    return events


class Progress:
    """Running throughput / cache-ratio / ETA accounting for one run.

    The same numbers the per-chunk telemetry events carry are kept live
    on a :class:`~repro.obs.registry.MetricsRegistry` (counters for
    chunks/cache-hits/replications, gauges for reps/sec, cache-hit
    ratio, and ETA), so a campaign can expose or persist a standard
    metrics snapshot at any point.
    """

    def __init__(
        self,
        total_chunks: int,
        already_done: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.total = total_chunks
        self.done = already_done
        self.cache_hits = 0
        self.executed = 0
        self.replications_done = 0
        self._started = time.monotonic()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry.gauge(
            "repro_campaign_chunks_total", "Chunks in the campaign plan"
        ).set(total_chunks)
        self._chunks_done = self.registry.counter(
            "repro_campaign_chunks_done_total", "Chunks finished (any way)"
        )
        self._cache_hit_count = self.registry.counter(
            "repro_campaign_cache_hits_total", "Chunks served from the store"
        )
        self._executed_count = self.registry.counter(
            "repro_campaign_chunks_executed_total", "Chunks actually simulated"
        )
        self._replications = self.registry.counter(
            "repro_campaign_replications_total", "Scenario replications folded in"
        )
        self._rate = self.registry.gauge(
            "repro_campaign_reps_per_second", "Running replication throughput"
        )
        self._ratio = self.registry.gauge(
            "repro_campaign_cache_hit_ratio", "Cache hits / finished chunks"
        )
        self._eta = self.registry.gauge(
            "repro_campaign_eta_seconds", "Projected seconds to completion"
        )

    def record_chunk(self, replications: int, cache_hit: bool) -> Dict[str, Any]:
        self.done += 1
        if cache_hit:
            self.cache_hits += 1
            self._cache_hit_count.inc()
        else:
            self.executed += 1
            self._executed_count.inc()
        self.replications_done += int(replications)
        elapsed = max(time.monotonic() - self._started, 1e-9)
        finished_this_run = self.cache_hits + self.executed
        rate = self.replications_done / elapsed
        remaining = self.total - self.done
        # ETA from the observed per-chunk pace of *this* invocation.
        eta = (elapsed / finished_this_run) * remaining if finished_this_run else None
        self._chunks_done.inc()
        self._replications.inc(int(replications))
        self._rate.set(rate)
        self._ratio.set(self.cache_hits / finished_this_run)
        self._eta.set(eta if eta is not None else 0.0)
        return {
            "done": self.done,
            "total": self.total,
            "replications_done": self.replications_done,
            "reps_per_s": rate,
            "cache_hit_ratio": self.cache_hits / finished_this_run,
            "eta_s": eta,
        }
