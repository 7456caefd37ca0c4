"""Server-side view models: one spool digest per stamp, store snapshots.

The dashboard serves two kinds of state:

- **spool views** -- the ``repro trace`` reductions (summary, timeline,
  latency, lineage, topology) computed from a JSONL spool.  One
  streaming :func:`~repro.obs.spool.iter_spool` pass feeds every reducer
  of :mod:`repro.obs.analyze` at once and leaves a :class:`SpoolDigest`;
  every endpoint is answered from it.  The digest is cached against the
  file's ``(mtime_ns, size)`` stamp, so a recorded spool is read exactly
  once -- concurrent cold requests wait for the same pass -- while a
  *growing* spool is re-reduced, once, whenever a request observes new
  bytes.  What is retained is what the reducers keep: counters,
  histograms, bucket rows, the cluster map and the records that are not
  ``radio.*`` (lineage for any target reads those); the radio firehose
  -- over nine records in ten -- is reduced and dropped, never held.
  Only ``/api/timeline`` with an explicit non-default ``?bucket=`` reads
  the spool again, because that width is not known ahead of the request.
  The reader only ever opens the file read-only, so a live writer
  (lock-serialized :class:`~repro.obs.spool.SpoolingTracer`) is never
  blocked or corrupted;
- **store views** -- campaign status (shared with ``repro campaign
  status --json``) and the per-campaign persisted metrics snapshots,
  folded into one registry for ``/metrics``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.analyze import (
    ProtocolLog,
    SummaryReducer,
    TimelineReducer,
    TopologyReducer,
    TopologyView,
    TraceMeta,
    TraceSummary,
    latency_payload,
    lineage,
    lineage_payload,
    reduce_records,
    summary_payload,
    timeline,
    timeline_payload,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spool import iter_spool
from repro.obs.topology import topology_payload
from repro.sim.trace import TraceRecord


@dataclass(frozen=True)
class SpoolDigest:
    """What one pass over a spool leaves behind."""

    summary: TraceSummary
    #: ``(rows, meta)`` at the default bucket (the trace's phi).
    timeline: Tuple[List[Tuple[float, Dict[str, int]]], TraceMeta]
    topology: TopologyView
    #: The records that are not ``radio.*``, for lineage.
    protocol: List[TraceRecord]


class SpoolView:
    """Stamp-cached analyzer reductions over one spool file."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise ConfigurationError(f"no trace spool at {self.path}")
        self._stamp_seen: Optional[Tuple[int, int]] = None
        self._digest: Optional[SpoolDigest] = None
        #: Payloads built from the digest at ``_stamp_seen``.
        self._derived: Dict[Any, Any] = {}
        # A request that finds a new stamp reduces under this lock, so
        # the others wait for that pass instead of starting their own.
        self._lock = threading.Lock()

    def _stamp(self) -> Tuple[int, int]:
        stat = self.path.stat()
        return (stat.st_mtime_ns, stat.st_size)

    def _cached(self, key: Any, build: Callable[[SpoolDigest], Any]) -> Any:
        with self._lock:
            stamp = self._stamp()
            if stamp != self._stamp_seen:
                self._digest = SpoolDigest(*reduce_records(
                    iter_spool(self.path),
                    SummaryReducer(), TimelineReducer(), TopologyReducer(),
                    ProtocolLog(),
                ))
                self._derived = {}
                self._stamp_seen = stamp
            if key not in self._derived:
                self._derived[key] = build(self._digest)
            return self._derived[key]

    # -- reductions ----------------------------------------------------
    def summary_payload(self) -> Dict[str, Any]:
        return self._cached(
            "summary", lambda digest: summary_payload(digest.summary)
        )

    def timeline_payload(self, bucket: Optional[float] = None) -> Dict[str, Any]:
        def build(digest: SpoolDigest) -> Dict[str, Any]:
            if bucket is None:
                rows, meta = digest.timeline
            else:
                rows, meta = timeline(iter_spool(self.path), bucket=bucket)
            return timeline_payload(rows, meta, bucket=bucket)

        return self._cached(("timeline", bucket), build)

    def latency_payload(self) -> Dict[str, Any]:
        return self._cached(
            "latency", lambda digest: latency_payload(digest.summary)
        )

    def lineage_payload(self, target: int) -> Dict[str, Any]:
        return self._cached(
            ("lineage", int(target)),
            lambda digest: lineage_payload(
                lineage(digest.protocol, int(target))
            ),
        )

    def topology_payload(self) -> Dict[str, Any]:
        return self._cached(
            "topology", lambda digest: topology_payload(digest.topology)
        )


class StoreView:
    """Campaign status + persisted metrics of one result store."""

    def __init__(self, root: Path) -> None:
        # Deferred import: repro.campaign pulls the experiments stack,
        # which a spool-only dashboard should not pay for.
        from repro.campaign.store import ResultStore

        self.store = ResultStore(Path(root))

    def campaigns_payload(self) -> Dict[str, Any]:
        from repro.campaign.cli import status_payload

        return status_payload(self.store)

    def merge_metrics(self, registry: MetricsRegistry) -> int:
        """Fold every campaign's persisted snapshot into ``registry``.

        Reads the ``metrics.json`` dual of each campaign's
        ``metrics.prom`` (same registry, exact JSON numbers instead of
        re-parsing the text format).  Returns the campaign count folded.
        """
        merged = 0
        for campaign_id in self.store.campaign_ids():
            path = self.store.campaign_dir(campaign_id) / "metrics.json"
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (FileNotFoundError, json.JSONDecodeError):
                continue
            registry.merge_json(payload)
            merged += 1
        return merged
