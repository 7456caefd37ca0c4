"""Unified observability: metrics registry, phase profiler, trace spooling.

One plane serves every workload in the repository:

- :class:`~repro.obs.registry.MetricsRegistry` holds counters, gauges,
  and fixed-bucket histograms that components update through cheap
  handles, with JSON and Prometheus-text exposition;
- :class:`~repro.obs.profiler.PhaseProfiler` attributes wall-clock time
  to simulation phases (radio fan-out, FDS rounds, inter-cluster
  forwarding, event-heap churn) behind an ``enabled`` fast-path gate so
  disabled overhead is a single attribute load per hot call;
- :class:`~repro.obs.spool.SpoolingTracer` streams trace records to
  gzip'd JSONL on disk,
  bounding memory where :class:`~repro.sim.trace.RecordingTracer` would
  grow without limit;
- :mod:`repro.obs.analyze` + the ``repro trace`` CLI load spooled traces
  back and reconstruct summaries, timelines, detection latencies, and
  per-report message lineage.
"""

from repro.obs.profiler import NULL_PROFILER, NullProfiler, PhaseProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PHI_LATENCY_BUCKETS,
)
from repro.obs.spool import SpoolingTracer, iter_spool, read_spool

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NullProfiler",
    "PHI_LATENCY_BUCKETS",
    "PhaseProfiler",
    "SpoolingTracer",
    "iter_spool",
    "read_spool",
]
