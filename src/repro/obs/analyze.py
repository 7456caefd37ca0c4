"""Post-hoc trace analysis: summaries, timelines, latency, lineage.

Everything here consumes an *iterable* of
:class:`~repro.sim.trace.TraceRecord` -- a ``RecordingTracer.records``
list or a streamed :func:`~repro.obs.spool.iter_spool` -- and reduces it
in one pass, so analyzing a multi-gigabyte spool never materializes it.

Each reduction is a small *reducer*: ``feed(record)`` applies its
per-record rule, ``finish()`` returns the result.  The rule lives in the
reducer and nowhere else (the verdict rules: in the
:class:`~repro.obs.verdicts.VerdictTimeline` that the summary, lineage
and topology reducers feed).  :func:`summarize`, :func:`timeline`,
:func:`lineage` and :func:`repro.obs.topology.topology_view` drive one
reducer each (what ``repro trace`` calls), and :func:`reduce_records`
drives several over the *same* pass -- which is how ``repro serve``
answers every endpoint from a single read of the spool
(:class:`repro.serve.state.SpoolView`).  :class:`ProtocolLog` is the
reducer that makes lineage-for-any-target possible afterwards: it keeps
the few records that are not ``radio.*`` (under a tenth of a trace) and
drops the rest.

Every runner (event, array, rt) stamps its run through
:func:`stamp_run_header` -- a ``meta.scenario`` record (phi, thop, node
count, seed) followed by the ``meta.topology`` cluster map -- and, when
profiling, :func:`stamp_profile` appends one ``profile.phase`` record
per phase; the analyzers use those to express detection latency in
heartbeat-interval (phi) units and to report per-phase time shares from
the spool alone.  The record formats are written and read here and
nowhere else.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.errors import ConfigurationError
from repro.obs.registry import (
    HOP_LATENCY_BUCKETS,
    PHI_LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.obs.profiler import PhaseProfiler
from repro.obs.verdicts import CRASH_KIND, TIMELINE_KINDS, VerdictTimeline
from repro.sim.trace import TraceRecord, Tracer

#: Kind of the run-description record the scenario runner emits first.
META_KIND = "meta.scenario"
#: Kind of the cluster-map record that follows it (detail fields: see
#: :mod:`repro.obs.topology`).
TOPOLOGY_KIND = "meta.topology"
#: The ``meta.scenario`` timebase stamp of runtime traces (wall-clock
#: run; latency displays should use milliseconds).  Simulator traces
#: omit the field and default to ``"phi"``.
WALL_TIMEBASE = "wall_ms"
#: Kind of the per-phase wall-clock records emitted at run end.
PROFILE_KIND = "profile.phase"

#: Detail keys that name sets of node ids a record is "about".
_NODE_SET_KEYS = ("failures", "covered", "pending", "admissions")
#: Detail keys that name a single node id a record is "about".
_NODE_KEYS = ("target", "old_head", "sender")


@dataclass
class TraceMeta:
    """The run parameters recovered from a ``meta.scenario`` record."""

    phi: float = 1.0
    thop: float = 0.0
    nodes: int = 0
    seed: Optional[int] = None
    executions: int = 0
    fds_start: float = 0.0
    #: ``"phi"`` for simulator traces (virtual seconds; latencies are
    #: displayed in heartbeat intervals) or ``"wall_ms"`` for runtime
    #: traces (wall-clock seconds; latencies are also meaningful in
    #: milliseconds).  Old spools omit the field and default to "phi".
    timebase: str = "phi"
    #: Wall seconds per spec second (runtime traces only).
    time_scale: Optional[float] = None
    found: bool = False

    @classmethod
    def from_record(cls, record: TraceRecord) -> "TraceMeta":
        d = record.detail
        return cls(
            phi=float(d.get("phi", 1.0)),
            thop=float(d.get("thop", 0.0)),
            nodes=int(d.get("nodes", 0)),
            seed=d.get("seed"),
            executions=int(d.get("executions", 0)),
            fds_start=float(d.get("fds_start", 0.0)),
            timebase=str(d.get("timebase", "phi")),
            time_scale=d.get("time_scale"),
            found=True,
        )

    def to_detail(self) -> Dict[str, object]:
        """The ``meta.scenario`` detail :meth:`from_record` reads back.

        Simulator traces omit the timebase fields (readers default to
        ``"phi"``), which keeps their spools byte-stable.
        """
        detail: Dict[str, object] = {
            "phi": self.phi,
            "thop": self.thop,
            "nodes": self.nodes,
            "seed": self.seed,
            "executions": self.executions,
            "fds_start": self.fds_start,
        }
        if self.wall_clock:
            detail["timebase"] = self.timebase
            detail["time_scale"] = self.time_scale
        return detail

    @property
    def wall_clock(self) -> bool:
        """Whether timestamps are wall-clock seconds (runtime trace)."""
        return self.timebase == WALL_TIMEBASE

    def execution_of(self, time: float) -> int:
        """Which FDS execution a timestamp falls in (floor by phi)."""
        if self.phi <= 0:
            return 0
        return int((time - self.fds_start) // self.phi)

    def round_label(self, time: float) -> str:
        """R-1/R-2/R-3 (or the gap) a timestamp falls in."""
        if self.phi <= 0 or self.thop <= 0:
            return "?"
        offset = (time - self.fds_start) % self.phi
        if offset < self.thop:
            return "R-1"
        if offset < 2 * self.thop:
            return "R-2"
        if offset < 3 * self.thop:
            return "R-3"
        return "post"


def stamp_run_header(
    tracer: Tracer,
    time: float,
    meta: TraceMeta,
    topology_detail: Dict[str, object],
) -> None:
    """Open a run's trace: the run description, then the cluster map.

    The map follows immediately so the spool alone can draw the field
    (``repro serve``'s ``/api/topology``); ``topology_detail`` comes from
    :func:`repro.obs.topology.array_topology_detail`.
    """
    tracer.record(time, META_KIND, **meta.to_detail())
    tracer.record(time, TOPOLOGY_KIND, **topology_detail)


def stamp_profile(
    tracer: Tracer, time: float, profiler: Optional[PhaseProfiler]
) -> None:
    """Close a run's trace with one ``profile.phase`` record per phase."""
    if profiler is None or not profiler.enabled or not tracer.enabled:
        return
    for phase, seconds, _share, calls in profiler.shares():
        tracer.record(
            time, PROFILE_KIND, phase=phase, seconds=seconds, calls=calls
        )


@dataclass
class TraceSummary:
    """One-pass reduction of a trace."""

    meta: TraceMeta = field(default_factory=TraceMeta)
    records: int = 0
    first_time: Optional[float] = None
    last_time: Optional[float] = None
    kinds: Counter = field(default_factory=Counter)
    #: phase -> (seconds, calls), from ``profile.phase`` records.
    phases: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: node -> crash time.
    crash_times: Dict[int, float] = field(default_factory=dict)
    #: crashed node -> first detection time at or after its crash.
    first_detection: Dict[int, float] = field(default_factory=dict)
    #: per-hop delivery latencies were observed into the registry.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def span(self) -> float:
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time

    def detection_latencies_phi(self) -> Dict[int, Optional[float]]:
        """Crash-to-first-detection latency per crashed node, in phi units
        (``None`` when the crash was never detected)."""
        phi = self.meta.phi if self.meta.phi > 0 else 1.0
        out: Dict[int, Optional[float]] = {}
        for node, crashed_at in sorted(self.crash_times.items()):
            detected_at = self.first_detection.get(node)
            out[node] = (
                None if detected_at is None else (detected_at - crashed_at) / phi
            )
        return out

    def phase_shares(self) -> List[Tuple[str, float, float, int]]:
        """``(phase, seconds, share, calls)``, largest first."""
        total = sum(seconds for seconds, _ in self.phases.values())
        rows = [
            (phase, seconds, (seconds / total if total else 0.0), calls)
            for phase, (seconds, calls) in self.phases.items()
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows


class Reducer(Protocol):
    """One reduction of a record stream, fed a record at a time."""

    def feed(self, record: TraceRecord) -> None: ...

    def finish(self) -> Any: ...


def reduce_records(
    records: Iterable[TraceRecord], *reducers: Reducer
) -> List[Any]:
    """Feed every record to every reducer; one pass, results in order."""
    feeds = [reducer.feed for reducer in reducers]
    for record in records:
        for feed in feeds:
            feed(record)
    return [reducer.finish() for reducer in reducers]


class SummaryReducer:
    """Counts, run header, crash/detection times, latency histograms."""

    def __init__(self) -> None:
        self.summary = TraceSummary()
        self._verdicts = VerdictTimeline()
        self._hop = self.summary.registry.histogram(
            "repro_hop_latency_seconds",
            HOP_LATENCY_BUCKETS,
            help="Per-hop delivery latency of received copies",
        )

    def feed(self, record: TraceRecord) -> None:
        summary = self.summary
        kind = record.kind
        summary.records += 1
        if summary.first_time is None:
            summary.first_time = record.time
        summary.last_time = record.time
        summary.kinds[kind] += 1
        if kind == "radio.rx":
            latency = record.detail.get("latency")
            if latency is not None:
                self._hop.observe(float(latency))
        elif kind == META_KIND:
            if not summary.meta.found:
                summary.meta = TraceMeta.from_record(record)
        elif kind == PROFILE_KIND:
            phase = str(record.detail.get("phase", "?"))
            seconds = float(record.detail.get("seconds", 0.0))
            calls = int(record.detail.get("calls", 0))
            old_s, old_c = summary.phases.get(phase, (0.0, 0))
            summary.phases[phase] = (old_s + seconds, old_c + calls)
        elif kind in TIMELINE_KINDS:
            self._verdicts.feed(record)

    def finish(self) -> TraceSummary:
        summary = self.summary
        summary.crash_times = self._verdicts.crash_times
        summary.first_detection = self._verdicts.first_detections()
        phi_hist = summary.registry.histogram(
            "repro_detection_latency_phi",
            PHI_LATENCY_BUCKETS,
            help="Crash-to-first-detection latency in heartbeat intervals",
        )
        for latency in summary.detection_latencies_phi().values():
            if latency is not None:
                phi_hist.observe(latency)
        counters = summary.registry
        counters.counter(
            "repro_trace_records_total", "Records in the analyzed trace"
        ).inc(summary.records)
        counters.counter(
            "repro_trace_detections_total", "fds.detection events"
        ).inc(summary.kinds.get("fds.detection", 0))
        counters.counter(
            "repro_trace_crashes_total", "sim.crash events"
        ).inc(len(summary.crash_times))
        return summary


def summarize(records: Iterable[TraceRecord]) -> TraceSummary:
    """Reduce a record stream to a :class:`TraceSummary` in one pass."""
    return reduce_records(records, SummaryReducer())[0]


class TimelineReducer:
    """Bucketed event counts per top-level kind group.

    ``bucket`` defaults to the trace's phi (one row per FDS execution).
    Until that width is known -- only when the run header is not the
    first record -- events wait as ``(time, group)`` pairs.
    """

    def __init__(
        self,
        bucket: Optional[float] = None,
        groups: Tuple[str, ...] = ("radio", "fds", "sim"),
    ) -> None:
        self._bucket = bucket
        self._groups = groups
        self._width = bucket if bucket is not None else 0.0
        self._meta = TraceMeta()
        self._buckets: Dict[int, Dict[str, int]] = {}
        self._pending: List[Tuple[float, str]] = []

    def _charge(self, time: float, group: str) -> None:
        index = int(time // self._width)
        counts = self._buckets.get(index)
        if counts is None:
            counts = self._buckets[index] = dict.fromkeys(self._groups, 0)
        if group in counts:
            counts[group] += 1

    def feed(self, record: TraceRecord) -> None:
        kind = record.kind
        if kind == META_KIND and not self._meta.found:
            self._meta = TraceMeta.from_record(record)
            if self._bucket is None:
                self._width = self._meta.phi
        group = kind.partition(".")[0]
        if self._width <= 0.0:
            self._pending.append((record.time, group))
            return
        if self._pending:
            self._drain()
        self._charge(record.time, group)

    def _drain(self) -> None:
        for time, group in self._pending:
            self._charge(time, group)
        self._pending.clear()

    def finish(self) -> Tuple[List[Tuple[float, Dict[str, int]]], TraceMeta]:
        if self._width <= 0.0:
            self._width = 1.0
        self._drain()
        rows = [
            (index * self._width, counts)
            for index, counts in sorted(self._buckets.items())
        ]
        return rows, self._meta


def timeline(
    records: Iterable[TraceRecord],
    bucket: Optional[float] = None,
    groups: Tuple[str, ...] = ("radio", "fds", "sim"),
) -> Tuple[List[Tuple[float, Dict[str, int]]], TraceMeta]:
    """Bucketed event counts per top-level kind group.

    ``bucket`` defaults to the trace's phi (one row per FDS execution).
    Returns ``(rows, meta)`` where each row is ``(bucket_start, counts)``.
    """
    return reduce_records(records, TimelineReducer(bucket, groups))[0]


# ----------------------------------------------------------------------
# Lineage
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LineageEvent:
    """One step in a failure report's reconstructed path."""

    time: float
    execution: int
    round: str
    kind: str
    node: Optional[int]
    note: str


@dataclass
class Lineage:
    """The reconstructed life of one failure report (``target``)."""

    target: int
    crash_time: Optional[float]
    events: List[LineageEvent]
    #: Every node that announced the target failed, before its crash too.
    detectors: Tuple[int, ...]
    forward_hops: int
    relays: int
    #: Detected at or after the crash (announced at all, when the trace
    #: holds no crash of the target).
    detected: bool

    @property
    def crossed_boundary(self) -> bool:
        return self.forward_hops > 0 and self.relays > 0


def _mentions(record: TraceRecord, target: int) -> bool:
    detail = record.detail
    for key in _NODE_KEYS:
        value = detail.get(key)
        if value is not None and int(value) == target:
            return True
    for key in _NODE_SET_KEYS:
        value = detail.get(key)
        if value and target in (int(v) for v in value):
            return True
    return False


def _note_for(record: TraceRecord) -> str:
    d = record.detail
    kind = record.kind
    if kind == CRASH_KIND:
        return "node fail-stops (ground truth)"
    if kind == "fds.detection":
        return (f"detected by node {d.get('detector')} "
                f"in execution {d.get('execution')}")
    if kind == "fds.takeover":
        return f"DCH {d.get('new_head')} deposes CH {d.get('old_head')}"
    if kind == "fds.origin_watch":
        return f"origin CH arms forwarding watch on {d.get('failures')}"
    if kind == "fds.origin_covered":
        return f"origin overheard forwarding of {d.get('covered')}"
    if kind == "fds.origin_rebroadcast":
        return (f"origin rebroadcast, retry {d.get('retry')} "
                f"(pending {d.get('pending')})")
    if kind == "fds.inter_duty":
        return (f"boundary duty toward head {d.get('dest')} "
                f"(rank {d.get('rank')}, origin {d.get('origin')})")
    if kind == "fds.inter_arm":
        return (f"implicit-ack timer toward {d.get('dest')} "
                f"({'standby' if d.get('standby') else 'post-forward'})")
    if kind == "fds.report_forwarded":
        return (f"FailureReport {d.get('failures')} forwarded across the "
                f"boundary to head {d.get('peer')}")
    if kind == "fds.inter_ack":
        return f"coverage by head {d.get('peer')} acknowledges {d.get('covered')}"
    if kind == "fds.inter_release":
        return f"watch toward {d.get('dest')} released"
    if kind == "fds.relay":
        return (f"destination CH relays {d.get('failures')} into its "
                f"cluster (origin {d.get('origin')})")
    if kind == "fds.refutation":
        return "suspicion refuted by direct liveness evidence"
    if kind == "fds.admission":
        return f"re-admitted as member ({d.get('admissions')})"
    return ", ".join(f"{k}={v}" for k, v in sorted(d.items()))


class LineageReducer:
    """Everything the trace says about one node (``target``)."""

    def __init__(self, target: int) -> None:
        self.target = int(target)
        self._meta = TraceMeta()
        self._matched: List[TraceRecord] = []
        self._verdicts = VerdictTimeline()
        self._forward_hops = 0
        self._relays = 0

    def feed(self, record: TraceRecord) -> None:
        kind = record.kind
        if kind == META_KIND and not self._meta.found:
            self._meta = TraceMeta.from_record(record)
            return
        if kind in TIMELINE_KINDS:
            self._verdicts.feed(record)
        if kind == CRASH_KIND:
            if record.node is not None and int(record.node) == self.target:
                self._matched.append(record)
            return
        if not kind.startswith("fds."):
            return
        if not _mentions(record, self.target):
            return
        self._matched.append(record)
        if kind == "fds.report_forwarded":
            self._forward_hops += 1
        elif kind == "fds.relay":
            self._relays += 1

    def finish(self) -> Lineage:
        if not self._matched:
            raise ConfigurationError(
                f"trace has no events about node {self.target} (crash, "
                "detection, or forwarding) -- wrong report id, or the spool "
                "filtered fds.*"
            )
        meta = self._meta
        self._matched.sort(key=lambda r: r.time)
        events = [
            LineageEvent(
                time=record.time,
                execution=meta.execution_of(record.time),
                round=meta.round_label(record.time),
                kind=record.kind,
                node=None if record.node is None else int(record.node),
                note=_note_for(record),
            )
            for record in self._matched
        ]
        verdicts = self._verdicts
        crash_time = verdicts.crash_times.get(self.target)
        detectors = verdicts.detectors(self.target)
        return Lineage(
            target=self.target,
            crash_time=crash_time,
            events=events,
            detectors=detectors,
            forward_hops=self._forward_hops,
            relays=self._relays,
            detected=(
                bool(detectors) if crash_time is None
                else self.target in verdicts.first_detections()
            ),
        )


def lineage(records: Iterable[TraceRecord], target: int) -> Lineage:
    """Reconstruct the R-1 -> R-3 -> inter-cluster path of one report.

    ``target`` is the report's subject (the crashed node's id).  The
    chain is everything the trace says about that node, in time order:
    the ground-truth crash, the R-3 detection at its cluster's authority,
    the origin watch, each boundary forwarding (``fds.report_forwarded``),
    the destination relays, and any refutations -- each stamped with the
    execution index and round (R-1/R-2/R-3) it fell in.
    """
    return reduce_records(records, LineageReducer(target))[0]


class ProtocolLog:
    """Keeps the records that are not ``radio.*``, in order.

    Lineage takes its target as a parameter, so it cannot be reduced
    ahead of the question; but it reads only the run header, crashes and
    ``fds.*`` events.  Dropping the radio firehose (over nine records in
    ten) leaves a log small enough to hold and complete enough to answer
    :func:`lineage` for any target later.
    """

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def feed(self, record: TraceRecord) -> None:
        if not record.kind.startswith("radio."):
            self.records.append(record)

    def finish(self) -> List[TraceRecord]:
        return self.records


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
@dataclass
class TopologyView:
    """The cluster map a record stream describes, plus liveness status."""

    meta: TraceMeta = field(default_factory=TraceMeta)
    #: ``[{"head", "members", "deputies"}, ...]`` sorted by head.
    clusters: List[Dict[str, object]] = field(default_factory=list)
    #: ``[{"owner", "peer", "forwarders"}, ...]`` sorted by (owner, peer).
    boundaries: List[Dict[str, object]] = field(default_factory=list)
    unclustered: List[int] = field(default_factory=list)
    #: node -> (x, y); empty when the spool predates ``meta.topology``.
    positions: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    #: node -> crash time (ground truth).
    crash_times: Dict[int, float] = field(default_factory=dict)
    #: node -> its first announcement as failed, at any time: a false
    #: detection before (or without) a crash counts.
    first_announcement: Dict[int, float] = field(default_factory=dict)
    #: Whether a ``meta.topology`` record was present.
    found: bool = False

    def roles(self) -> Dict[int, str]:
        """node -> ``head``/``deputy``/``gateway``/``member``/``unclustered``.

        A node holding several roles reports the most specific one, in
        the order head > deputy > gateway > member.
        """
        out: Dict[int, str] = {}
        for node in self.positions:
            out[node] = "member"
        for node in self.unclustered:
            out[node] = "unclustered"
        for boundary in self.boundaries:
            for forwarder in boundary["forwarders"]:
                out[int(forwarder)] = "gateway"
        for cluster in self.clusters:
            for member in cluster["members"]:
                out.setdefault(int(member), "member")
            for deputy in cluster["deputies"]:
                out[int(deputy)] = "deputy"
        for cluster in self.clusters:
            out[int(cluster["head"])] = "head"
        return out

    def cluster_of(self) -> Dict[int, int]:
        """node -> owning cluster's head id."""
        out: Dict[int, int] = {}
        for cluster in self.clusters:
            head = int(cluster["head"])
            for member in cluster["members"]:
                out[int(member)] = head
        return out


class TopologyReducer:
    """The ``meta.topology`` map crossed with crashes and detections."""

    def __init__(self) -> None:
        self.view = TopologyView()
        self._verdicts = VerdictTimeline()

    def feed(self, record: TraceRecord) -> None:
        view = self.view
        kind = record.kind
        if kind == META_KIND:
            if not view.meta.found:
                view.meta = TraceMeta.from_record(record)
        elif kind == TOPOLOGY_KIND:
            if view.found:
                return
            detail = record.detail
            view.clusters = [dict(c) for c in detail.get("clusters", [])]
            view.boundaries = [dict(b) for b in detail.get("boundaries", [])]
            view.unclustered = [int(n) for n in detail.get("unclustered", [])]
            nodes = detail.get("nodes", [])
            xs = detail.get("x", [])
            ys = detail.get("y", [])
            view.positions = {
                int(n): (float(x), float(y))
                for n, x, y in zip(nodes, xs, ys)
            }
            view.found = True
        elif kind in TIMELINE_KINDS:
            self._verdicts.feed(record)

    def finish(self) -> TopologyView:
        view = self.view
        view.crash_times = self._verdicts.crash_times
        view.first_announcement = self._verdicts.first_announcements()
        return view


# ----------------------------------------------------------------------
# JSON payloads (one machine-readable surface for the CLI's ``--json``
# flags and the dashboard's ``/api/*`` endpoints -- both serialize these
# with ``json.dumps(payload, indent=2, sort_keys=True)``, so the two
# surfaces agree byte for byte on the same spool).
# ----------------------------------------------------------------------
def meta_payload(meta: TraceMeta) -> Dict[str, object]:
    return {
        "phi": meta.phi,
        "thop": meta.thop,
        "nodes": meta.nodes,
        "seed": meta.seed,
        "executions": meta.executions,
        "timebase": meta.timebase,
    }


def summary_payload(summary: TraceSummary) -> Dict[str, object]:
    """The ``repro trace summarize --json`` / ``/api/summary`` document."""
    return {
        "records": summary.records,
        "span_s": summary.span,
        "meta": meta_payload(summary.meta),
        "kinds": dict(sorted(summary.kinds.items())),
        "phases": {
            phase: {"seconds": seconds, "share": share, "calls": calls}
            for phase, seconds, share, calls in summary.phase_shares()
        },
        "detection_latency_phi": {
            str(node): latency
            for node, latency in summary.detection_latencies_phi().items()
        },
        "metrics": summary.registry.to_json(),
    }


def timeline_payload(
    rows: List[Tuple[float, Dict[str, int]]],
    meta: TraceMeta,
    bucket: Optional[float] = None,
) -> Dict[str, object]:
    """The ``repro trace timeline --json`` / ``/api/timeline`` document."""
    width = bucket if bucket is not None else meta.phi
    groups = sorted(rows[0][1]) if rows else []
    return {
        "bucket_s": width,
        "groups": groups,
        "meta": meta_payload(meta),
        "rows": [
            {"t_start": start, "counts": dict(sorted(counts.items()))}
            for start, counts in rows
        ],
    }


def latency_payload(summary: TraceSummary) -> Dict[str, object]:
    """The ``repro trace latency --json`` / ``/api/latency`` document."""
    phi = summary.meta.phi
    wall = summary.meta.wall_clock
    crashes = []
    for node, latency in sorted(summary.detection_latencies_phi().items()):
        detected_at = summary.first_detection.get(node)
        row: Dict[str, object] = {
            "node": node,
            "crashed_at": summary.crash_times[node],
            "detected_at": detected_at,
            "latency_phi": latency,
        }
        if wall:
            row["latency_ms"] = (
                None if latency is None else 1000 * latency * phi
            )
        crashes.append(row)
    return {"meta": meta_payload(summary.meta), "crashes": crashes}


def lineage_payload(chain: Lineage) -> Dict[str, object]:
    """The ``repro trace lineage --json`` / ``/api/lineage`` document."""
    return {
        "target": chain.target,
        "crash_time": chain.crash_time,
        "detected": chain.detected,
        "detectors": list(chain.detectors),
        "forward_hops": chain.forward_hops,
        "relays": chain.relays,
        "events": [
            {
                "time": event.time,
                "execution": event.execution,
                "round": event.round,
                "kind": event.kind,
                "node": event.node,
                "note": event.note,
            }
            for event in chain.events
        ],
    }
