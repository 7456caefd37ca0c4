"""The seven workloads: inputs, one op each, scoring, layer metrics.

A workload is constructed once per child process (imports and input
generation are part of ``setup_s``) and exposes three steps the harness
drives:

``op(rec)``
    the timed region -- a call into the same public entry point the CLI
    handler uses, consumed to the summary a user would read.  ``rec`` is
    a :class:`spans.SpanRecorder` on the traced op and ``None`` on the
    timed ones;
``score(raw)``
    untimed: pulls latencies/completeness out of the op's product, runs
    the output checks, releases temp files;
``layers(rec, outcome)``
    per-layer metrics of one traced op.

Sizes are fixed; the workload seed only seeds the scenario, so every op
of a run must produce the same digest.  Why each workload exists is
recorded next to its name in ``BENCHMARK.json`` and in the README.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, ContextManager, Dict, List, Optional, Sequence, Tuple

from repro.campaign.plans import scenario_repeat_plan
from repro.campaign.runner import CampaignOptions, run_campaign
from repro.campaign.store import ResultStore
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.obs.analyze import summarize, summary_payload
from repro.obs.cli import render_json
from repro.obs.profiler import PhaseProfiler
from repro.obs.spool import SpoolingTracer, iter_spool
from repro.rt.runtime import RtScenario, run_rt_scenario
from repro.serve.http import DashboardServer
from repro.serve.state import SpoolView
from repro.sim.trace import NullTracer

import checks
from spans import SpanRecorder, Target

Metrics = Dict[str, Optional[float]]


@dataclass
class Outcome:
    """What one op produced, reduced to what the benchmark reports."""

    #: Deterministic part of the op's answer (hashed into the digest).
    summary: Dict[str, Any]
    #: Crash -> first-detection latencies in seconds (simulated seconds
    #: on the simulators, wall seconds on ``rt_field``).
    latencies: List[float]
    anchor: float
    completeness: float
    failures: List[str]
    #: Counts and timings the layer metrics need.
    facts: Dict[str, Any] = field(default_factory=dict)


def _span(rec: Optional[SpanRecorder], name: str, layer: str) -> ContextManager:
    return rec.span(name, layer) if rec is not None else nullcontext()


# ----------------------------------------------------------------------
# Wrap targets (public functions of each layer).  Spans and counters
# that share a label feed one metric: the label's summed *self* time, so
# the layer metrics of an op partition its covered wall time.
# ----------------------------------------------------------------------
EVENT_TARGETS: Tuple[Target, ...] = (
    ("repro.topology.generators:multi_cluster_field", "topology", "topology.field", "span"),
    ("repro.topology.graph:UnitDiskGraph.__init__", "topology", "cluster.build", "span"),
    ("repro.cluster.geometric:build_clusters", "cluster", "cluster.build", "span"),
    ("repro.sim.network:build_network", "sim.network", "sim.network.build", "span"),
    ("repro.fds.service:install_fds", "fds", "fds.install", "span"),
    ("repro.failure.faultload:make_random_crashes", "failure", "failure.faultload", "span"),
    ("repro.failure.faultload:Faultload.inject", "failure", "failure.faultload", "span"),
    ("repro.fds.service:FdsDeployment.run_executions", "fds", "fds.run_executions", "span"),
    ("repro.metrics.properties:evaluate_properties", "metrics", "metrics.score", "span"),
    ("repro.metrics.collectors:collect_message_counts", "metrics", "metrics.score", "span"),
    ("repro.obs.topology:layout_topology_detail", "obs.topology", "obs.topology.detail", "span"),
)

ARRAY_TARGETS: Tuple[Target, ...] = (
    ("repro.sim.array_engine.layout:build_array_layout", "sim.array_engine.layout", "array.layout.build", "span"),
    ("repro.sim.array_engine.layout:lattice_positions", "sim.array_engine.layout", "array.layout.build", "span"),
    ("repro.sim.array_engine.formation:build_unit_disk_edges", "sim.array_engine.formation", "array.formation.edges", "span"),
    ("repro.sim.array_engine.formation:run_array_formation", "sim.array_engine.formation", "array.formation.run", "span"),
    ("repro.sim.array_engine.formation:formation_array_layout", "sim.array_engine.formation", "array.formation.to_layout", "span"),
    ("repro.sim.array_engine.loss:ArrayLossDraw.delivered", "sim.array_engine.loss", "array.loss.draw", "count"),
    ("repro.sim.array_engine.loss:ArrayLossDraw.draw_into", "sim.array_engine.loss", "array.loss.draw", "count"),
    ("repro.sim.array_engine.energy:ArrayEnergyLedger.charge_tx", "sim.array_engine.energy", "array.energy.charge", "count"),
    ("repro.sim.array_engine.energy:ArrayEnergyLedger.charge_rx", "sim.array_engine.energy", "array.energy.charge", "count"),
    ("repro.sim.array_engine.rounds:ArrayRoundEngine.__init__", "sim.array_engine.rounds", "array.rounds.init", "span"),
    ("repro.sim.array_engine.rounds:ArrayRoundEngine.run_execution", "sim.array_engine.rounds", "array.rounds.run", "span"),
    ("repro.failure.faultload:make_random_crashes", "failure", "failure.faultload", "span"),
    ("repro.sim.array_engine.runner:_score_properties", "metrics", "metrics.score", "span"),
    ("repro.obs.topology:array_topology_detail", "obs.topology", "obs.topology.detail", "span"),
)

SPOOL_WRITE_TARGETS: Tuple[Target, ...] = (
    ("repro.obs.spool:SpoolingTracer.emit", "obs.spool", "obs.spool.emit", "count"),
    ("repro.obs.spool:SpoolingTracer.close", "obs.spool", "obs.spool.emit", "span"),
)

SERVE_TARGETS: Tuple[Target, ...] = (
    ("repro.obs.spool:iter_spool", "obs.spool", "obs.spool.parse", "generator"),
    ("repro.obs.analyze:summarize", "obs.analyze", "obs.analyze.summarize", "span"),
    ("repro.obs.analyze:timeline", "obs.analyze", "obs.analyze.timeline", "span"),
    ("repro.obs.analyze:lineage", "obs.analyze", "obs.analyze.lineage", "span"),
    ("repro.obs.topology:topology_view", "obs.topology", "obs.topology.view", "span"),
)

CAMPAIGN_TARGETS: Tuple[Target, ...] = (
    ("repro.campaign.store:ResultStore.put", "campaign", "campaign.store.put", "count"),
    ("repro.campaign.store:ResultStore.get", "campaign", "campaign.store.get", "count"),
)

RT_TARGETS: Tuple[Target, ...] = (
    ("repro.rt.codec:encode_frame", "rt.codec", "rt.codec.encode", "count"),
    ("repro.rt.codec:decode_frame", "rt.codec", "rt.codec.decode", "count"),
    ("repro.rt.collector:merge_spools", "rt.collector", "rt.collector.merge", "span"),
)

#: Labels whose summed self time is reported as the metric ``<label>_s``.
SELF_TIME_LABELS: Tuple[str, ...] = (
    "topology.field", "cluster.build", "sim.network.build", "fds.install",
    "failure.faultload", "metrics.score", "fds.run_executions",
    "obs.spool.emit", "obs.analyze.summarize", "obs.analyze.timeline",
    "obs.analyze.lineage", "obs.topology.detail", "obs.topology.view",
    "array.layout.build", "array.formation.edges", "array.formation.run",
    "array.formation.to_layout", "array.loss.draw", "array.energy.charge",
    "campaign.plan", "campaign.store.put", "campaign.store.get",
    "rt.codec.encode", "rt.codec.decode", "rt.collector.merge",
)

#: metric -> the program's own PhaseProfiler phase (inclusive busy time;
#: phases nest, so these are a breakdown and are not summed).
PROG_METRICS: Dict[str, str] = {
    "prog.sim.heap_s": "sim.heap",
    "prog.radio.transmit_s": "radio.transmit",
    "prog.radio.deliver_s": "radio.deliver",
    "prog.fds.r1_s": "fds.r1",
    "prog.fds.r2_s": "fds.r2",
    "prog.fds.r3_s": "fds.r3",
    "prog.fds.intercluster_s": "fds.intercluster",
    "prog.array.layout_s": "array.layout",
    "prog.array.draws_s": "array.draws",
    "prog.array.rules_s": "array.rules",
    "prog.array.sync_s": "array.sync",
    "prog.array.intercluster_s": "array.intercluster",
    "prog.array.score_s": "array.score",
}


def self_time_metrics(rec: SpanRecorder, targets: Sequence[Target]) -> Metrics:
    """Every self-time metric this op could have fed: the labels it
    wrapped (0 s when never called) or opened itself.  A label none of
    whose wrap targets resolved reads ``None``."""
    resolved: Dict[str, bool] = {}
    for target, _layer, label, _mode in targets:
        resolved[label] = resolved.get(label, False) or target not in rec.unresolved
    for span in rec.spans:
        resolved[span.name] = True
    return {
        f"{label}_s": rec.self_time(label) if resolved[label] else None
        for label in SELF_TIME_LABELS if label in resolved
    }


def prog_metrics(profiler: PhaseProfiler, *prefixes: str) -> Metrics:
    return {
        metric: profiler.seconds.get(phase, 0.0)
        for metric, phase in PROG_METRICS.items()
        if phase.startswith(prefixes)
    }


# ----------------------------------------------------------------------
# Simulated scenarios (event engine and array engine)
# ----------------------------------------------------------------------
class ScenarioWorkload:
    """``run_scenario(config)`` then ``summary()`` -- what ``repro
    scenario`` does."""

    name = ""
    kwargs: Dict[str, Any] = {}
    min_completeness = 0.99
    #: False where Gilbert bursts legitimately cause false or late
    #: detections and formation may leave a crashed node unclustered
    #: (it then runs no FDS and nobody can detect it).
    strict = True
    targets: Tuple[Target, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.config = ScenarioConfig(seed=seed, **self.kwargs)
        self.anchor = checks.detection_anchor(
            self.config.fds.phi, self.config.fds.thop
        )

    def op(self, rec: Optional[SpanRecorder]) -> Any:
        profiler = PhaseProfiler() if rec is not None else None
        result = run_scenario(self.config, profiler=profiler)
        with _span(rec, "metrics.score", "metrics"):
            summary = result.summary()
        return result, summary, profiler

    def score(self, raw: Any) -> Outcome:
        result, summary, profiler = raw
        config = self.config
        latencies = [
            float(v) for v in result.detection_latencies.values()
            if v is not None
        ]
        failures = checks.check_scenario(
            summary,
            nodes=config.cluster_count * (config.members_per_cluster + 1),
            crashes=config.crash_count,
            min_completeness=self.min_completeness if self.strict else None,
            accurate=self.strict,
        )
        if self.strict:
            failures += checks.check_sim_latency(
                latencies, config.crash_count, self.anchor
            )
        else:
            failures += checks.check_clustered_crashes(
                result.properties.completeness, result.layout.is_clustered,
                latencies, self.anchor, self.min_completeness,
            )
        messages = result.messages
        facts: Dict[str, Any] = {
            "profiler": profiler,
            "nodes": int(summary["nodes"]),
            "transmissions": messages.transmissions,
            "deliveries": messages.deliveries,
            "losses": messages.losses,
            "trace_records": len(result.tracer.records),
            # The array engine has no event queue.
            "events": getattr(result.network.sim, "processed_events", None),
        }
        return Outcome(
            summary=dict(summary),
            latencies=latencies,
            anchor=self.anchor,
            completeness=float(summary["mean_completeness"]),
            failures=failures,
            facts=facts,
        )


#: Completeness floor on the small event-engine fields.  Under 10 %
#: Bernoulli loss about one seed in 200 leaves one of the 4 (or 9)
#: clusters without one of the 5 reports by the horizon (0.948 and 0.962
#: seen over 450 seeds); on the array fields one cluster in 400 cannot
#: move the mean below 0.99.
SMALL_FIELD_COMPLETENESS = 0.9


class EventRef(ScenarioWorkload):
    name = "event_ref"
    min_completeness = SMALL_FIELD_COMPLETENESS
    kwargs = dict(
        cluster_count=9, members_per_cluster=30, executions=4,
        crash_count=5, loss_probability=0.1, engine="event",
    )
    targets = EVENT_TARGETS

    def layers(self, rec: SpanRecorder, outcome: Outcome) -> Metrics:
        metrics = self_time_metrics(rec, self.targets)
        metrics.update(event_engine_metrics(rec, outcome))
        return metrics


def event_engine_metrics(rec: SpanRecorder, outcome: Outcome) -> Metrics:
    facts = outcome.facts
    run_s = rec.busy_time("fds.run_executions")
    metrics = prog_metrics(facts["profiler"], "sim.", "radio.", "fds.")
    metrics.update({
        "sim.events": facts["events"],
        "sim.events_per_s": facts["events"] / run_s if run_s else None,
        "sim.transmissions": facts["transmissions"],
        "sim.deliveries": facts["deliveries"],
        "sim.trace_records": facts["trace_records"],
    })
    return metrics


class ArrayWorkload(ScenarioWorkload):
    targets = ARRAY_TARGETS

    def layers(self, rec: SpanRecorder, outcome: Outcome) -> Metrics:
        facts = outcome.facts
        metrics = self_time_metrics(rec, self.targets)
        metrics.update(prog_metrics(facts["profiler"], "array."))
        runs = [span.busy for span in rec.named("array.rounds.run")]
        run_s = sum(runs)
        metrics.update({
            # Inclusive of the loss draws and energy charges made inside
            # the rounds (those also have their own metrics).
            "array.rounds.run_s": run_s,
            "array.rounds.per_execution_s": statistics.median(runs) if runs else None,
            "array.node_rounds_per_s": (
                facts["nodes"] * len(runs) / run_s if run_s else None
            ),
            "array.loss.attempted": facts["deliveries"] + facts["losses"],
            "array.loss.delivered": facts["deliveries"],
        })
        return metrics


class ArraySparse(ArrayWorkload):
    name = "array_sparse"
    kwargs = dict(
        cluster_count=1000, members_per_cluster=100, executions=3,
        crash_count=4, engine="array",
    )


class ArrayDense(ArrayWorkload):
    name = "array_dense"
    kwargs = dict(
        cluster_count=400, members_per_cluster=100, executions=4,
        crash_count=64, engine="array",
    )


class ArrayProtocol(ArrayWorkload):
    name = "array_protocol"
    # Eight formation iterations leave ~5 of 6464 nodes unclustered
    # (the default three leave ~2 %, and one seed in eight then crashes
    # a node nobody watches, dropping mean completeness to 0.75).
    kwargs = dict(
        cluster_count=64, members_per_cluster=100, executions=4,
        crash_count=4, engine="array", formation="protocol",
        formation_iterations=8, loss_kind="gilbert", track_energy=True,
    )
    min_completeness = 0.95
    strict = False


# ----------------------------------------------------------------------
# Record, then look: spool a traced run and load it in the dashboard
# ----------------------------------------------------------------------
def _http_get(port: int, url: str) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", url)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class _Dashboard:
    """A ``DashboardServer`` on an ephemeral port, as ``repro serve``
    builds it, serving from a background thread."""

    def __init__(self, spool: Path) -> None:
        self.server = DashboardServer(
            ("127.0.0.1", 0), SpoolView(spool), poll_interval=0.05
        )
        self.port = self.server.server_address[1]
        # A short selector timeout so shutdown() returns promptly; the
        # 0.5 s default would add up to half a second of idle wait.
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.02},
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join()


class TracePipeline:
    name = "trace_pipeline"
    targets = EVENT_TARGETS + SPOOL_WRITE_TARGETS + SERVE_TARGETS

    def __init__(self, seed: int, workdir: Path) -> None:
        # 6x24 rather than 4x30: about the same ~4x10^4 records, but the
        # record count (and so the op time) varies half as much from seed
        # to seed (interquartile 6 % against 12 %).
        self.config = ScenarioConfig(
            cluster_count=6, members_per_cluster=24, executions=4,
            crash_count=5, loss_probability=0.1, engine="event", seed=seed,
        )
        self.anchor = checks.detection_anchor(
            self.config.fds.phi, self.config.fds.thop
        )
        self.spool = workdir / "trace.jsonl"

    def _urls(self, lineage_target: int) -> Dict[str, str]:
        return {
            "summary": "/api/summary",
            "timeline": "/api/timeline",
            "latency": "/api/latency",
            "topology": "/api/topology",
            "lineage": f"/api/lineage?target={lineage_target}",
            "metrics": "/metrics",
        }

    def op(self, rec: Optional[SpanRecorder]) -> Any:
        started = perf_counter()
        profiler = PhaseProfiler()
        tracer = SpoolingTracer(self.spool)
        try:
            result = run_scenario(self.config, tracer=tracer, profiler=profiler)
        finally:
            tracer.close()
        recorded = perf_counter()
        lineage_target = min(int(node) for node in result.crash_times)
        urls = self._urls(lineage_target)
        responses: Dict[str, Tuple[int, bytes]] = {}
        with _span(rec, "serve.start", "serve"):
            dashboard = _Dashboard(self.spool)
        try:
            for label, url in urls.items():
                with _span(rec, f"serve.http.{label}", "serve"):
                    responses[label] = _http_get(dashboard.port, url)
        finally:
            with _span(rec, "serve.shutdown", "serve"):
                dashboard.close()
        loaded = perf_counter()
        return (
            result, tracer, profiler, responses, lineage_target,
            recorded - started, loaded - recorded,
        )

    def score(self, raw: Any) -> Outcome:
        result, tracer, profiler, responses, lineage_target, record_s, load_s = raw
        summary = result.summary()
        phi = self.config.fds.phi
        rows = json.loads(responses["latency"][1])["crashes"]
        latency_phi = {
            str(row["node"]): row["latency_phi"] for row in rows
        }
        latencies = [v * phi for v in latency_phi.values() if v is not None]
        expected = render_json(
            summary_payload(summarize(iter_spool(self.spool)))
        ).encode("utf-8")
        statuses = {label: status for label, (status, _b) in responses.items()}
        failures = checks.check_scenario(
            summary,
            nodes=self.config.cluster_count * (self.config.members_per_cluster + 1),
            crashes=self.config.crash_count,
            min_completeness=SMALL_FIELD_COMPLETENESS, accurate=True,
        )
        failures += checks.check_sim_latency(
            latencies, self.config.crash_count, self.anchor
        )
        failures += checks.check_pipeline(
            statuses, responses["summary"][1], expected
        )
        facts = {
            "profiler": profiler,
            "lineage_target": lineage_target,
            "record_s": record_s,
            "load_s": load_s,
            "records": tracer.spooled,
            "bytes": self.spool.stat().st_size,
            "errors": sum(1 for status in statuses.values() if status != 200),
            "events": result.network.sim.processed_events,
            "transmissions": result.messages.transmissions,
            "deliveries": result.messages.deliveries,
            "trace_records": tracer.spooled,
        }
        # The spool's mean_detection_latency is computed from a tracer
        # that holds no records; the dashboard's table is the answer.
        digest_summary = dict(summary)
        del digest_summary["mean_detection_latency"]
        digest_summary["records"] = tracer.spooled
        digest_summary["latency_phi"] = latency_phi
        return Outcome(
            summary=digest_summary,
            latencies=latencies,
            anchor=self.anchor,
            completeness=float(summary["mean_completeness"]),
            failures=failures,
            facts=facts,
        )

    def layers(self, rec: SpanRecorder, outcome: Outcome) -> Metrics:
        facts = outcome.facts
        metrics = self_time_metrics(rec, self.targets)
        metrics.update(event_engine_metrics(rec, outcome))
        parses = rec.named("obs.spool.parse")
        parse_s = sum(span.busy for span in parses)
        parsed = sum(span.calls for span in parses)
        metrics.update({
            "obs.spool.records": facts["records"],
            "obs.spool.bytes": facts["bytes"],
            "obs.spool.parse_s": parse_s,
            "obs.spool.parse_records_per_s": parsed / parse_s if parse_s else None,
            "serve.spool_passes": len(parses),
            "serve.http.errors": facts["errors"],
            "obs.record_s": facts["record_s"],
            "serve.load_s": facts["load_s"],
        })
        for label in ("summary", "timeline", "topology", "lineage"):
            metrics[f"serve.http.cold_{label}_s"] = rec.busy_time(
                f"serve.http.{label}"
            )
        return metrics

    # -- once per traced run: steady-state serving and live tailing ----
    def probe(self, outcomes: Sequence[Outcome], workdir: Path) -> Metrics:
        started = perf_counter()
        run_scenario(self.config, tracer=NullTracer()).summary()
        null_s = perf_counter() - started
        record_s = statistics.median(o.facts["record_s"] for o in outcomes)
        metrics: Metrics = {"obs.trace_on_ratio": record_s / null_s}
        metrics.update(self._probe_warm(outcomes[0].facts["lineage_target"]))
        metrics.update(self._probe_sse(workdir))
        return metrics

    def _probe_warm(self, lineage_target: int, requests: int = 1000) -> Metrics:
        """Closed loop, one client: every reduction is already cached."""
        urls = [
            url for label, url in self._urls(lineage_target).items()
            if label != "metrics"
        ]
        dashboard = _Dashboard(self.spool)
        try:
            for url in urls:
                _http_get(dashboard.port, url)
            samples = []
            errors = 0
            for index in range(requests):
                started = perf_counter()
                status, _body = _http_get(dashboard.port, urls[index % len(urls)])
                samples.append(1000.0 * (perf_counter() - started))
                errors += status != 200
        finally:
            dashboard.close()
        samples.sort()
        return {
            "serve.http.warm_p50_ms": statistics.median(samples),
            "serve.http.warm_p99_ms": samples[int(0.99 * len(samples))],
            "serve.http.warm_errors": errors,
        }

    def _probe_sse(
        self, workdir: Path, ticks: int = 50, interval: float = 0.02
    ) -> Metrics:
        """Append ``ticks`` records to a copy of the spool while one
        client is subscribed to ``/events``; lag is append -> receipt."""
        live = workdir / "live.jsonl"
        shutil.copyfile(self.spool, live)
        dashboard = _Dashboard(live)
        received: Dict[int, float] = {}
        caught_up = threading.Event()

        def subscribe() -> None:
            connection = http.client.HTTPConnection(
                "127.0.0.1", dashboard.port, timeout=30
            )
            try:
                connection.request("GET", "/events?kinds=bench")
                response = connection.getresponse()
                for line in response:
                    if line.startswith(b": keep-alive"):
                        caught_up.set()
                    elif line.startswith(b"data: "):
                        record = json.loads(line[6:])
                        received[int(record["seq"])] = perf_counter()
                        if len(received) == ticks:
                            return
            except (OSError, http.client.HTTPException):
                pass  # server shut down under us: the probe is over
            finally:
                connection.close()

        client = threading.Thread(target=subscribe, daemon=True)
        client.start()
        sent: Dict[int, float] = {}
        try:
            if caught_up.wait(timeout=30):
                with live.open("a", encoding="utf-8") as handle:
                    for seq in range(ticks):
                        sent[seq] = perf_counter()
                        handle.write(json.dumps(
                            {"time": 0.0, "kind": "bench.tick", "node": None,
                             "seq": seq}
                        ) + "\n")
                        handle.flush()
                        time.sleep(interval)
                client.join(timeout=2.0)
        finally:
            dashboard.close()
            client.join(timeout=5.0)
        lags = [
            1000.0 * (received[seq] - sent[seq])
            for seq in sent if seq in received
        ]
        return {
            "serve.sse.lag_p50_ms": statistics.median(lags) if lags else None,
            "serve.sse.delivered_share": len(lags) / ticks,
        }


# ----------------------------------------------------------------------
# Campaign: many tiny replications through the durable store
# ----------------------------------------------------------------------
class CampaignSmall:
    name = "campaign_small"
    targets = CAMPAIGN_TARGETS
    REPLICATIONS = 250

    def __init__(self, seed: int, workdir: Path) -> None:
        self.config = ScenarioConfig(
            cluster_count=4, members_per_cluster=30, executions=4,
            crash_count=2, engine="array",
        )
        self.seeds = range(1000 * seed, 1000 * seed + self.REPLICATIONS)
        self.anchor = checks.detection_anchor(
            self.config.fds.phi, self.config.fds.thop
        )
        self.options = CampaignOptions(workers=min(2, os.cpu_count() or 1))
        self.workdir = workdir
        self._ops = 0

    def op(self, rec: Optional[SpanRecorder]) -> Any:
        self._ops += 1
        root = self.workdir / f"store-{self._ops}"
        store = ResultStore(root)
        with _span(rec, "campaign.plan", "campaign"):
            plan = scenario_repeat_plan(self.config, self.seeds)
        cpu, started = process_time(), perf_counter()
        with _span(rec, "campaign.cold", "campaign"):
            cold = run_campaign(plan, store, self.options)
        cold_cpu, cold_s = process_time() - cpu, perf_counter() - started
        started = perf_counter()
        with _span(rec, "campaign.warm", "campaign"):
            warm = run_campaign(plan, store, self.options)
        warm_s = perf_counter() - started
        return root, cold, warm, cold_s, warm_s, cold_cpu

    def score(self, raw: Any) -> Outcome:
        root, cold, warm, cold_s, warm_s, cold_cpu = raw
        store_bytes = sum(
            path.stat().st_size for path in root.rglob("*") if path.is_file()
        )
        shutil.rmtree(root)
        failures = checks.check_campaign(cold, warm, self.REPLICATIONS)
        summaries = [payload["summary"] for payload in cold.result_payloads]
        latencies = [
            s["mean_detection_latency"] for s in summaries
            if s["mean_detection_latency"] > 0
        ]
        completeness = (
            statistics.fmean(s["mean_completeness"] for s in summaries)
            if summaries else 0.0
        )
        violations = sum(s["accuracy_violations"] for s in summaries)
        if completeness < 0.99:
            failures.append(f"completeness {completeness:.6f} < 0.99")
        if violations:
            failures.append(f"{violations:.0f} accuracy violation(s)")
        if not latencies or statistics.median(latencies) != self.anchor:
            failures.append("median per-seed detection latency is off the anchor")
        summary = {
            "replications": len(summaries),
            "cold_executed": cold.executed,
            "warm_cache_hits": warm.cache_hits,
            "nodes": sum(s["nodes"] for s in summaries),
            "transmissions": sum(s["transmissions"] for s in summaries),
            "mean_completeness": completeness,
            "accuracy_violations": violations,
            "detected": len(latencies),
        }
        facts = {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "cold_cpu": cold_cpu,
            "cache_hit_ratio": warm.cache_hits / max(1, warm.chunks_total),
            "store_bytes": store_bytes,
        }
        return Outcome(
            summary=summary, latencies=latencies, anchor=self.anchor,
            completeness=completeness, failures=failures, facts=facts,
        )

    def layers(self, rec: SpanRecorder, outcome: Outcome) -> Metrics:
        facts = outcome.facts
        metrics = self_time_metrics(rec, self.targets)
        metrics.update({
            "campaign.cold_s": facts["cold_s"],
            "campaign.cold_reps_per_s": self.REPLICATIONS / facts["cold_s"],
            "campaign.warm_s": facts["warm_s"],
            "campaign.warm_reps_per_s": self.REPLICATIONS / facts["warm_s"],
            "campaign.cache_hit_ratio": facts["cache_hit_ratio"],
            "campaign.store.put_calls": rec.calls("campaign.store.put"),
            "campaign.store.get_calls": rec.calls("campaign.store.get"),
            "campaign.store_bytes": facts["store_bytes"],
            # The parent owns the store, the journal and the pool; the
            # workers wait on it.
            "campaign.parent_cpu_share": facts["cold_cpu"] / facts["cold_s"],
        })
        return metrics


# ----------------------------------------------------------------------
# The same protocol objects on real UDP sockets
# ----------------------------------------------------------------------
class RtField:
    name = "rt_field"
    targets = RT_TARGETS

    def __init__(self, seed: int, workdir: Path) -> None:
        # 50 ms rounds (thop 0.5 x 0.1): twice the default's slack for
        # timer jitter, in the same 1.5 s of wall time per op.
        self.scenario = RtScenario(
            seed=seed, cluster_count=2, members_per_cluster=10,
            crash_count=2, executions=2, loss_kind="perfect",
            phi=6.0, time_scale=0.1,
        )
        wall = self.scenario.wall_config()
        self.anchor = checks.detection_anchor(wall.phi, wall.thop)
        self.workdir = workdir
        self._ops = 0

    def op(self, rec: Optional[SpanRecorder]) -> Any:
        self._ops += 1
        spool_dir = self.workdir / f"rt-{self._ops}"
        cpu, started = process_time(), perf_counter()
        with _span(rec, "rt.run", "rt"):
            result = run_rt_scenario(self.scenario, spool_dir=spool_dir)
        run_cpu, run_s = process_time() - cpu, perf_counter() - started
        with _span(rec, "metrics.score", "metrics"):
            summary = result.summary()
        return spool_dir, result, summary, run_s, run_cpu

    def score(self, raw: Any) -> Outcome:
        spool_dir, result, summary, run_s, run_cpu = raw
        by_node = result.detection_latencies
        shutil.rmtree(spool_dir)
        latencies = [float(v) for v in by_node.values() if v is not None]
        scenario = self.scenario
        failures = checks.check_rt(
            summary,
            nodes=scenario.cluster_count * (scenario.members_per_cluster + 1),
            crashes=scenario.crash_count,
        )
        # Only what wall-clock timing cannot change goes into the digest
        # (see checks.check_rt).
        digest_summary = {
            key: float(summary[key])
            for key in ("nodes", "clusters", "crashes", "codec_errors")
        }
        digest_summary["crashed"] = sorted(int(node) for node in by_node)
        facts = {
            "run_s": run_s,
            "run_cpu": run_cpu,
            "deliveries": summary["deliveries"],
            "codec_errors": summary["codec_errors"],
        }
        return Outcome(
            summary=digest_summary, latencies=latencies, anchor=self.anchor,
            completeness=float(summary["mean_completeness"]),
            failures=failures, facts=facts,
        )

    def layers(self, rec: SpanRecorder, outcome: Outcome) -> Metrics:
        facts = outcome.facts
        metrics = self_time_metrics(rec, self.targets)
        excess = (
            statistics.median(outcome.latencies) - self.anchor
            if outcome.latencies else None
        )
        metrics.update({
            "rt.run_s": facts["run_s"],
            "rt.cpu_share": facts["run_cpu"] / facts["run_s"],
            "rt.codec.encode_calls": rec.calls("rt.codec.encode"),
            "rt.codec.decode_calls": rec.calls("rt.codec.decode"),
            "rt.latency_excess_ms": None if excess is None else 1000.0 * excess,
            "rt.deliveries": facts["deliveries"],
            "rt.codec_errors": facts["codec_errors"],
        })
        return metrics


WORKLOADS = {
    cls.name: cls
    for cls in (
        EventRef, TracePipeline, ArraySparse, ArrayDense, ArrayProtocol,
        CampaignSmall, RtField,
    )
}
