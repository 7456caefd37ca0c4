"""Tests for the observability subsystem (repro.obs).

Covers the metrics registry (handles, exposition), the phase profiler,
the disk-spooling tracer (filtering, ring tail, gzip round-trip), the
trace analyzers (summarize / timeline / lineage over a real scenario
spool), and the bounded RecordingTracer satellite.
"""

import gzip
import io
import json
import math
import re
import threading

import pytest

from repro.audit.differential import predetected_targets
from repro.errors import ConfigurationError
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.obs.analyze import lineage, summarize, timeline
from repro.obs.profiler import (
    NULL_PROFILER,
    PHASE_FDS_INTERCLUSTER,
    PHASE_FDS_R1,
    PHASE_RADIO_TRANSMIT,
    PHASE_SIM_HEAP,
    PhaseProfiler,
)
from repro.obs.registry import PHI_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.spool import SpoolingTracer, iter_spool, read_spool
from repro.sim.trace import RecordingTracer, TraceRecord, iter_jsonl
from tests.spool_helpers import (
    write_corrupt_gzip_spool, write_cut_gzip_spool, write_hostile_spool,
)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_and_gauge_handles(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things")
        c.inc()
        c.inc(2)
        assert reg.counter("repro_things_total").value == 3
        g = reg.gauge("repro_level")
        g.set(1.5)
        g.dec(0.5)
        assert g.value == 1.0

    def test_counter_cannot_decrease(self):
        c = MetricsRegistry().counter("repro_c_total")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_name_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("bad name")
        with pytest.raises(ConfigurationError):
            reg.counter("0leading")

    def test_cross_type_collision(self):
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(ConfigurationError):
            reg.gauge("repro_x")

    def test_histogram_buckets_validated(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_h", ())
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_h", (2.0, 1.0))
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_h", (1.0, math.inf))
        reg.histogram("repro_h", (1.0, 2.0))
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_h", (1.0, 3.0))

    def test_histogram_observe_and_cumulative(self):
        h = MetricsRegistry().histogram("repro_h", (1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        assert h.cumulative() == [(1.0, 1), (2.0, 2), (math.inf, 3)]
        assert h.count == 3
        assert h.mean == pytest.approx((0.5 + 1.5 + 99.0) / 3)

    def test_prometheus_exposition_parses(self):
        reg = MetricsRegistry()
        reg.counter("repro_events_total", "All events").inc(7)
        reg.gauge("repro_rate").set(2.5)
        h = reg.histogram("repro_lat", (0.5, 1.0), help="latency")
        h.observe(0.25)
        h.observe(3.0)
        text = reg.render_prometheus()
        # Every non-comment line: metric{optional labels} <number>.
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? '
            r"[-+]?((\d+(\.\d+)?([eE][-+]?\d+)?)|inf|nan)$"
        )
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines
        for line in lines:
            assert sample.match(line), line
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_sum 3.25" in text
        assert "repro_lat_count 2" in text
        assert "# TYPE repro_events_total counter" in text

    def test_json_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total").inc()
        payload = json.loads(json.dumps(reg.to_json()))
        assert payload["counters"]["repro_a_total"] == 1


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestPhaseProfiler:
    def test_add_accumulates(self):
        from time import perf_counter

        p = PhaseProfiler()
        t0 = perf_counter()
        p.add(PHASE_RADIO_TRANSMIT, t0)
        p.add(PHASE_RADIO_TRANSMIT, t0)
        p.add_seconds(PHASE_SIM_HEAP, 1.0, calls=5)
        assert p.calls[PHASE_RADIO_TRANSMIT] == 2
        assert p.calls[PHASE_SIM_HEAP] == 5
        assert p.total_seconds >= 1.0

    def test_shares_sum_to_one(self):
        p = PhaseProfiler()
        p.add_seconds(PHASE_FDS_R1, 3.0)
        p.add_seconds(PHASE_FDS_INTERCLUSTER, 1.0)
        rows = p.shares()
        assert rows[0][0] == PHASE_FDS_R1
        assert sum(share for _p, _s, share, _c in rows) == pytest.approx(1.0)

    def test_null_profiler_is_disabled_and_inert(self):
        assert NULL_PROFILER.enabled is False
        NULL_PROFILER.add(PHASE_FDS_R1, 0.0)
        NULL_PROFILER.add_seconds(PHASE_FDS_R1, 1.0)
        assert NULL_PROFILER.seconds == {}

    def test_reset(self):
        p = PhaseProfiler()
        p.add_seconds(PHASE_FDS_R1, 1.0)
        p.reset()
        assert p.total_seconds == 0.0


# ----------------------------------------------------------------------
# RecordingTracer and the streamed JSONL form
# ----------------------------------------------------------------------
class TestBoundedRecordingTracer:
    def test_unbounded_default_never_drops(self):
        tracer = RecordingTracer()
        for i in range(100):
            tracer.record(float(i), "k")
        assert len(tracer) == 100
        assert tracer.records[0].time == 0.0

    def test_iter_jsonl_streams(self):
        tracer = RecordingTracer()
        tracer.record(1.0, "radio.tx", node=4, size=7)
        lines = iter_jsonl(tracer.records)
        assert next(iter(lines)) == json.dumps(
            {"time": 1.0, "kind": "radio.tx", "node": 4, "size": 7},
            sort_keys=True,
        )


# ----------------------------------------------------------------------
# Spooling tracer
# ----------------------------------------------------------------------
class TestSpoolingTracer:
    def test_roundtrip_plain(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with SpoolingTracer(path) as tracer:
            tracer.record(1.0, "radio.tx", node=1, size=3)
            tracer.record(2.0, "fds.detection", node=2, target=9)
        records = read_spool(path)
        assert [r.kind for r in records] == ["radio.tx", "fds.detection"]
        assert records[1].detail["target"] == 9

    def test_roundtrip_gzip(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        with SpoolingTracer(path) as tracer:
            tracer.record(1.0, "radio.tx", node=1)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert json.loads(handle.readline())["kind"] == "radio.tx"
        assert read_spool(path)[0].kind == "radio.tx"

    def test_kind_prefix_filter_is_segment_aware(self, tmp_path):
        # The filter is the reader's (``/events?kinds=``); the writer
        # spools everything.
        path = tmp_path / "trace.jsonl"
        with SpoolingTracer(path) as tracer:
            tracer.record(1.0, "fds.detection", node=1)
            tracer.record(1.0, "fdsx.not_ours", node=1)
            tracer.record(1.0, "radio.tx", node=1)
            tracer.record(1.0, "meta.scenario")
        assert tracer.spooled == 4
        assert [r.kind for r in read_spool(path, kinds=("fds", "meta"))] == [
            "fds.detection", "meta.scenario",
        ]

    def test_emit_after_close_raises(self, tmp_path):
        tracer = SpoolingTracer(tmp_path / "t.jsonl")
        tracer.close()
        tracer.close()  # idempotent
        with pytest.raises(ConfigurationError):
            tracer.record(1.0, "k")

    def test_iter_spool_skips_torn_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"time": 1.0, "kind": "a", "node": null}\n{"time": 2.0, "ki',
            encoding="utf-8",
        )
        assert [r.kind for r in iter_spool(path)] == ["a"]

    def test_iter_spool_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            list(iter_spool(tmp_path / "absent.jsonl"))

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_read_spool_skips_lines_that_are_not_records(
        self, tmp_path, gzipped
    ):
        path = tmp_path / "t.jsonl"
        data = write_hostile_spool(path)
        if gzipped:
            path.write_bytes(gzip.compress(data))
        assert [(r.time, r.kind) for r in read_spool(path)] == [
            (1.0, "a"), (2.0, "b"), (3.0, "c"),
        ]

    def test_gzip_spool_cut_short_yields_its_complete_lines(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_cut_gzip_spool(path)
        times = [r.time for r in read_spool(path)]
        assert 0 < len(times) < 200
        assert times == [float(n) for n in range(len(times))]

    def test_gzip_spool_cut_before_a_newline_drops_that_line(self, tmp_path):
        # A stream flushed but never closed, ending on a line whose
        # newline was not written: that line is torn, though its JSON
        # is whole.
        buffer = io.BytesIO()
        with gzip.GzipFile(fileobj=buffer, mode="wb") as handle:
            handle.write(
                b'{"time": 1.0, "kind": "a"}\n{"time": 2.0, "kind": "b"}'
            )
            handle.flush()
            cut = buffer.getvalue()
        path = tmp_path / "t.jsonl.gz"
        path.write_bytes(cut)
        assert [r.kind for r in read_spool(path)] == ["a"]

    def test_unclosed_gzip_spool_yields_its_flushed_batches(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        tracer = SpoolingTracer(path, flush_every=4)
        for n in range(1, 11):
            tracer.record(float(n), "k", node=n)
        assert [r.time for r in read_spool(path)] == [
            float(n) for n in range(1, 9)
        ]
        tracer.close()
        assert len(read_spool(path)) == 10

    def test_corrupt_gzip_spool_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_corrupt_gzip_spool(path)
        with pytest.raises(ConfigurationError, match="t.jsonl.gz"):
            read_spool(path)

    def test_follow_mode_skips_the_same_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_hostile_spool(path)
        stop = threading.Event()
        stop.set()
        records = iter_spool(path, follow=True, poll_interval=0.01, stop=stop)
        assert [r.kind for r in records] == ["a", "b", "c"]

    @pytest.mark.parametrize("follow", [False, True])
    def test_an_object_without_a_kind_is_no_record(self, tmp_path, follow):
        path = tmp_path / "t.jsonl"
        path.write_bytes(
            b'{"time": 1.0, "node": 3}\n{"time": 2.0, "kind": "a"}\n'
        )
        stop = threading.Event()
        stop.set()
        records = iter_spool(
            path, follow=follow, poll_interval=0.01, stop=stop
        )
        assert [(r.time, r.kind) for r in records] == [(2.0, "a")]

    def test_flush_every_is_what_another_reader_sees(self, tmp_path):
        # The rt crash-isolation contract: whatever happens to the
        # writer, the file holds whole batches of whole lines.
        path = tmp_path / "t.jsonl"
        tracer = SpoolingTracer(path, flush_every=4)
        for n in range(1, 11):
            tracer.record(float(n), "k", node=n)
            data = path.read_bytes()
            assert data.count(b"\n") == 4 * (n // 4)
            assert data == b"" or data.endswith(b"\n")
            assert tracer.spooled == n
        tracer.flush()
        assert len(read_spool(path)) == 10
        tracer.record(11.0, "k")
        assert len(read_spool(path)) == 10
        tracer.close()
        assert [r.time for r in read_spool(path)] == [
            float(n) for n in range(1, 12)
        ]

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SpoolingTracer(tmp_path / "t.jsonl", flush_every=0)


# ----------------------------------------------------------------------
# End-to-end: scenario -> spool -> analyzers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scenario_spool(tmp_path_factory):
    """A real multi-cluster run spooled to disk with profiling on."""
    path = tmp_path_factory.mktemp("spool") / "scenario.jsonl.gz"
    config = ScenarioConfig(
        cluster_count=3, members_per_cluster=10, crash_count=2,
        executions=4, seed=7,
    )
    with SpoolingTracer(path) as tracer:
        result = run_scenario(config, tracer=tracer, profiler=PhaseProfiler())
    return path, config, result


class TestTraceAnalysis:
    def test_summarize_from_spool_alone(self, scenario_spool):
        path, config, result = scenario_spool
        summary = summarize(iter_spool(path))
        assert summary.meta.found
        assert summary.meta.phi == config.fds.phi
        assert summary.meta.seed == config.seed
        assert summary.meta.nodes == len(result.network)
        assert len(summary.crash_times) == config.crash_count
        # Profiling was on: per-phase shares are recoverable, and the
        # built-in phases dominate.
        shares = summary.phase_shares()
        assert shares
        assert sum(s for _p, _sec, s, _c in shares) == pytest.approx(1.0)
        assert {p for p, _sec, _s, _c in shares} >= {
            "radio.transmit", "sim.heap", "fds.r1",
        }

    def test_phi_unit_latency_histogram(self, scenario_spool):
        path, _config, _result = scenario_spool
        summary = summarize(iter_spool(path))
        latencies = summary.detection_latencies_phi()
        detected = [v for v in latencies.values() if v is not None]
        assert detected, "scenario produced no detections"
        hist = summary.registry.histogram(
            "repro_detection_latency_phi", PHI_LATENCY_BUCKETS
        )
        assert hist.count == len(detected)
        # The paper's detection rule resolves a crash within ~2 phi.
        assert all(0.0 < v <= 2.0 for v in detected)

    def test_lineage_reconstructs_path_from_spool(self, scenario_spool):
        path, _config, result = scenario_spool
        target = next(iter(result.crash_times))
        chain = lineage(iter_spool(path), int(target))
        assert chain.crash_time == pytest.approx(result.crash_times[target])
        assert chain.detected
        kinds = [e.kind for e in chain.events]
        assert kinds[0] == "sim.crash"
        assert "fds.detection" in kinds
        # Sorted chronologically and stamped with rounds.
        times = [e.time for e in chain.events]
        assert times == sorted(times)
        detection = next(e for e in chain.events if e.kind == "fds.detection")
        assert detection.round == "R-3"

    def test_lineage_crosses_cluster_boundary(self, scenario_spool):
        path, _config, result = scenario_spool
        crossed = 0
        for target in result.crash_times:
            chain = lineage(iter_spool(path), int(target))
            if chain.crossed_boundary:
                crossed += 1
        assert crossed >= 1, "no report crossed a boundary in this scenario"

    def test_lineage_unknown_node_raises(self, scenario_spool):
        path, _config, _result = scenario_spool
        with pytest.raises(ConfigurationError):
            lineage(iter_spool(path), 99999)

    def test_timeline_buckets_by_phi(self, scenario_spool):
        path, config, _result = scenario_spool
        rows, meta = timeline(iter_spool(path))
        assert meta.found
        starts = [start for start, _counts in rows]
        assert starts == sorted(starts)
        assert all(start % config.fds.phi == 0 for start in starts)
        assert sum(c["radio"] for _s, c in rows) > 0

    @pytest.mark.parametrize("engine, seed, node", [
        ("array", 3, 15), ("array", 6, 32), ("event", 2, 81),
    ])
    def test_a_detection_before_the_crash_is_not_its_detection(
        self, tmp_path, engine, seed, node
    ):
        # Node ``node`` is falsely detected before it crashes.  Counted
        # as the crash's detection, that would give a negative latency
        # (and a negative mean) on every read path.
        config = ScenarioConfig(
            cluster_count=4, members_per_cluster=20, loss_probability=0.45,
            crash_count=3, executions=6, engine=engine, seed=seed,
        )
        memory = run_scenario(config)
        assert node in predetected_targets(memory)
        path = tmp_path / "run.jsonl.gz"
        with SpoolingTracer(path) as tracer:
            spooled = run_scenario(config, tracer=tracer)
        from_spool = {
            nid: None if phi_units is None else phi_units * config.fds.phi
            for nid, phi_units in summarize(
                iter_spool(path)
            ).detection_latencies_phi().items()
        }
        for latencies in (
            memory.detection_latencies, spooled.detection_latencies, from_spool
        ):
            assert set(latencies) == set(memory.crash_times)
            assert all(v is None or v >= 0 for v in latencies.values())
            assert latencies == from_spool
        assert memory.summary()["mean_detection_latency"] >= 0

    def test_detection_latency_graceful_without_records(
        self, scenario_spool, tmp_path
    ):
        # A closed spooling tracer's file is the authority; while it is
        # still open (or with no records at all) the view degrades to
        # all-None, never a crash.
        path, config, result = scenario_spool
        summary = summarize(iter_spool(path))
        assert result.detection_latencies == {
            nid: phi_units * config.fds.phi
            for nid, phi_units in summary.detection_latencies_phi().items()
        }
        tracer = SpoolingTracer(tmp_path / "open.jsonl")
        latencies = run_scenario(config, tracer=tracer).detection_latencies
        tracer.close()
        assert set(latencies) == set(result.crash_times)
        assert all(v is None for v in latencies.values())

    def test_profile_and_meta_records_in_spool(self, scenario_spool):
        path, _config, _result = scenario_spool
        metas = read_spool(path, kinds=("meta.scenario",))
        profiles = read_spool(path, kinds=("profile.phase",))
        assert len(metas) == 1
        assert profiles
        assert all(r.detail["seconds"] >= 0 for r in profiles)


# ----------------------------------------------------------------------
# The determinism contract: observability must not perturb results
# ----------------------------------------------------------------------
class TestObservabilityIsPassive:
    def test_profiled_run_is_bit_identical(self, tmp_path):
        config = ScenarioConfig(
            cluster_count=2, members_per_cluster=8, crash_count=1,
            executions=3, seed=13,
        )
        plain = run_scenario(config)
        profiled = run_scenario(config, profiler=PhaseProfiler())

        def sim_lines(result):
            # profile.phase carries wall-clock (nondeterministic by
            # design); everything the simulation itself emitted must
            # match bit for bit.
            return list(iter_jsonl(
                r for r in result.tracer.records
                if not r.kind.startswith("profile.")
            ))

        assert sim_lines(plain) == sim_lines(profiled)

    def test_spooled_run_matches_recorded_run(self, tmp_path):
        config = ScenarioConfig(
            cluster_count=2, members_per_cluster=8, crash_count=1,
            executions=3, seed=13,
        )
        recorded = run_scenario(config)
        path = tmp_path / "t.jsonl"
        with SpoolingTracer(path) as tracer:
            run_scenario(config, tracer=tracer)
        spooled = read_spool(path)
        in_memory = [
            r for r in recorded.tracer.records
            if r.kind != "meta.scenario"
        ]
        replay = [r for r in spooled if r.kind != "meta.scenario"]
        assert [r.kind for r in replay] == [r.kind for r in in_memory]
        assert [r.time for r in replay] == [r.time for r in in_memory]


# ----------------------------------------------------------------------
# Prometheus 0.0.4 exposition conventions
# ----------------------------------------------------------------------
class TestPrometheusExposition:
    """Locks the text-format details scrapers depend on: the counter
    ``_total`` suffix convention, HELP-line escaping, and the
    bucket/+Inf/sum/count ordering of histograms."""

    SAMPLE_RE = re.compile(
        r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
        r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? "
        r"[-+]?([0-9.]+([eE][-+]?[0-9]+)?|inf|nan))$"
    )

    def test_counter_gains_total_suffix(self):
        reg = MetricsRegistry()
        reg.counter("events", "Plain counter").inc(3)
        text = reg.render_prometheus()
        assert "# TYPE events_total counter" in text
        assert "\nevents_total 3\n" in text
        # The JSON dual keeps the registered name untouched.
        assert reg.to_json()["counters"] == {"events": 3.0}

    def test_counter_with_suffix_not_doubled(self):
        reg = MetricsRegistry()
        reg.counter("requests_total").inc()
        text = reg.render_prometheus()
        assert "requests_total 1" in text
        assert "requests_total_total" not in text

    def test_help_escapes_backslash_and_newline(self):
        reg = MetricsRegistry()
        reg.gauge("g", "line one\nline two \\ backslash").set(1)
        text = reg.render_prometheus()
        assert "# HELP g line one\\nline two \\\\ backslash" in text
        # The raw newline must never split the HELP line in two.
        assert "\nline two" not in text

    def test_histogram_order_inf_sum_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", (0.1, 0.5), "Latency")
        for v in (0.05, 0.3, 2.0):
            h.observe(v)
        lines = reg.render_prometheus().rstrip("\n").split("\n")
        samples = [l for l in lines if not l.startswith("#")]
        assert samples == [
            'lat_bucket{le="0.1"} 1',
            'lat_bucket{le="0.5"} 2',
            'lat_bucket{le="+Inf"} 3',
            "lat_sum 2.35",
            "lat_count 3",
        ]

    def test_every_line_matches_exposition_grammar(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "With help").inc(2)
        reg.gauge("b", "Gauge help\nwith newline").set(-1.5)
        reg.histogram("c", (1.0,), "Hist").observe(0.5)
        text = reg.render_prometheus()
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            assert self.SAMPLE_RE.match(line), line

    def test_merge_json_accumulates(self):
        src = MetricsRegistry()
        src.counter("hits_total").inc(5)
        src.gauge("level").set(2.0)
        src.histogram("lat", (1.0, 2.0)).observe(0.5)
        dst = MetricsRegistry()
        dst.counter("hits_total").inc(1)
        dst.gauge("level").set(9.0)
        dst.merge_json(src.to_json())
        dst.merge_json(src.to_json())
        snap = dst.to_json()
        assert snap["counters"]["hits_total"] == 11.0
        assert snap["gauges"]["level"] == 2.0  # last write wins
        assert snap["histograms"]["lat"]["count"] == 2
        assert snap["histograms"]["lat"]["counts"] == [2, 0]

    def test_merge_json_rejects_bucket_mismatch(self):
        src = MetricsRegistry()
        src.histogram("lat", (1.0, 2.0)).observe(0.5)
        dst = MetricsRegistry()
        dst.histogram("lat", (1.0, 5.0))
        with pytest.raises(ConfigurationError):
            dst.merge_json(src.to_json())
