"""Whole-simulation determinism: identical seeds replay bit-exactly.

Replayability is a design rule of the library (README): any run -- message
losses, delivery timing, protocol decisions, scored properties -- is a
pure function of its seed.  These tests run full scenarios twice and
compare everything observable.
"""

import hashlib
import json
import random
from dataclasses import astuple

import pytest

from repro.audit.differential import trace_fingerprint
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.experiments.scenarios import single_cluster_validation
from repro.obs.profiler import PhaseProfiler
from repro.obs.spool import SpoolingTracer
from repro.rt.collector import merge_spools
from repro.sim.trace import RecordingTracer
from tests.scalar_medium import ScalarRadioMedium, scalar_medium_installed
from tests.spool_helpers import PIPELINE


def fingerprint(result):
    """Everything observable about a scenario run, hashable-comparable."""
    histories = {
        int(nid): tuple(sorted(map(int, p.history.known)))
        for nid, p in sorted(result.deployment.protocols.items())
    }
    trace = tuple(
        (round(r.time, 9), r.kind, r.node) for r in result.tracer.records
    )
    return (
        result.messages,
        result.properties.completeness,
        result.properties.accuracy_violations,
        histories,
        trace,
    )


class TestDeterminism:
    def test_identical_seeds_identical_everything(self):
        config = ScenarioConfig(
            cluster_count=3,
            members_per_cluster=15,
            loss_probability=0.2,
            crash_count=2,
            executions=4,
            seed=99,
        )
        a = fingerprint(run_scenario(config))
        b = fingerprint(run_scenario(config))
        assert a == b

    def test_vectorized_and_scalar_paths_identical(self):
        # The batched-RNG transmit path must replay the scalar reference
        # loop bit-exactly: same losses, same delivery times, same trace.
        config = ScenarioConfig(
            cluster_count=3,
            members_per_cluster=15,
            loss_probability=0.2,
            crash_count=2,
            executions=4,
            seed=99,
        )
        a = fingerprint(run_scenario(config))
        with scalar_medium_installed():
            scalar = run_scenario(config)
        assert isinstance(scalar.network.medium, ScalarRadioMedium)
        assert a == fingerprint(scalar)

    def test_different_seeds_differ(self):
        base = ScenarioConfig(
            cluster_count=3,
            members_per_cluster=15,
            loss_probability=0.2,
            crash_count=2,
            executions=4,
            seed=99,
        )
        from dataclasses import replace

        a = fingerprint(run_scenario(base))
        b = fingerprint(run_scenario(replace(base, seed=100)))
        assert a != b

    def test_formation_protocol_deterministic(self):
        config = ScenarioConfig(
            cluster_count=2,
            members_per_cluster=15,
            loss_probability=0.15,
            crash_count=1,
            executions=3,
            seed=7,
            formation="protocol",
        )
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.layout.heads == b.layout.heads
        assert {h: c.members for h, c in a.layout.clusters.items()} == {
            h: c.members for h, c in b.layout.clusters.items()
        }
        assert fingerprint(a) == fingerprint(b)

    def test_validation_runs_replay(self):
        a = single_cluster_validation(n=30, p=0.4, executions=40, seed=5)
        b = single_cluster_validation(n=30, p=0.4, executions=40, seed=5)
        assert a.false_detections == b.false_detections
        assert a.incompleteness_events == b.incompleteness_events


# ----------------------------------------------------------------------
# Golden bit-identity gate for the event engine
# ----------------------------------------------------------------------
# Captured at commit 6f1dba1 (one heap event per reception), before the
# delivery lane went in: the whole trace, the event count and the
# medium's counters of four event-engine runs.  A change to how the
# engine stores or fires events must leave every one of them alone; a
# change that *means* to alter behaviour re-captures them and says so.
EVENT_REF = dict(
    cluster_count=9, members_per_cluster=30, executions=4,
    crash_count=5, loss_probability=0.1, seed=1,
)
GOLDEN_RUNS = {
    "event_ref": (
        EVENT_REF,
        "52c7908c06965b8df8c0b833610b19c638398597b06e0c2ba2d2122c1b13bf6a",
        86405,
        {"transmissions": 2956, "deliveries": 81448, "losses": 8913},
    ),
    "lossless": (
        dict(EVENT_REF, loss_probability=0.0),
        "483c482b2f50211812b03216a01cd2820e912408cb8ac90a6de51f737e850596",
        75227,
        {"transmissions": 2348, "deliveries": 70674, "losses": 0},
    ),
    "protocol_gilbert_energy": (
        dict(
            EVENT_REF, formation="protocol", loss_kind="gilbert",
            track_energy=True,
        ),
        "a8fb25513a6a7ec935eda2e5462b38848bf7a0d2e35188b21a801577e6687508",
        136363,
        {"transmissions": 4610, "deliveries": 126320, "losses": 15734},
    ),
}
#: ``PhaseProfiler.calls`` of the profiled ``event_ref`` run: one
#: ``sim.heap`` add per fired event, one ``radio.deliver`` per delivered
#: copy, one ``radio.transmit`` per transmission.
GOLDEN_PHASE_CALLS = {
    "fds.intercluster": 8013,
    "fds.r1": 1104,
    "fds.r2": 1104,
    "fds.r3": 1104,
    "fds.r3end": 1104,
    "radio.deliver": 81448,
    "radio.transmit": 2956,
    "sim.heap": 86405,
}


def observed(result, tracer=None):
    return (
        trace_fingerprint(tracer if tracer is not None else result.tracer),
        result.network.sim.processed_events,
        result.network.medium.message_stats(),
    )


class TestGoldenEventEngine:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_trace_events_and_counters_unchanged(self, name):
        kwargs, fingerprint_, events, stats = GOLDEN_RUNS[name]
        result = run_scenario(ScenarioConfig(**kwargs))
        assert observed(result) == (fingerprint_, events, stats)

    def test_profiled_run_differs_only_in_profile_records(self):
        kwargs, fingerprint_, events, stats = GOLDEN_RUNS["event_ref"]
        profiler = PhaseProfiler()
        result = run_scenario(ScenarioConfig(**kwargs), profiler=profiler)
        unprofiled = RecordingTracer()
        for record in result.tracer.records:
            if not record.kind.startswith("profile."):
                unprofiled.emit(record)
        assert len(unprofiled.records) < len(result.tracer.records)
        assert observed(result, unprofiled) == (fingerprint_, events, stats)
        assert profiler.calls == GOLDEN_PHASE_CALLS


# ----------------------------------------------------------------------
# Golden fingerprints of the array engine
# ----------------------------------------------------------------------
# Captured at commit 242b077 (one ``rng.random(count)`` per draw, index
# gather/scatter, full inter-cluster rescans), one config per draw path:
# SHA-256 of the canonical ``summary()``, the trace fingerprint, and the
# whole ``MessageCounts``.  The 36 x 60 field makes the ``hb_mm`` draw
# ~75 k copies, more than one draw block; the bounded budget (7000)
# dies inside that draw's second block.
ARRAY_FIELD = dict(
    cluster_count=36, members_per_cluster=60, executions=4,
    crash_count=6, loss_probability=0.1, engine="array", seed=1,
)
ORACLE_TRACE = "96c6e8dc72040c777011b4bbbdb5b8b5f2a322b75d6b6528209910e8195fb4af"
GOLDEN_ARRAY_RUNS = {
    "bernoulli": (
        ARRAY_FIELD,
        "30c1268812f318110c0ea6fee61b32b626d9ca838ff86780f8184f83195327b1",
        ORACLE_TRACE,
        (20319, 348806, 38757, 1069, 968, 874, 150, 300, 6, 0),
    ),
    "bounded": (
        dict(
            ARRAY_FIELD, loss_kind="bounded",
            loss_params=(("p", 0.1), ("budget", 7000.0)),
        ),
        "6274a2ec1d4d406ae393b5ce414b7c703180292004db94f0a92c9a1519c3d9a3",
        ORACLE_TRACE,
        (18278, 378465, 7000, 0, 0, 0, 149, 298, 0, 0),
    ),
    "distance": (
        dict(ARRAY_FIELD, loss_kind="distance"),
        "0917450d7c3823eb3f54855f2dc6d3b21254372cf211d845816d361d21e9403a",
        ORACLE_TRACE,
        (23683, 319669, 71550, 3127, 2242, 1594, 159, 318, 31, 0),
    ),
    "gilbert_energy": (
        dict(ARRAY_FIELD, loss_kind="gilbert", track_energy=True),
        "597f0c11d19a0d6233b1ac0448d85af18487cdf4ca5fe2cd76d4b58405d43b0f",
        ORACLE_TRACE,
        (21436, 355695, 32931, 1683, 1469, 716, 151, 302, 7, 0),
    ),
    "protocol": (
        dict(ARRAY_FIELD, formation="protocol"),
        "401e285469a610b2b285ea8400b0aba610042c2c763b39985b417e7bc12f8f8b",
        "fee8a3a78b6ebb6d727c15205629663b9fbad0e1832733e9a0cb073bd4d7ec68",
        (32188, 775597, 86290, 1048, 955, 873, 151, 302, 5, 0),
    ),
}
GOLDEN_GILBERT_ENERGY = {
    "tx_total": 21436.0,
    "rx_total": 355695.0,
    "min_level": 798.9749999999719,
    "mean_level": 962.3873292349696,
}


class TestGoldenArrayEngine:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ARRAY_RUNS))
    def test_summary_trace_and_counters_unchanged(self, name):
        kwargs, summary_sha256, trace, messages = GOLDEN_ARRAY_RUNS[name]
        result = run_scenario(ScenarioConfig(**kwargs))
        summary = json.dumps(result.summary(), sort_keys=True)
        assert (
            hashlib.sha256(summary.encode()).hexdigest(),
            trace_fingerprint(result.tracer),
            astuple(result.messages),
        ) == (summary_sha256, trace, messages)
        if result.energy is not None:
            assert result.energy.totals() == GOLDEN_GILBERT_ENERGY


# ----------------------------------------------------------------------
# Golden bytes of the disk spool
# ----------------------------------------------------------------------
# Captured at commit 833ce24, when every line was
# ``json.dumps(record_to_dict(record), sort_keys=True)`` written one at a
# time: the spools below must keep those bytes whatever the writer,
# the serializer or the rt merge do internally.  ``profile.phase`` lines
# carry wall-clock seconds and are left out of the hash.
GOLDEN_SPOOLS = {
    "event": (
        PIPELINE,
        "028775cd560d37fcab473fa9d6fab3835d2e5949f699cdc7704e6a2c27f0707d",
        44011,
    ),
    "array": (
        dict(PIPELINE, engine="array"),
        "ad38c0a52fa0ca5ed99addaf77dcc8f084042f0ba7445e9763e2db9ae69ffde9",
        12,
    ),
    # Captured at commit 242b077 (the header's topology detail still
    # built one numpy scalar at a time).
    "array_protocol": (
        dict(PIPELINE, engine="array", formation="protocol"),
        "ba28abd8c35d55f2c8b6eade86c3d6ce00f13b918bf890c05d80124beea39de8",
        12,
    ),
}
GOLDEN_RT_MERGE = (
    "fc3140389d2cec60b0112eaaa99b79491cf164003d0617bd290d86e890b61bc4",
    451,
)


def spool_fingerprint(path):
    """``(sha256, lines)`` of a plain spool without its profile lines."""
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as handle:
        for line in handle:
            if b'"kind": "profile.phase"' in line:
                continue
            digest.update(line)
            lines += 1
    return digest.hexdigest(), lines


def write_rt_node_spools(spool_dir):
    """Per-node spools shaped like a runtime run's: wall-clock floats
    with full reprs, one writer per node at the runtime's flush_every."""
    rng = random.Random(17)
    with SpoolingTracer(spool_dir / "run.jsonl", flush_every=64) as run:
        run.record(
            0.0, "meta.scenario", phi=0.6000000000000001, thop=0.05,
            nodes=3, seed=17, executions=2, fds_start=0.1 + 0.2,
            timebase="wall_ms", time_scale=0.1,
        )
    for node in range(3):
        clock = 0.0
        with SpoolingTracer(
            spool_dir / f"node-{node:05d}.jsonl", flush_every=64
        ) as spool:
            for step in range(150):
                clock += rng.random() * 1e-3
                if step % 5 == 0:
                    spool.record(
                        clock, "fds.detection", node=node,
                        target=(node + 1) % 3, detector=node,
                        execution=step // 50,
                        evidence=[[1, 2.5], [None, True]],
                        note="n\u00f8de \u2713", tiny=1e-07, zero=-0.0,
                    )
                else:
                    spool.record(
                        clock, "radio.rx", node=node, sender=(node + 2) % 3,
                        latency=rng.random() * 1e-4, recipient=None,
                    )


class TestGoldenSpoolBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SPOOLS))
    def test_scenario_spool_unchanged(self, name, tmp_path):
        kwargs, sha256, lines = GOLDEN_SPOOLS[name]
        path = tmp_path / "trace.jsonl"
        with SpoolingTracer(path) as tracer:
            run_scenario(
                ScenarioConfig(**kwargs), tracer=tracer,
                profiler=PhaseProfiler(),
            )
        assert spool_fingerprint(path) == (sha256, lines)

    def test_rt_merge_unchanged(self, tmp_path):
        write_rt_node_spools(tmp_path)
        merged = merge_spools(tmp_path).read_bytes()
        assert (
            hashlib.sha256(merged).hexdigest(), merged.count(b"\n"),
        ) == GOLDEN_RT_MERGE
