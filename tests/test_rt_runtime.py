"""Real-network runtime tests: a scenario over actual localhost UDP
sockets, the one host class over both substrates, spooling under
concurrent emitters, timebase-aware analysis, and the sim/real
differential (``differential:realnet``).

Runs here keep the field small (a dozen nodes, 3 executions) so each
wall-clock run stays around a second; CI's smoke job covers the
>= 20-node scale.
"""

import json
import threading

import pytest

from repro.audit.differential import ScenarioSpec
from repro.audit.realnet import (
    check_realnet,
    realnet_repro_snippet,
    realnet_spec,
)
from repro.errors import NodeStateError
from repro.fds.substrate import Substrate, TimerHandle, TimerScheduler
from repro.obs.analyze import TraceMeta, summarize
from repro.obs.spool import SpoolingTracer, read_spool
from repro.rt.collector import merge_spools, spool_files
from repro.rt.runtime import WALL_TIMEBASE, RtScenario, run_rt_scenario
from repro.sim.trace import RecordingTracer, TraceRecord

SMALL = RtScenario(
    seed=7,
    cluster_count=2,
    members_per_cluster=5,
    crash_count=1,
    executions=3,
)


@pytest.fixture(scope="module")
def small_run():
    """One shared runtime run (real sockets; ~1 s of wall clock)."""
    return run_rt_scenario(SMALL)


@pytest.fixture(scope="module")
def spooled_run(tmp_path_factory):
    spool_dir = tmp_path_factory.mktemp("rt-spool")
    return run_rt_scenario(SMALL, spool_dir=spool_dir), spool_dir


# ----------------------------------------------------------------------
# One host class, two substrates beneath it
# ----------------------------------------------------------------------
def test_both_substrates_satisfy_the_protocols(small_run):
    from repro.sim.engine import Simulator
    from repro.sim.medium import RadioMedium
    from repro.sim.node import SimNode
    from repro.sim.timers import Timer, TimerService
    from repro.util.geometry import Vec2

    sim = Simulator()
    medium = RadioMedium(sim, transmission_range=100.0, max_delay=0.01)
    hosts = [
        next(iter(small_run.nodes.values())),
        SimNode(0, Vec2(0.0, 0.0), sim, medium),
    ]
    for host in hosts:
        assert type(host) is SimNode
        assert isinstance(host, Substrate)
        assert type(host.timers) is TimerService
        assert isinstance(host.timers, TimerScheduler)
        timer = host.timers.create(lambda: None)
        assert type(timer) is Timer and isinstance(timer, TimerHandle)
        # The seam is below the host: exactly what SimNode, Timer and
        # crash injection call on a scheduler, and SimNode on a medium.
        for member in ("now", "schedule_in", "schedule_at", "cancel", "profiler"):
            assert hasattr(host.sim, member)
        for member in ("register", "transmit", "set_receiving", "tracer"):
            assert hasattr(host.medium, member)


# ----------------------------------------------------------------------
# The runtime itself
# ----------------------------------------------------------------------
def test_rt_run_detects_the_injected_crash(small_run):
    result = small_run
    # Each cluster is members_per_cluster members plus its head.
    assert len(result.nodes) == 2 * (SMALL.members_per_cluster + 1)
    assert len(result.crash_times) == 1
    [(victim, crashed_at)] = result.crash_times.items()
    assert not result.nodes[victim].is_operational
    latency = result.detection_latencies[victim]
    assert latency is not None
    # Loss-independent anchor: 0.4 phi + 2 thop, in wall seconds, with
    # a generous band for scheduler jitter.
    phi, thop = result.config.phi, result.config.thop
    anchor = 0.4 * phi + 2 * thop
    assert latency == pytest.approx(anchor, abs=0.3 * phi)
    assert result.codec_errors == 0
    assert result.properties.mean_completeness == 1.0


def test_rt_messages_really_crossed_sockets(small_run):
    sent = sum(n.sent_count for n in small_run.nodes.values())
    received = sum(n.received_count for n in small_run.nodes.values())
    assert sent > 0
    assert received > sent  # broadcast fan-out multiplies deliveries
    assert small_run.tracer.count("radio.tx") == sent


def test_rt_crashed_node_is_silent_after_the_kill(small_run, spooled_run):
    [(victim, crashed_at)] = small_run.crash_times.items()
    for record in small_run.tracer.iter_kind("radio.tx"):
        if record.node == int(victim):
            assert record.time <= crashed_at + 1e-9
    # The parts of a fail-stop only the runtime has: the victim's
    # "process" is gone, and nothing of it is left counting down.
    for result in (small_run, spooled_run[0]):
        node = result.nodes[victim]
        assert node.medium.task.done()
        assert node.medium.transport.is_closing()
        assert node.timers.armed_count == 0
    # Crash isolation: the ground-truth record is in the victim's own
    # spool (written by SimNode.crash through the node's link tracer).
    spooled, spool_dir = spooled_run
    own = read_spool(spool_dir / f"node-{int(victim):05d}.jsonl")
    crash = [r for r in own if r.kind == "sim.crash"]
    assert [r.node for r in crash] == [int(victim)]
    assert crash[0].time == pytest.approx(
        spooled.crash_times[victim], abs=0.05
    )
    assert all(r.time <= crash[0].time for r in own if r.kind == "radio.tx")


def test_rt_crash_twice_raises(small_run):
    [(victim, _)] = small_run.crash_times.items()
    with pytest.raises(NodeStateError):
        small_run.nodes[victim].crash()
    # The refused second crash left no second ground-truth record.
    assert small_run.tracer.count("sim.crash") == 1


def test_rt_meta_record_carries_wall_timebase(small_run):
    [meta_record] = list(small_run.tracer.iter_kind("meta.scenario"))
    assert meta_record.detail["timebase"] == WALL_TIMEBASE
    assert meta_record.detail["time_scale"] == SMALL.time_scale
    assert meta_record.detail["phi"] == pytest.approx(
        SMALL.phi * SMALL.time_scale
    )


def test_rt_scenario_rejects_bad_knobs():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        RtScenario(time_scale=0.0)
    with pytest.raises(ConfigurationError):
        RtScenario(warmup=-1.0)


# ----------------------------------------------------------------------
# Spool mode: per-node JSONL, merged for the analyzers
# ----------------------------------------------------------------------
def test_spooled_run_merges_into_one_analyzable_trace(spooled_run):
    result, spool_dir = spooled_run
    files = spool_files(spool_dir)
    # One spool per node plus the run spool, all non-empty.
    assert len(files) == len(result.nodes) + 1
    assert result.merged_spool is not None
    merged = read_spool(result.merged_spool)
    assert merged
    times = [r.time for r in merged]
    assert times == sorted(times)

    summary = summarize(merged)
    assert summary.meta.found
    assert summary.meta.timebase == WALL_TIMEBASE
    assert summary.meta.wall_clock
    assert summary.kinds["sim.crash"] == 1
    assert summary.kinds["fds.detection"] >= 1
    [(victim, _)] = result.crash_times.items()
    latencies = summary.detection_latencies_phi()
    assert latencies[int(victim)] == pytest.approx(0.525, abs=0.3)
    # The disk path agrees with the in-memory result object (small slack:
    # the result anchors on the *scheduled* crash time, the trace on the
    # instant the kill callback actually ran).
    assert result.detection_latencies[victim] == pytest.approx(
        latencies[int(victim)] * result.config.phi, abs=0.05 * result.config.phi
    )


def test_merge_is_idempotent_and_excludes_itself(spooled_run):
    result, spool_dir = spooled_run
    first = result.merged_spool.read_text(encoding="utf-8")
    merge_spools(spool_dir)
    assert result.merged_spool.read_text(encoding="utf-8") == first


# ----------------------------------------------------------------------
# Satellite: concurrent spool emission
# ----------------------------------------------------------------------
def test_spooling_tracer_concurrent_emit(tmp_path):
    path = tmp_path / "contended.jsonl"
    tracer = SpoolingTracer(path, flush_every=7)
    threads = 8
    per_thread = 500
    barrier = threading.Barrier(threads)

    def hammer(worker: int) -> None:
        barrier.wait()
        for i in range(per_thread):
            tracer.emit(TraceRecord(
                time=float(i),
                kind="contention.test",
                node=worker,
                detail={"i": i},
            ))

    workers = [
        threading.Thread(target=hammer, args=(w,)) for w in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    tracer.close()

    assert tracer.spooled == threads * per_thread
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == threads * per_thread
    # Every line is intact JSON (no interleaved partial writes), and
    # every (node, i) pair survived exactly once.
    seen = set()
    for line in lines:
        payload = json.loads(line)
        seen.add((payload["node"], payload["i"]))
    assert len(seen) == threads * per_thread


def test_spooling_tracer_close_is_safe_under_emit(tmp_path):
    from repro.errors import ConfigurationError

    tracer = SpoolingTracer(tmp_path / "closing.jsonl")
    tracer.emit(TraceRecord(time=0.0, kind="x", node=None, detail={}))
    tracer.close()
    tracer.close()  # idempotent
    with pytest.raises(ConfigurationError):
        tracer.emit(TraceRecord(time=1.0, kind="x", node=None, detail={}))


# ----------------------------------------------------------------------
# Satellite: timebase-aware analysis
# ----------------------------------------------------------------------
def test_trace_meta_timebase_defaults_to_phi_for_old_spools():
    old_style = TraceRecord(
        time=0.0,
        kind="meta.scenario",
        node=None,
        detail={"phi": 8.0, "thop": 0.5, "nodes": 4},
    )
    meta = TraceMeta.from_record(old_style)
    assert meta.timebase == "phi"
    assert not meta.wall_clock


def test_trace_latency_cli_labels_wall_units(spooled_run, capsys):
    from repro.obs.cli import cmd_trace
    import argparse

    result, _spool_dir = spooled_run
    args = argparse.Namespace(
        trace_action="latency", spool=str(result.merged_spool)
    )
    assert cmd_trace(args) == 0
    out = capsys.readouterr().out
    assert "latency (ms)" in out
    assert "wall seconds" in out


def test_trace_latency_cli_keeps_phi_units_for_sim(tmp_path, capsys):
    from repro.experiments.runner import ScenarioConfig, run_scenario
    from repro.obs.cli import cmd_trace
    from repro.sim.trace import record_to_dict
    import argparse

    sim = run_scenario(ScenarioConfig(
        cluster_count=2, members_per_cluster=5, crash_count=1,
        executions=3, seed=7, loss_probability=0.0,
    ))
    spool = tmp_path / "sim.jsonl"
    with spool.open("w", encoding="utf-8") as handle:
        for record in sim.tracer.records:
            handle.write(json.dumps(record_to_dict(record)) + "\n")
    args = argparse.Namespace(trace_action="latency", spool=str(spool))
    assert cmd_trace(args) == 0
    out = capsys.readouterr().out
    assert "latency (phi)" in out
    assert "latency (ms)" not in out


# ----------------------------------------------------------------------
# differential:realnet
# ----------------------------------------------------------------------
def test_realnet_spec_distribution_is_deterministic():
    assert realnet_spec(3) == realnet_spec(3)
    assert realnet_spec(3) != realnet_spec(4)


def test_one_scenario_contract_across_event_array_rt():
    """One seed, three substrates: the same nodes crash in the same
    executions (all through ``scenario_faultload``), the three run
    headers read back to the same phi-unit description, and the summary
    surface is shared."""
    from repro.experiments.runner import run_scenario
    from repro.obs.analyze import META_KIND, TOPOLOGY_KIND

    spec = ScenarioSpec(
        seed=5, cluster_count=2, members_per_cluster=6, crash_count=3,
        executions=5, phi=8.0, thop=0.5,
    )
    event = run_scenario(spec.to_config())
    array = run_scenario(spec.to_config(engine="array"))
    rt = run_rt_scenario(RtScenario.from_spec(spec))

    def crash_executions(result, fds, start):
        return {
            int(nid): fds.crash_execution(start, t)
            for nid, t in result.crash_times.items()
        }

    want = crash_executions(event, event.config.fds, 0.0)
    assert len(want) == 3 and set(want.values()) <= {1, 2, 3}
    assert crash_executions(array, array.config.fds, 0.0) == want
    assert crash_executions(rt, rt.config, rt.fds_start) == want

    metas = []
    for result in (event, array, rt):
        records = list(result.tracer.records)
        index = next(
            i for i, r in enumerate(records) if r.kind == META_KIND
        )
        assert records[index + 1].kind == TOPOLOGY_KIND
        meta = TraceMeta.from_record(records[index])
        # The writer and the reader agree field for field.
        assert meta.to_detail() == dict(records[index].detail)
        metas.append(meta)
    for meta in metas:
        assert (meta.nodes, meta.seed, meta.executions) == (14, 5, 5)
        assert meta.thop / meta.phi == pytest.approx(0.5 / 8.0)
    assert [m.timebase for m in metas] == ["phi", "phi", WALL_TIMEBASE]
    assert [m.time_scale for m in metas] == [None, None, 0.05]
    assert metas[2].phi == pytest.approx(8.0 * 0.05)

    shared = set(event.summary())
    assert set(array.summary()) == shared
    assert set(rt.summary()) - shared == {"deliveries", "codec_errors"}
    assert set(rt.summary()) >= shared


def test_realnet_differential_perfect_loss():
    spec = ScenarioSpec(
        seed=11, cluster_count=2, members_per_cluster=5, crash_count=1,
        executions=3, loss_kind="perfect", loss_p=0.0, loss_budget=0,
        spacing_factor=1.25, max_backups=2, phi=8.0, thop=0.5,
    )
    assert check_realnet(spec) == []


def test_realnet_differential_bounded_loss():
    spec = ScenarioSpec(
        seed=5, cluster_count=2, members_per_cluster=6, crash_count=2,
        executions=3, loss_kind="bounded", loss_p=0.15, loss_budget=2,
        spacing_factor=1.25, max_backups=2, phi=8.0, thop=0.5,
    )
    assert check_realnet(spec) == []


def test_realnet_repro_snippet_is_valid_python():
    spec = realnet_spec(0)
    from repro.audit.differential import Violation

    snippet = realnet_repro_snippet(
        spec, [Violation(kind="differential:realnet", description="demo")]
    )
    compile(snippet, "<repro>", "exec")
    assert f"seed={spec.seed}" in snippet
    assert "check_realnet" in snippet
