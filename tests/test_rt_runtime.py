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
from dataclasses import replace

import pytest

from repro.audit.differential import engine_pair_violations, repro_snippet
from repro.audit.realnet import check_realnet, realnet_spec
from repro.errors import ConfigurationError, ExperimentError, NodeStateError
from repro.experiments.runner import (
    RunResult,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
    scenario_config,
)
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
    phi, thop = result.fds.phi, result.fds.thop
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
        latencies[int(victim)] * result.fds.phi, abs=0.05 * result.fds.phi
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


CONTRACT = RtScenario(
    seed=5, cluster_count=2, members_per_cluster=6, crash_count=3,
    executions=5,
)


@pytest.fixture(scope="module")
def contract_runs():
    """One seeded config on every engine: ``engine -> (config, result)``."""
    configs = [replace(CONTRACT, engine=e) for e in ("event", "array", "rt")]
    return {c.engine: (c, run_scenario(c)) for c in configs}


@pytest.mark.parametrize("engine", ["event", "array", "rt"])
def test_run_result_contract(engine, contract_runs):
    """One seed, three substrates, one result surface: the same nodes
    crash in the same executions (one skeleton, one ``scenario_faultload``
    call), the run header reads back to the same phi-unit description,
    and ``summary()`` has the same keys."""
    from repro.obs.analyze import META_KIND, TOPOLOGY_KIND

    (config, result), (_, reference) = contract_runs[engine], contract_runs["event"]
    wall = engine == "rt"
    assert isinstance(result, RunResult) and result.config is config
    assert isinstance(reference, ScenarioResult)
    assert result.fds == (config.wall_config() if wall else config.fds)
    assert result.energy is None and result.losses == result.messages.losses

    def crash_executions(run):
        return {
            int(nid): run.fds.crash_execution(run.fds_start, t)
            for nid, t in run.crash_times.items()
        }

    want = crash_executions(reference)
    assert len(want) == 3 and set(want.values()) <= {1, 2, 3}
    assert crash_executions(result) == want
    assert set(result.detection_latencies) == set(want)

    summary, shared = result.summary(), reference.summary()
    assert [summary[k] for k in ("nodes", "clusters", "crashes")] == [14, 2, 3]
    extra = {"deliveries", "codec_errors"} if wall else set()
    assert set(summary) == set(shared) | extra
    assert len(result.network) == 14

    records = list(result.tracer.records)
    index = next(i for i, r in enumerate(records) if r.kind == META_KIND)
    assert records[index + 1].kind == TOPOLOGY_KIND
    meta = TraceMeta.from_record(records[index])
    # The writer and the reader agree field for field.
    assert meta.to_detail() == dict(records[index].detail)
    assert (meta.nodes, meta.seed, meta.executions) == (14, 5, 5)
    assert meta.fds_start == result.fds_start
    assert (meta.phi, meta.thop) == (result.fds.phi, result.fds.thop)
    assert (meta.timebase, meta.time_scale, meta.phi) == (
        (WALL_TIMEBASE, 0.05, pytest.approx(8.0 * 0.05))
        if wall else ("phi", None, 8.0)
    )


def test_rt_scenario_rejects_bad_knobs():
    assert isinstance(RtScenario(seed=1, time_scale=0.1), ScenarioConfig)
    assert RtScenario(seed=1).engine == "rt"
    for error, match, build, knobs in (
        (ExperimentError, "engine", ScenarioConfig, dict(engine="bogus")),
        (ExperimentError, "rt", RtScenario, dict(formation="protocol")),
        (ConfigurationError, "time_scale", RtScenario, dict(time_scale=0.0)),
        (ConfigurationError, "warmup", RtScenario, dict(warmup=-1.0)),
        (ConfigurationError, "loss_q", scenario_config, dict(loss_q=0.1)),
    ):
        with pytest.raises(error, match=match):
            build(**knobs)


def test_engine_pair_reads_each_runs_own_epoch():
    """After protocol formation the FDS epoch is > 0; the pair check
    reads it off each result (the realnet check used to assume 0.0 for
    the simulated side)."""
    run = run_scenario(scenario_config(
        seed=5, cluster_count=2, members_per_cluster=6, crash_count=2,
        formation="protocol",
    ))
    assert run.fds_start > 0 and len(run.crash_times) == 2
    assert engine_pair_violations(run, run, "self") == []
    shifted = replace(run, fds_start=run.fds_start + run.fds.phi)
    assert any(
        "crash execution indices" in v.description
        for v in engine_pair_violations(run, shifted, "shifted")
    )


def test_realnet_differential_perfect_loss():
    spec = scenario_config(
        seed=11, cluster_count=2, members_per_cluster=5, crash_count=1,
        executions=3, loss_kind="perfect", loss_p=0.0, loss_budget=0,
        spacing_factor=1.25, max_backups=2, phi=8.0, thop=0.5,
    )
    assert check_realnet(spec) == []


def test_realnet_differential_bounded_loss():
    spec = scenario_config(
        seed=5, cluster_count=2, members_per_cluster=6, crash_count=2,
        executions=3, loss_kind="bounded", loss_p=0.15, loss_budget=2,
        spacing_factor=1.25, max_backups=2, phi=8.0, thop=0.5,
    )
    assert check_realnet(spec) == []


def test_realnet_repro_snippet_is_valid_python():
    spec = realnet_spec(0)
    from repro.audit.differential import Violation

    snippet = repro_snippet(
        spec,
        [Violation(kind="differential:realnet", description="demo")],
        check=check_realnet,
    )
    namespace = {}
    exec(compile(snippet, "<repro>", "exec"), namespace)
    assert f"seed={spec.seed}" in snippet
    assert "check_realnet(spec)" in snippet
    # The pasted literal is the spec, field for field.
    assert eval(snippet.split("spec = ")[1].split("\n")[0], namespace) == spec
