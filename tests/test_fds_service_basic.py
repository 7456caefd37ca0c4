"""FDS integration tests under perfect links: the deterministic invariants.

With zero loss the paper's probabilistic guarantees become exact:
accuracy (nobody suspected) and completeness (every failure known
everywhere) must hold deterministically, and detection must occur in the
first execution after the crash.
"""

import pytest

from repro.failure.injection import FailureInjector
from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.metrics.properties import evaluate_properties
from repro.sim.trace import NullTracer
from repro.topology.generators import multi_cluster_field
from repro.topology.placement import cluster_disk_placement

from tests.fds_helpers import deploy


class TestNoFailures:
    def test_quiet_network_stays_quiet(self, rng):
        placement = cluster_disk_placement(20, 100.0, rng)
        deployment, _layout, tracer, _network = deploy(placement)
        deployment.run_executions(3)
        assert tracer.count(ev.DETECTION) == 0
        assert tracer.count(ev.PEER_REQUEST) == 0
        report = evaluate_properties(deployment)
        assert report.is_accurate and report.is_complete

    def test_every_member_gets_every_update(self, rng):
        placement = cluster_disk_placement(20, 100.0, rng)
        deployment, layout, _tracer, _network = deploy(placement)
        deployment.run_executions(4)
        for nid, protocol in deployment.protocols.items():
            assert protocol.updates_received == frozenset({0, 1, 2, 3})

    def test_no_intercluster_traffic_without_news(self, rng):
        # "No news is good news": quiet clusters send no failure reports.
        placement = multi_cluster_field(4, 15, 100.0, rng)
        deployment, _layout, _tracer, _network = deploy(placement)
        deployment.run_executions(3)
        for protocol in deployment.protocols.values():
            if protocol.inter is not None:
                assert protocol.inter.reports_sent == 0


class TestSingleCrash:
    def test_detected_in_next_execution(self, rng):
        placement = cluster_disk_placement(20, 100.0, rng)
        deployment, layout, tracer, network = deploy(placement)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[0].ordinary_members)[3]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(3)
        detections = tracer.filter(ev.DETECTION)
        assert len(detections) == 1  # detected once, never re-detected
        assert detections[0].detail["target"] == int(victim)
        assert detections[0].detail["execution"] == 1

    def test_completeness_and_accuracy_exact(self, rng):
        placement = multi_cluster_field(4, 20, 100.0, rng)
        deployment, layout, _tracer, network = deploy(placement)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[layout.heads[2]].ordinary_members)[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(3)
        report = evaluate_properties(deployment)
        assert report.completeness[victim] == 1.0
        assert report.is_accurate

    def test_crashed_member_removed_from_membership(self, rng):
        placement = cluster_disk_placement(15, 100.0, rng)
        deployment, layout, _tracer, network = deploy(placement)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[0].ordinary_members)[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(3)
        head_protocol = deployment.protocols[layout.heads[0]]
        assert victim not in head_protocol.members
        assert victim in head_protocol.history

    def test_detection_latency_within_execution(self, rng):
        placement = cluster_disk_placement(15, 100.0, rng)
        deployment, layout, tracer, network = deploy(placement)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[0].ordinary_members)[0]
        event = injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(2)
        detection = tracer.filter(ev.DETECTION)[0]
        # Crash in the gap before epoch 1 (t=5.0); R-3 fires at epoch+1.0.
        assert detection.time == pytest.approx(
            deployment.config.phi + 2 * deployment.config.thop, abs=0.01
        )
        assert detection.time > event.time


class TestMultipleCrashes:
    def test_concurrent_crashes_all_detected(self, rng):
        placement = multi_cluster_field(4, 20, 100.0, rng)
        deployment, layout, tracer, network = deploy(placement)
        injector = FailureInjector(network, deployment.config)
        victims = []
        for head in layout.heads[:3]:
            victim = sorted(layout.clusters[head].ordinary_members)[1]
            injector.crash_before_execution(victim, execution=1)
            victims.append(victim)
        deployment.run_executions(4)
        report = evaluate_properties(deployment)
        for victim in victims:
            assert report.completeness[victim] == 1.0
        assert report.is_accurate

    def test_corridor_end_to_end_propagation(self, rng):
        # A failure at one end of a 5-cluster corridor reaches the other.
        # Density is chosen high enough that every adjacent cluster pair
        # has gateway candidates (sparse fields can lack a boundary, which
        # the paper defers to an inter-cluster routing protocol).
        placement = multi_cluster_field(5, 35, 100.0, rng, columns=5)
        deployment, layout, _tracer, network = deploy(placement)
        owners = {owner for (owner, _peer) in layout.boundaries}
        assert owners == set(layout.heads[:-1]), "corridor chain incomplete"
        injector = FailureInjector(network, deployment.config)
        last = layout.heads[-1]
        victim = sorted(layout.clusters[last].ordinary_members)[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(4)
        first_members = layout.clusters[layout.heads[0]].members
        for nid in first_members:
            assert victim in deployment.protocols[nid].history


class _DisabledRaisingTracer(NullTracer):
    """Disabled, and any record handed to it is a bug (``record``
    reaches ``emit`` too)."""

    def emit(self, *row):
        raise AssertionError(f"emit() on a disabled tracer: {row}")


def test_disabled_tracer_is_never_called():
    # Lossy and with crashes, so detections, relays, peer requests and
    # gateway duties all fire: every emitter checks ``enabled`` first.
    from repro.experiments.runner import ScenarioConfig, run_scenario

    config = ScenarioConfig(
        cluster_count=3, members_per_cluster=12, crash_count=2,
        executions=4, loss_probability=0.2, seed=5,
    )
    untraced = run_scenario(config, tracer=_DisabledRaisingTracer())
    traced = run_scenario(config)
    assert untraced.properties == traced.properties
    assert untraced.messages == traced.messages
