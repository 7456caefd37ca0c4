"""End-to-end integration: distributed formation + FDS + failures + loss.

The whole pipeline as a user would run it, with the distributed formation
protocol (not the oracle) building the clusters over the same lossy medium
the FDS then runs on.
"""

import pytest

from repro.cluster.formation import FormationConfig, run_formation
from repro.failure.injection import FailureInjector
from repro.fds.config import FdsConfig
from repro.fds.service import install_fds
from repro.metrics.collectors import collect_message_counts
from repro.metrics.properties import evaluate_properties
from repro.sim.network import NetworkConfig, build_network
from repro.topology.generators import multi_cluster_field
from repro.util.rng import RngFactory


@pytest.fixture(scope="module")
def pipeline_result():
    rngs = RngFactory(31)
    placement = multi_cluster_field(
        cluster_count=4, members_per_cluster=30, radius=100.0,
        rng=rngs.stream("placement"),
    )
    network = build_network(
        placement, NetworkConfig(loss_probability=0.15, seed=31)
    )
    layout = run_formation(
        network, FormationConfig(thop=0.5, iterations=4)
    ).cluster_layout()
    fds_config = FdsConfig(phi=10.0, thop=0.5)
    fds_start = network.sim.now + 1.0
    deployment = install_fds(network, layout, fds_config, start_time=fds_start)
    injector = FailureInjector(network, fds_config, fds_start=fds_start)
    victims = []
    # One ordinary member per cluster, plus one clusterhead.
    for i, head in enumerate(layout.heads[:3]):
        candidates = sorted(layout.clusters[head].ordinary_members)
        victim = candidates[len(candidates) // 2]
        injector.crash_before_execution(victim, execution=i + 1)
        victims.append(victim)
    injector.crash_before_execution(layout.heads[3], execution=2)
    victims.append(layout.heads[3])
    deployment.run_executions(7)
    return network, layout, deployment, victims


class TestPipeline:
    def test_formation_covered_the_field(self, pipeline_result):
        network, layout, _deployment, _victims = pipeline_result
        assert len(layout.clustered_nodes()) >= 0.95 * len(network.nodes)
        assert len(layout.clusters) >= 3

    def test_all_failures_known_everywhere(self, pipeline_result):
        _network, _layout, deployment, victims = pipeline_result
        report = evaluate_properties(deployment)
        for victim in victims:
            assert report.completeness[victim] >= 0.95, (
                f"victim {victim}: {report.completeness[victim]}"
            )

    def test_no_lasting_false_suspicions(self, pipeline_result):
        _network, _layout, deployment, _victims = pipeline_result
        report = evaluate_properties(deployment)
        assert report.accuracy_violations == ()

    def test_ch_failure_survived_by_takeover(self, pipeline_result):
        network, layout, deployment, victims = pipeline_result
        dead_head = victims[-1]
        survivors = [
            nid
            for nid in layout.clusters[dead_head].members
            if network.nodes[nid].is_operational
        ]
        # Most survivors follow a deputy by the end.
        followed = sum(
            1
            for nid in survivors
            if deployment.protocols[nid].head != dead_head
        )
        assert followed >= 0.9 * len(survivors)

    def test_message_economy(self, pipeline_result):
        network, _layout, deployment, victims = pipeline_result
        counts = collect_message_counts(deployment)
        # Per-execution cost is O(N) heartbeats + O(N) digests + O(1)
        # updates per cluster; reports stay bounded per failure.
        per_execution = counts.transmissions / 7
        assert per_execution < 6.0 * len(network.nodes)
        assert counts.reports_sent <= 30 * len(victims)
