"""DCH takeover tests: real CH failures and false-detection reverts."""

import pytest

from repro.failure.injection import FailureInjector
from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.metrics.properties import evaluate_properties
from repro.topology.placement import cluster_disk_placement

from tests.fds_helpers import TargetedLoss, deploy


class TestRealTakeover:
    def test_primary_deputy_takes_over(self, rng):
        placement = cluster_disk_placement(20, 100.0, rng)
        deployment, layout, tracer, network = deploy(placement)
        dch = layout.clusters[0].primary_deputy
        injector = FailureInjector(network, deployment.config)
        injector.crash_before_execution(0, execution=1)
        deployment.run_executions(3)
        takeovers = tracer.filter(ev.TAKEOVER)
        assert len(takeovers) == 1
        assert takeovers[0].detail["old_head"] == 0
        assert takeovers[0].detail["new_head"] == int(dch)

    def test_members_adopt_new_head(self, rng):
        placement = cluster_disk_placement(20, 100.0, rng)
        deployment, layout, _tracer, network = deploy(placement)
        dch = layout.clusters[0].primary_deputy
        injector = FailureInjector(network, deployment.config)
        injector.crash_before_execution(0, execution=1)
        deployment.run_executions(3)
        for nid in network.operational_ids():
            assert deployment.protocols[nid].head == dch

    def test_new_head_serves_updates(self, rng):
        placement = cluster_disk_placement(20, 100.0, rng)
        deployment, layout, _tracer, network = deploy(placement)
        injector = FailureInjector(network, deployment.config)
        injector.crash_before_execution(0, execution=1)
        deployment.run_executions(4)
        # Executions after the takeover are served by the new head.
        for nid in network.operational_ids():
            received = deployment.protocols[nid].updates_received
            assert {2, 3} <= received

    def test_ch_failure_completeness(self, rng):
        placement = cluster_disk_placement(20, 100.0, rng)
        deployment, _layout, _tracer, network = deploy(placement)
        injector = FailureInjector(network, deployment.config)
        injector.crash_before_execution(0, execution=1)
        deployment.run_executions(3)
        report = evaluate_properties(deployment)
        assert report.completeness[0] == 1.0
        assert report.is_accurate

    def test_second_deputy_takes_over_if_first_also_dead(self, rng):
        # The CH re-ranks its deputies by digest coverage and announces the
        # ranking in its R-3 update; succession follows that ranking.
        placement = cluster_disk_placement(20, 100.0, rng)
        deployment, layout, tracer, network = deploy(placement)
        first = layout.clusters[0].primary_deputy
        injector = FailureInjector(network, deployment.config)
        injector.crash_before_execution(first, execution=1)
        injector.crash_before_execution(0, execution=2)
        deployment.run_executions(4)
        head = deployment.protocols[0]
        announced = head._updates[0].deputies
        assert announced[0] == first
        second = announced[1]
        # The ranking the CH last announced (execution 1) dropped the
        # silent first deputy, so the runner-up leads it.
        assert head.deputies[0] == second
        takeovers = tracer.filter(ev.TAKEOVER)
        assert len(takeovers) == 1
        assert takeovers[0].detail["new_head"] == int(second)
        report = evaluate_properties(deployment)
        assert report.completeness[0] == 1.0

    def test_dch_disabled_means_no_takeover(self, rng):
        placement = cluster_disk_placement(20, 100.0, rng)
        cfg = FdsConfig(phi=5.0, thop=0.5, dch_enabled=False)
        deployment, _layout, tracer, network = deploy(placement, fds_config=cfg)
        injector = FailureInjector(network, deployment.config)
        injector.crash_before_execution(0, execution=1)
        deployment.run_executions(3)
        assert tracer.count(ev.TAKEOVER) == 0
        # Nobody detects the CH failure: completeness is lost.
        report = evaluate_properties(deployment)
        assert report.completeness[0] == 0.0


class TestTakeoverCrossClusterPropagation:
    def test_foreign_gateways_learn_new_head_via_overheard_peer_forwards(
        self, rng
    ):
        """After a takeover, the neighbor cluster's gateways may be out of
        the new head's radio range (the boundary was built around the old
        center).  The overheard peer-forward channel must still deliver
        the takeover news inbound; the failure must reach every cluster.

        Regression for a live bug: seed/topology chosen so that every
        (0,1)-boundary forwarder is >100 m from the post-takeover head.
        """
        import numpy as np

        from repro.energy.model import EnergyModel
        from repro.fds.service import install_fds
        from repro.sim.network import NetworkConfig, build_network
        from repro.topology.generators import multi_cluster_field
        from repro.topology.graph import UnitDiskGraph
        from repro.cluster.geometric import build_clusters
        from repro.metrics.properties import evaluate_properties

        local_rng = np.random.default_rng(seed=23)
        positions = multi_cluster_field(3, 24, 100.0, local_rng, columns=3)
        layout = build_clusters(UnitDiskGraph(positions, radius=100.0))
        middle = layout.heads[1]
        network = build_network(
            positions, NetworkConfig(loss_probability=0.1, seed=23)
        )
        config = FdsConfig(phi=20.0, thop=0.5)
        energy = EnergyModel()
        deployment = install_fds(network, layout, config, energy=energy)
        injector = FailureInjector(network, config)
        injector.crash_before_execution(middle, execution=2)
        deployment.run_executions(7)
        report = evaluate_properties(deployment)
        assert report.completeness[middle] == 1.0
        assert report.is_accurate


class TestFalseTakeoverRevert:
    def _deploy_with_dch_blackout(self, rng, blackout):
        """All copies from the CH (node 0) to the DCH are lost during
        ``blackout`` = (t0, t1), and every digest/heartbeat that could
        witness the CH at the DCH is suppressed too -- forcing the DCH
        to falsely conclude the CH failed."""
        placement = cluster_disk_placement(15, 100.0, rng)
        # Determine the DCH first (geometric oracle is deterministic).
        probe_deployment, layout, _t, _n = deploy(placement)
        dch = int(layout.clusters[0].primary_deputy)
        t0, t1 = blackout

        def predicate(sender, receiver, time):
            # The DCH hears nothing at all during the blackout window, so
            # no digest can witness the CH either (conditions C1'-C3').
            return receiver == dch and t0 <= time <= t1

        loss = TargetedLoss(predicate)
        deployment, layout, tracer, network = deploy(
            placement, loss_model=loss
        )
        return deployment, layout, tracer, network, dch

    def test_false_takeover_then_revert(self, rng):
        # Execution 1 spans t=[5.0, 7.5]; black out the DCH for it.
        deployment, layout, tracer, network, dch = (
            self._deploy_with_dch_blackout(rng, blackout=(4.9, 7.6))
        )
        deployment.run_executions(4)
        takeovers = tracer.filter(ev.TAKEOVER)
        assert len(takeovers) == 1
        assert takeovers[0].detail["new_head"] == dch
        # The CH is alive; its next heartbeat must trigger the revert.
        reverts = tracer.filter(ev.TAKEOVER_REVERTED)
        assert len(reverts) == 1
        assert reverts[0].detail["old_head"] == 0
        # Authority restored and no residual suspicion of the CH.
        assert deployment.protocols[dch].head == 0
        report = evaluate_properties(deployment)
        assert report.is_accurate

    def test_members_follow_revert(self, rng):
        deployment, layout, tracer, network, dch = (
            self._deploy_with_dch_blackout(rng, blackout=(4.9, 7.6))
        )
        deployment.run_executions(4)
        for nid in network.operational_ids():
            assert deployment.protocols[nid].head == 0
