"""Inter-cluster forwarding tests: implicit ack, BGW standby, dedup."""

import pytest

from repro.failure.injection import FailureInjector
from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.topology.generators import multi_cluster_field

from tests.fds_helpers import TargetedLoss, deploy


def two_clusters(rng, **kwargs):
    placement = multi_cluster_field(2, 30, 100.0, rng, columns=2)
    return placement, deploy(placement, **kwargs)


class TestBasicForwarding:
    def test_single_forward_suffices_at_p0(self, rng):
        placement, (deployment, layout, tracer, network) = two_clusters(rng)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[0].ordinary_members - set(
            f for b in layout.boundaries.values() for f in b.all_forwarders
        ))[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(3)
        # Exactly one report crosses (GW forwards once; implicit ack via
        # the peer CH's relay suppresses every retry and BGW).
        total_reports = sum(
            p.inter.reports_sent
            for p in deployment.protocols.values()
            if p.inter is not None
        )
        assert total_reports == 1
        assert victim in deployment.protocols[layout.heads[1]].history

    def test_peer_relay_reaches_peer_members(self, rng):
        placement, (deployment, layout, _tracer, network) = two_clusters(rng)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[0].ordinary_members)[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(3)
        for nid in layout.clusters[layout.heads[1]].members:
            assert victim in deployment.protocols[nid].history

    def test_inbound_direction(self, rng):
        # The boundary is owned by cluster 0; a failure in cluster 1 must
        # still cross (the GW overhears CH 1's update -- inbound duty).
        placement, (deployment, layout, _tracer, network) = two_clusters(rng)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[layout.heads[1]].ordinary_members)[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(3)
        for nid in layout.clusters[layout.heads[0]].members:
            assert victim in deployment.protocols[nid].history


class TestImplicitAckRetransmission:
    def test_gw_retransmits_when_first_forward_lost(self, rng):
        placement, _ignored = two_clusters(rng)
        # Find the primary gateway and the peer head deterministically.
        probe_dep, layout, _t, _n = deploy(placement)
        gw = int(layout.boundaries[(0, 1)].gateway)
        peer = int(layout.heads[1])

        # Crash lands before execution 1 (epoch t=15); the CH detects at
        # R-3 (t=16.0) and the GW forwards right after.  Drop the GW's
        # attempts for a window long enough to force a backup/retry.
        lost_window = (15.9, 18.5)

        def predicate(sender, receiver, time):
            # The GW's first forwarding attempt toward the peer CH is
            # lost; later attempts succeed.
            return (
                sender == gw
                and receiver == peer
                and lost_window[0] <= time <= lost_window[1]
            )

        deployment, layout, tracer, network = deploy(
            placement, loss_model=TargetedLoss(predicate),
            fds_config=FdsConfig(phi=15.0, thop=0.5),
        )
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[0].ordinary_members - {gw})[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(2)
        # The failure still crossed -- via BGW standby or GW retry.
        assert victim in deployment.protocols[peer].history
        stats = [
            (p.inter.retransmissions, p.inter.bgw_activations)
            for p in deployment.protocols.values()
            if p.inter is not None
        ]
        assert any(r > 0 or b > 0 for r, b in stats)

    def test_no_retries_without_implicit_ack(self, rng):
        placement, _ignored = two_clusters(rng)
        probe_dep, layout, _t, _n = deploy(placement)
        gw = int(layout.boundaries[(0, 1)].gateway)
        peer = int(layout.heads[1])

        def predicate(sender, receiver, time):
            return sender == gw and receiver == peer

        cfg = FdsConfig(phi=15.0, thop=0.5, implicit_ack=False)
        deployment, layout, _tracer, network = deploy(
            placement, loss_model=TargetedLoss(predicate), fds_config=cfg
        )
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[0].ordinary_members - {gw})[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(2)
        # Forward-and-hope: the single GW shot was lost and nobody retried,
        # so the peer CH never learns within the run.
        assert victim not in deployment.protocols[peer].history
        for p in deployment.protocols.values():
            if p.inter is not None:
                assert p.inter.retransmissions == 0
                assert p.inter.bgw_activations == 0


class TestBgwStandby:
    def test_bgw_steps_in_when_gw_crashed(self, rng):
        placement, _ignored = two_clusters(rng)
        probe_dep, layout, _t, _n = deploy(placement)
        boundary = layout.boundaries[(0, 1)]
        assert boundary.backups, "need a BGW for this test"
        gw = boundary.gateway
        peer = int(layout.heads[1])

        deployment, layout, tracer, network = deploy(
            placement, fds_config=FdsConfig(phi=15.0, thop=0.5)
        )
        injector = FailureInjector(network, deployment.config)
        injector.crash_before_execution(gw, execution=1)
        victim = sorted(
            layout.clusters[0].ordinary_members
            - set(boundary.all_forwarders)
        )[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(3)
        # Both the gateway's own crash and the member crash cross over.
        peer_history = deployment.protocols[peer].history
        assert victim in peer_history
        assert gw in peer_history
        bgw_protocol = deployment.protocols[boundary.backups[0]]
        assert bgw_protocol.inter.bgw_activations > 0

    def test_bgw_released_by_implicit_ack(self, rng):
        # With a healthy GW the BGWs never transmit.
        placement, (deployment, layout, tracer, network) = two_clusters(rng)
        boundary = layout.boundaries[(0, 1)]
        injector = FailureInjector(network, deployment.config)
        victim = sorted(
            layout.clusters[0].ordinary_members
            - set(boundary.all_forwarders)
        )[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(3)
        for backup in boundary.backups:
            assert deployment.protocols[backup].inter.bgw_activations == 0


class TestDedup:
    def test_no_infinite_relay_loops(self, rng):
        placement = multi_cluster_field(3, 30, 100.0, rng, columns=3)
        deployment, layout, tracer, network = deploy(placement)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(
            layout.clusters[layout.heads[1]].ordinary_members
        )[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(4)
        # Bounded traffic: each boundary carries the failure a bounded
        # number of times, not once per execution.
        total_reports = sum(
            p.inter.reports_sent
            for p in deployment.protocols.values()
            if p.inter is not None
        )
        assert total_reports <= 8

    def test_history_not_reforwarded_each_epoch(self, rng):
        placement, (deployment, layout, _tracer, network) = two_clusters(rng)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[0].ordinary_members)[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(5)
        reports_after = sum(
            p.inter.reports_sent
            for p in deployment.protocols.values()
            if p.inter is not None
        )
        # "No news is good news": executions 2..4 add no reports.
        assert reports_after <= 3
