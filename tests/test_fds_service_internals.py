"""FDS service internals: stale filtering, energy charging, relay flags."""

import pytest

from repro.energy.model import EnergyModel
from repro.fds.config import FdsConfig
from repro.fds.messages import Heartbeat, HealthStatusUpdate
from repro.fds.service import install_fds
from repro.cluster.geometric import build_clusters
from repro.sim.network import NetworkConfig, build_network
from repro.topology.graph import UnitDiskGraph
from repro.topology.placement import cluster_disk_placement

from tests.fds_helpers import deploy


class TestStaleFiltering:
    def test_stale_heartbeat_is_not_evidence(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, _layout, _tracer, _network = deploy(placement)
        deployment.run_executions(2)
        head = deployment.protocols[0]
        before = set(head._heard)
        head._on_heartbeat(Heartbeat(sender=5, execution=99, marked=True))
        assert set(head._heard) == before

    def test_stale_update_not_stored(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, _layout, _tracer, _network = deploy(placement)
        deployment.run_executions(2)
        member = deployment.protocols[3]
        # A (forged-era) update for a future execution from our own head
        # is merged into history but must not satisfy peer-forwarding
        # bookkeeping for the current execution.
        current = member.execution
        member._on_update(
            HealthStatusUpdate(head=member.head, execution=current + 7)
        )
        assert current + 7 in member.updates_received  # stored by index
        assert member.execution == current  # counters untouched

    def test_report_hearsay_beaten_by_direct_liveness(self, rng):
        """A forwarded report re-asserting a node whose heartbeat the CH
        heard this execution is stale hearsay: adopting it would restart
        the refutation/relay cycle (the no-digests soak finding, seed
        1342382291).  A casualty the CH has no direct evidence about is
        still adopted -- crashed nodes are silent, so the filter can
        never mask a real failure."""
        from repro.fds.messages import FailureReport

        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, _layout, _tracer, _network = deploy(placement)
        deployment.run_executions(1)
        head = deployment.protocols[0]
        heard = next(iter(head._heard))
        unheard = 999  # a foreign casualty, never heard by this CH
        head._on_report(
            FailureReport(
                sender=5,
                origin=42,
                target_head=0,
                failures=frozenset({heard, unheard}),
            )
        )
        assert unheard in head.history
        assert heard not in head.history


class TestEnergyCharging:
    def test_tx_and_rx_charged(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        graph = UnitDiskGraph(placement, radius=100.0)
        layout = build_clusters(graph)
        network = build_network(
            placement, NetworkConfig(loss_probability=0.0, seed=1)
        )
        energy = EnergyModel()
        deployment = install_fds(network, layout, FdsConfig(phi=5.0, thop=0.5),
                                 energy=energy)
        deployment.run_executions(2)
        totals = energy.totals()
        # 11 nodes x 2 executions x (heartbeat + digest) + 2 updates.
        assert totals["tx_total"] == pytest.approx(11 * 2 * 2 + 2)
        assert totals["rx_total"] > totals["tx_total"]

    def test_energy_fraction_feeds_waiting_policy(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        graph = UnitDiskGraph(placement, radius=100.0)
        layout = build_clusters(graph)
        network = build_network(
            placement, NetworkConfig(loss_probability=0.0, seed=1)
        )
        energy = EnergyModel()
        deployment = install_fds(network, layout, FdsConfig(phi=5.0, thop=0.5),
                                 energy=energy)
        protocol = deployment.protocols[3]
        assert protocol._energy_fraction() == 1.0
        deployment.run_executions(3)
        assert protocol._energy_fraction() < 1.0


class TestRelayHandling:
    def test_relay_updates_do_not_count_as_r3_delivery(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, _layout, _tracer, _network = deploy(placement)
        deployment.run_executions(1)
        member = deployment.protocols[4]
        before = member.updates_received
        member._on_update(
            HealthStatusUpdate(
                head=member.head,
                execution=member.execution,
                new_failures=frozenset({9}),
                known_failures=frozenset({9}),
                relay=True,
            )
        )
        assert member.updates_received == before  # relays are not R-3
        assert 9 in member.history  # but the knowledge is merged

    def test_foreign_update_ignored_by_plain_member(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, _layout, _tracer, _network = deploy(placement)
        deployment.run_executions(1)
        member = deployment.protocols[4]
        member._on_update(
            HealthStatusUpdate(
                head=999,  # nobody we know
                execution=member.execution,
                new_failures=frozenset({7}),
                known_failures=frozenset({7}),
            )
        )
        assert 7 not in member.history
        assert 7 in member.members  # membership untouched


class TestRebroadcast:
    def test_rebroadcast_noop_for_non_head(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, _layout, _tracer, network = deploy(placement)
        deployment.run_executions(1)
        member = deployment.protocols[4]
        sent_before = network.nodes[4].sent_count
        member._rebroadcast_current_update()
        assert network.nodes[4].sent_count == sent_before

    def test_rebroadcast_resends_for_head(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, _layout, _tracer, network = deploy(placement)
        deployment.run_executions(1)
        head = deployment.protocols[0]
        sent_before = network.nodes[0].sent_count
        head._rebroadcast_current_update()
        assert network.nodes[0].sent_count == sent_before + 1
