"""Feature F5 tests: unmarked heartbeats as membership subscriptions."""

import pytest

from repro.cluster.state import LocalClusterView
from repro.fds.service import FdsProtocol
from repro.sim.node import SimNode
from repro.topology.placement import cluster_disk_placement
from repro.types import NodeId, NodeRole
from repro.util.geometry import Vec2

from tests.fds_helpers import deploy


def add_unmarked_node(deployment, network, position, executions):
    """Insert a fresh unmarked node and start its FDS protocol."""
    nid = NodeId(max(network.nodes) + 1)
    node = SimNode(nid, position, network.sim, network.medium)
    network.nodes[nid] = node
    view = LocalClusterView(
        node_id=nid,
        role=NodeRole.UNMARKED,
        head=nid,
        members=frozenset({nid}),
        deputies=(),
    )
    protocol = FdsProtocol(deployment.config, view)
    node.add_protocol(protocol)
    deployment.protocols[nid] = protocol
    next_epoch = (
        deployment.start_time
        + deployment.executions_scheduled * deployment.config.phi
    )
    protocol.start(
        next_epoch, executions, first_index=deployment.executions_scheduled
    )
    return nid, protocol


class TestAdmission:
    def test_unmarked_node_admitted(self, rng):
        placement = cluster_disk_placement(15, 100.0, rng)
        deployment, layout, _tracer, network = deploy(placement)
        deployment.run_executions(1)
        nid, protocol = add_unmarked_node(
            deployment, network, Vec2(30.0, 10.0), executions=2
        )
        deployment.run_executions(2)
        assert protocol.marked
        assert protocol.head == 0
        assert nid in deployment.protocols[0].members

    def test_existing_members_learn_new_membership(self, rng):
        placement = cluster_disk_placement(15, 100.0, rng)
        deployment, layout, _tracer, network = deploy(placement)
        deployment.run_executions(1)
        nid, _protocol = add_unmarked_node(
            deployment, network, Vec2(30.0, 10.0), executions=2
        )
        deployment.run_executions(2)
        for member in layout.clusters[0].ordinary_members:
            assert nid in deployment.protocols[member].members

    def test_admitted_node_is_monitored(self, rng):
        # After admission, the node's crash is detected like anyone's.
        placement = cluster_disk_placement(15, 100.0, rng)
        deployment, layout, _tracer, network = deploy(placement)
        deployment.run_executions(1)
        nid, _protocol = add_unmarked_node(
            deployment, network, Vec2(30.0, 10.0), executions=4
        )
        deployment.run_executions(2)
        network.crash(nid)
        deployment.run_executions(2)
        assert nid in deployment.protocols[0].history

    def test_unmarked_node_never_falsely_detected(self, rng):
        # The F5 race: the admission update is lost, the node heartbeats
        # unmarked while already a member -- it must not be detected.
        placement = cluster_disk_placement(15, 100.0, rng)

        from tests.fds_helpers import TargetedLoss

        new_id = 16  # the id add_unmarked_node will assign

        def predicate(sender, receiver, time):
            # The fresh node receives nothing for two executions after
            # joining, so it stays unmarked while the CH admits it.
            return receiver == new_id and time <= 16.0

        deployment, layout, tracer, network = deploy(
            placement, loss_model=TargetedLoss(predicate)
        )
        deployment.run_executions(1)
        nid, protocol = add_unmarked_node(
            deployment, network, Vec2(30.0, 10.0), executions=4
        )
        assert nid == new_id
        deployment.run_executions(4)
        from repro.fds import events as ev

        detections = [
            r for r in tracer.iter_kind(ev.DETECTION)
            if r.detail["target"] == int(nid)
        ]
        assert detections == []
        assert protocol.marked  # admitted once the blackout lifted
