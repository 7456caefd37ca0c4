"""The receive table: each payload type goes straight to one handler.

A protocol declares ``{payload type: handler(payload)}`` once, at attach;
the node merges its protocols' tables and the medium's delivery callback
calls ``table[type(payload)]``.  These tests pin what the table replaced
the per-protocol ``isinstance`` chains with: one handler per wire type on
a node that carries both protocols, drops for a type no protocol takes,
and one energy debit per delivered copy.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.cluster import formation
from repro.cluster.state import LocalClusterView
from repro.energy.model import EnergyModel
from repro.experiments import ScenarioConfig, run_scenario
from repro.fds import messages
from repro.fds.config import FdsConfig
from repro.fds.messages import Digest, Heartbeat, PeerForwardRequest
from repro.fds.service import FdsProtocol
from repro.sim.engine import Simulator
from repro.sim.medium import RadioMedium
from repro.sim.node import SimNode
from repro.types import NodeRole
from repro.util.geometry import Vec2


def _wire_classes(module, exclude=()):
    """The message dataclasses a module defines."""
    return {
        cls for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls)
        and cls not in exclude
    }


FDS_MESSAGES = _wire_classes(messages)
FORMATION_MESSAGES = _wire_classes(formation, exclude={formation.FormationConfig})


@pytest.fixture(scope="module")
def both_protocols():
    """A protocol-formation run: every node carries both protocols."""
    result = run_scenario(ScenarioConfig(
        cluster_count=2, members_per_cluster=6, crash_count=0,
        executions=1, formation="protocol", seed=3,
    ))
    return result.network


def test_the_message_modules_are_read():
    assert len(FDS_MESSAGES) == 7
    assert len(FORMATION_MESSAGES) == 7


def test_every_wire_type_has_exactly_one_handler(both_protocols):
    for node in both_protocols.nodes.values():
        fds, = (p for p in node.protocols if isinstance(p, FdsProtocol))
        forming, = (
            p for p in node.protocols
            if isinstance(p, formation.FormationProtocol)
        )
        assert set(fds.handlers()) == FDS_MESSAGES
        assert set(forming.handlers()) == FORMATION_MESSAGES
        # The node's merged table is the one the medium dispatches from.
        assert set(node.table) == FDS_MESSAGES | FORMATION_MESSAGES
        assert both_protocols.medium._tables[node.node_id] is node.table


def _node_with_fds(energy=None, config=None):
    """Node 1 carries an FDS; node 0 is a bare radio next to it."""
    sim = Simulator()
    medium = RadioMedium(sim, transmission_range=100.0, max_delay=0.01,
                         rng=np.random.default_rng(0))
    sender = SimNode(0, Vec2(0, 0), sim, medium)
    receiver = SimNode(1, Vec2(50, 0), sim, medium)
    view = LocalClusterView(
        node_id=1, role=NodeRole.CH, head=1, members=frozenset({0, 1}),
        deputies=(),
    )
    if energy is not None:
        energy.register(receiver.node_id, sim.now)
    fds = FdsProtocol(config or FdsConfig(), view, energy=energy)
    receiver.add_protocol(fds)
    return sim, sender, receiver, fds


def test_a_type_no_protocol_takes_is_dropped():
    sim, sender, receiver, fds = _node_with_fds()
    sender.send("not a wire message")
    sender.send(formation.ClusterDissolve(head=0))
    sim.run()
    # Both copies were delivered (counted), then dropped with no handler.
    assert receiver.medium.deliveries == 2
    assert fds.history.known == frozenset()


def test_energy_is_charged_once_per_delivered_copy():
    energy = EnergyModel()
    sim, sender, receiver, fds = _node_with_fds(
        energy, FdsConfig(peer_forwarding=False)
    )
    fds.execution = 0
    sender.send(Heartbeat(sender=0, execution=0))
    sender.send(Digest(sender=0, execution=0, heard=frozenset({1})))
    # Turned off in this configuration: received, charged, ignored.
    sender.send(PeerForwardRequest(sender=0, execution=0))
    sim.run()
    assert receiver.medium.deliveries == 3
    assert energy.totals()["rx_total"] == 3
    assert fds._heard == {0}


def test_no_energy_model_means_bare_handlers():
    _sim, _sender, _receiver, fds = _node_with_fds()
    table = fds.handlers()
    assert table[Heartbeat] == fds._on_heartbeat
    assert table[Digest] == fds._on_digest
