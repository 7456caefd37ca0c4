"""Tests for the node runtime and fail-stop semantics."""

import pytest

from repro.errors import NodeStateError
from repro.sim.engine import Simulator
from repro.sim.medium import RadioMedium
from repro.sim.node import Protocol, SimNode
from repro.types import NodeStatus
from repro.util.geometry import Vec2


class Recorder(Protocol):
    name = "recorder"

    def __init__(self):
        super().__init__()
        self.received = []
        self.crashed = False

    def on_receive(self, envelope):
        self.received.append(envelope.payload)

    def on_crash(self):
        self.crashed = True


def make_pair():
    sim = Simulator()
    medium = RadioMedium(sim, transmission_range=100.0, max_delay=0.01)
    a = SimNode(0, Vec2(0, 0), sim, medium)
    b = SimNode(1, Vec2(50, 0), sim, medium)
    return sim, a, b


class TestProtocolStack:
    def test_delivery_reaches_all_protocols_in_order(self):
        sim, a, b = make_pair()
        r1, r2 = Recorder(), Recorder()
        b.add_protocol(r1)
        b.add_protocol(r2)
        a.send("msg")
        sim.run()
        assert r1.received == ["msg"]
        assert r2.received == ["msg"]

    def test_counters(self):
        sim, a, b = make_pair()
        b.add_protocol(Recorder())
        a.send("one")
        a.send("two")
        sim.run()
        assert a.sent_count == 2
        assert b.received_count == 2


class TestFailStop:
    def test_crashed_node_sends_nothing(self):
        sim, a, b = make_pair()
        r = Recorder()
        b.add_protocol(r)
        a.crash()
        assert a.send("silent") == 0
        sim.run()
        assert r.received == []

    def test_crashed_node_receives_nothing(self):
        sim, a, b = make_pair()
        r = Recorder()
        b.add_protocol(r)
        b.crash()
        a.send("msg")
        sim.run()
        assert r.received == []

    def test_crash_disarms_timers(self):
        sim, a, _b = make_pair()
        fired = []
        a.timers.after(1.0, lambda: fired.append(1))
        a.crash()
        sim.run()
        assert fired == []

    def test_crash_notifies_protocols(self):
        _sim, a, _b = make_pair()
        r = Recorder()
        a.add_protocol(r)
        a.crash()
        assert r.crashed

    def test_double_crash_raises(self):
        _sim, a, _b = make_pair()
        a.crash()
        with pytest.raises(NodeStateError):
            a.crash()

    def test_status_transitions(self):
        _sim, a, _b = make_pair()
        assert a.status is NodeStatus.ALIVE
        assert a.is_operational
        a.crash()
        assert a.status is NodeStatus.CRASHED
        assert not a.is_operational

    def test_in_flight_message_not_delivered_to_crashed(self):
        # Copy scheduled before the crash must be dropped at delivery.
        sim, a, b = make_pair()
        r = Recorder()
        b.add_protocol(r)
        a.send("msg")
        b.crash()
        sim.run()
        assert r.received == []
