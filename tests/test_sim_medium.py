"""Tests for the radio medium: unit-disk propagation, promiscuity, loss."""

import numpy as np
import pytest

from repro.errors import MediumError
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss, PerfectLinks
from repro.sim.medium import RadioMedium
from repro.sim.trace import RecordingTracer
from repro.util.geometry import Vec2
from tests.scalar_medium import ScalarRadioMedium


def make_medium(loss=None, rng_seed=0, tracer=None, max_delay=0.1):
    sim = Simulator()
    medium = RadioMedium(
        sim,
        transmission_range=100.0,
        loss_model=loss if loss is not None else PerfectLinks(),
        rng=np.random.default_rng(rng_seed),
        max_delay=max_delay,
        tracer=tracer,
    )
    return sim, medium


def register_line(medium, inboxes, spacing=60.0, count=4):
    """Nodes 0..count-1 on a line, `spacing` apart, each appending the
    ``str`` payloads it receives to ``inboxes[nid]``."""
    for nid in range(count):
        inboxes[nid] = []
        medium.register(nid, Vec2(spacing * nid, 0.0), {str: inboxes[nid].append})


def rx_details(tracer, node):
    """The ``radio.rx`` records at ``node``: (time, detail) pairs."""
    return [(r.time, r.detail) for r in tracer.iter_kind("radio.rx") if r.node == node]


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        _sim, medium = make_medium()
        medium.register(1, Vec2(0, 0), {})
        with pytest.raises(MediumError):
            medium.register(1, Vec2(1, 1), {})

    def test_unregister(self):
        _sim, medium = make_medium()
        medium.register(1, Vec2(0, 0), {})
        medium.unregister(1)
        assert medium.node_ids() == ()
        with pytest.raises(MediumError):
            medium.unregister(1)

    def test_unknown_node_queries_raise(self):
        _sim, medium = make_medium()
        with pytest.raises(MediumError):
            medium.position_of(9)
        with pytest.raises(MediumError):
            medium.neighbors_of(9)


class TestNeighborStructure:
    def test_unit_disk_neighbors(self):
        _sim, medium = make_medium()
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=4)
        # 60m spacing, 100m range: each node hears adjacent only.
        assert medium.neighbors_of(0) == (1,)
        assert medium.neighbors_of(1) == (0, 2)
        assert medium.neighbors_of(2) == (1, 3)

    def test_boundary_distance_inclusive(self):
        _sim, medium = make_medium()
        medium.register(0, Vec2(0, 0), {})
        medium.register(1, Vec2(100.0, 0), {})
        assert medium.neighbors_of(0) == (1,)

    def test_grid_matches_brute_force(self):
        # The spatial-hash neighbor structure must equal O(n^2) checking.
        rng = np.random.default_rng(3)
        _sim, medium = make_medium()
        positions = {
            i: Vec2(float(rng.uniform(0, 500)), float(rng.uniform(0, 500)))
            for i in range(120)
        }
        for nid, pos in positions.items():
            medium.register(nid, pos, {})
        for nid, pos in positions.items():
            brute = tuple(
                sorted(
                    other
                    for other, opos in positions.items()
                    if other != nid and pos.distance_to(opos) <= 100.0
                )
            )
            assert medium.neighbors_of(nid) == brute


class TestTransmission:
    def test_promiscuous_delivery(self):
        # A unicast is heard by every in-range node, flagged overheard.
        tracer = RecordingTracer()
        sim, medium = make_medium(tracer=tracer)
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=3)
        medium.transmit(1, "hello", recipient=2)
        sim.run()
        [(_, to_recipient)] = rx_details(tracer, 2)
        [(_, overheard)] = rx_details(tracer, 0)
        assert len(inboxes[2]) == 1 and not to_recipient["overheard"]
        assert len(inboxes[0]) == 1 and overheard["overheard"]
        assert to_recipient["sender"] == overheard["sender"] == 1
        assert inboxes[0][0] == "hello"

    def test_broadcast_has_no_overheard_flag(self):
        tracer = RecordingTracer()
        sim, medium = make_medium(tracer=tracer)
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=3)
        medium.transmit(1, "b", recipient=None)
        sim.run()
        assert inboxes[0] == inboxes[2] == ["b"]
        assert not rx_details(tracer, 0)[0][1]["overheard"]
        assert not rx_details(tracer, 2)[0][1]["overheard"]

    def test_sender_does_not_hear_itself(self):
        sim, medium = make_medium()
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=2)
        medium.transmit(0, "x")
        sim.run()
        assert inboxes[0] == []

    def test_out_of_range_not_delivered(self):
        sim, medium = make_medium()
        inboxes = {}
        register_line(medium, inboxes, spacing=150.0, count=2)
        medium.transmit(0, "x")
        sim.run()
        assert inboxes[1] == []

    def test_delivery_within_max_delay(self):
        tracer = RecordingTracer()
        sim, medium = make_medium(max_delay=0.05, tracer=tracer)
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=2)
        medium.transmit(0, "x")
        sim.run()
        assert inboxes[1] == ["x"]
        [(received_at, detail)] = rx_details(tracer, 1)
        # Sent at 0.0: the latency is the arrival time.
        assert detail["latency"] == received_at
        assert 0.0 < received_at <= 0.05

    def test_unknown_sender_or_recipient_raise(self):
        _sim, medium = make_medium()
        medium.register(0, Vec2(0, 0), {})
        with pytest.raises(MediumError):
            medium.transmit(5, "x")
        with pytest.raises(MediumError):
            medium.transmit(0, "x", recipient=5)


class TestLossIntegration:
    def test_loss_rate_observed(self):
        sim, medium = make_medium(loss=BernoulliLoss(0.4), rng_seed=5)
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=2)
        for _ in range(3000):
            medium.transmit(0, "x")
        sim.run()
        rate = 1 - len(inboxes[1]) / 3000
        assert 0.37 <= rate <= 0.43
        stats = medium.message_stats()
        assert stats["transmissions"] == 3000
        assert stats["deliveries"] + stats["losses"] == 3000

    def test_per_receiver_independence(self):
        # One transmission can reach some receivers and not others.
        sim, medium = make_medium(loss=BernoulliLoss(0.5), rng_seed=7)
        inboxes = {}
        for i in range(5):
            inboxes[i] = []
            medium.register(i, Vec2(10.0 * i, 0.0), {str: inboxes[i].append})
        for _ in range(200):
            medium.transmit(0, "x")
        sim.run()
        counts = {i: len(inboxes[i]) for i in range(1, 5)}
        assert len(set(counts.values())) > 1  # not all identical


class TestMutedReceivers:
    def test_muted_node_receives_nothing(self):
        sim, medium = make_medium()
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=2)
        medium.set_receiving(1, False)
        medium.transmit(0, "x")
        sim.run()
        assert inboxes[1] == []

    def test_mute_during_flight_drops_copy(self):
        sim, medium = make_medium()
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=2)
        medium.transmit(0, "x")
        medium.set_receiving(1, False)  # before delivery event fires
        sim.run()
        assert inboxes[1] == []


class TestTracing:
    def test_tx_rx_loss_records(self):
        tracer = RecordingTracer()
        sim, medium = make_medium(loss=BernoulliLoss(0.5), rng_seed=2,
                                  tracer=tracer)
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=2)
        for _ in range(50):
            medium.transmit(0, "x")
        sim.run()
        assert tracer.count("radio.tx") == 50
        assert tracer.count("radio.rx") + tracer.count("radio.loss") == 50


class TestUnregisterMidFlight:
    """A copy in flight toward a node that unregisters must be dropped
    silently -- by the production fan-out and the scalar reference."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_unregister_before_delivery_drops_copy(self, vectorized):
        sim = Simulator()
        medium = (RadioMedium if vectorized else ScalarRadioMedium)(
            sim,
            transmission_range=100.0,
            loss_model=PerfectLinks(),
            rng=np.random.default_rng(0),
            max_delay=0.1,
        )
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=3)
        medium.transmit(0, "mid-flight")
        medium.unregister(1)  # before the delivery event fires
        sim.run()
        assert inboxes[1] == []

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_medium_still_usable_after_midflight_unregister(self, vectorized):
        sim = Simulator()
        medium = (RadioMedium if vectorized else ScalarRadioMedium)(
            sim,
            transmission_range=100.0,
            loss_model=PerfectLinks(),
            rng=np.random.default_rng(0),
            max_delay=0.1,
        )
        inboxes = {}
        register_line(medium, inboxes, spacing=60.0, count=3)
        medium.transmit(0, "one")
        medium.unregister(1)
        sim.run()
        medium.register(1, Vec2(60.0, 0.0), {str: inboxes[1].append})
        medium.transmit(0, "two")
        sim.run()
        assert inboxes[1] == ["two"]
