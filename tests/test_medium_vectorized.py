"""The vectorized radio hot path: delay bounds, caches, batched loss masks.

Three properties guard the PR that vectorized ``RadioMedium.transmit``:

- delivery delays live on the half-open interval ``(0, max_delay]`` (the
  paper's per-hop bound, met without the old zero-delay remapping hack);
- the per-sender ``(neighbors, distances)`` array cache is dropped on every
  topology change, together with the neighbor cache;
- every ``LossModel.lost_mask`` consumes the generator exactly like the
  sequential ``is_lost`` loop, so vectorized and scalar simulations are
  bit-identical for any seed.
"""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.loss import (
    BernoulliLoss,
    BoundedAdversaryLoss,
    DistanceDependentLoss,
    GilbertElliottLoss,
    PerfectLinks,
)
from repro.sim.medium import RadioMedium, draw_delays
from repro.sim.trace import RecordingTracer
from repro.util.geometry import Vec2
from tests.scalar_medium import ScalarRadioMedium


class StubRng:
    """A fake generator returning scripted uniforms, for exact-bound tests."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


def make_medium(loss=None, rng_seed=0, vectorized=True, tracer=None,
                max_delay=0.1):
    sim = Simulator()
    medium = (RadioMedium if vectorized else ScalarRadioMedium)(
        sim,
        transmission_range=100.0,
        loss_model=loss if loss is not None else PerfectLinks(),
        rng=np.random.default_rng(rng_seed),
        max_delay=max_delay,
        tracer=tracer,
    )
    return sim, medium


def register_cluster(medium, inboxes, count=12, spacing=5.0):
    """``count`` nodes in a tight line -- everyone hears everyone."""
    for i in range(count):
        inboxes[i] = []
        medium.register(
            i, Vec2(spacing * i, 0.0),
            (lambda n: (lambda env: inboxes[n].append(env)))(i),
        )


class TestDelayBounds:
    def test_delays_in_half_open_interval(self):
        rng = np.random.default_rng(42)
        delays = draw_delays(rng, 0.1, 100_000)
        assert np.all(delays > 0.0)
        assert np.all(delays <= 0.1)

    def test_upper_bound_attained_exactly(self):
        # A zero uniform draw maps to *exactly* max_delay, never beyond.
        delays = draw_delays(StubRng(0.0), 0.1, 4)
        assert np.all(delays == 0.1)

    def test_zero_delay_impossible(self):
        # The largest double below 1.0 is the worst case for underflow.
        worst = np.nextafter(1.0, 0.0)
        delays = draw_delays(StubRng(worst), 0.1, 4)
        assert np.all(delays > 0.0)

    def test_batch_matches_scalar_stream(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        batch = draw_delays(a, 0.25, 16)
        scalars = [float(0.25 * (1.0 - b.random())) for _ in range(16)]
        assert batch.tolist() == scalars

    def test_transmitted_copies_respect_bound(self):
        sim, medium = make_medium(max_delay=0.05)
        inboxes = {}
        register_cluster(medium, inboxes, count=10)
        for sender in range(10):
            medium.transmit(sender, "ping")
        sim.run()
        delays = [
            env.received_at - env.sent_at
            for box in inboxes.values()
            for env in box
        ]
        assert delays, "expected deliveries"
        assert all(0.0 < d <= 0.05 for d in delays)


class TestArrayCacheInvalidation:
    def test_arrays_are_cached(self):
        _sim, medium = make_medium()
        inboxes = {}
        register_cluster(medium, inboxes, count=5)
        first = medium.neighbor_arrays(0)
        assert medium.neighbor_arrays(0) is first

    def test_arrays_align_with_neighbors(self):
        _sim, medium = make_medium()
        inboxes = {}
        register_cluster(medium, inboxes, count=5, spacing=30.0)
        neighbors, distances = medium.neighbor_arrays(1)
        assert neighbors == medium.neighbors_of(1)
        for nid, dist in zip(neighbors, distances):
            assert dist == pytest.approx(medium.distance(1, nid))

    def test_register_invalidates(self):
        _sim, medium = make_medium()
        medium.register(0, Vec2(0, 0), lambda e: None)
        assert medium.neighbor_arrays(0)[0] == ()
        medium.register(1, Vec2(40.0, 0), lambda e: None)
        neighbors, distances = medium.neighbor_arrays(0)
        assert neighbors == (1,) and distances[0] == pytest.approx(40.0)

    def test_unregister_invalidates(self):
        _sim, medium = make_medium()
        medium.register(0, Vec2(0, 0), lambda e: None)
        medium.register(1, Vec2(40.0, 0), lambda e: None)
        medium.register(2, Vec2(0, 40.0), lambda e: None)
        assert medium.neighbor_arrays(0)[0] == (1, 2)
        medium.unregister(1)
        neighbors, distances = medium.neighbor_arrays(0)
        assert neighbors == (2,) and distances[0] == pytest.approx(40.0)


class TestLostMaskEquivalence:
    """Every mask must consume the RNG exactly like the scalar loop."""

    RECEIVERS = tuple(range(1, 9))
    DISTANCES = np.linspace(5.0, 95.0, 8)

    def _scalar_reference(self, model, rng):
        return [
            model.is_lost(0, r, float(d), 0.0, rng)
            for r, d in zip(self.RECEIVERS, self.DISTANCES)
        ]

    def test_bernoulli_matches_scalar_stream(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        mask = BernoulliLoss(0.3).lost_mask(
            0, self.RECEIVERS, self.DISTANCES, 0.0, a
        )
        assert mask.tolist() == self._scalar_reference(BernoulliLoss(0.3), b)
        # Both consumed identical amounts: the streams still agree.
        assert a.random() == b.random()

    def test_bernoulli_edge_probabilities_draw_nothing(self):
        for p, expected in ((0.0, False), (1.0, True)):
            rng = np.random.default_rng(5)
            before = rng.bit_generator.state
            mask = BernoulliLoss(p).lost_mask(
                0, self.RECEIVERS, self.DISTANCES, 0.0, rng
            )
            assert mask.tolist() == [expected] * len(self.RECEIVERS)
            assert rng.bit_generator.state == before

    def test_perfect_links_draw_nothing(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        mask = PerfectLinks().lost_mask(
            0, self.RECEIVERS, self.DISTANCES, 0.0, rng
        )
        assert not mask.any()
        assert rng.bit_generator.state == before

    def test_distance_dependent_matches_scalar_stream(self):
        model = DistanceDependentLoss(
            transmission_range=100.0, p_near=0.05, p_far=0.6
        )
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        mask = model.lost_mask(0, self.RECEIVERS, self.DISTANCES, 0.0, a)
        assert mask.tolist() == self._scalar_reference(model, b)
        assert a.random() == b.random()

    def test_gilbert_elliott_state_advances_per_receiver(self):
        # The stateful model rides the sequential fallback: same outcomes
        # *and* same per-link Markov state as the scalar loop.
        masked = GilbertElliottLoss(p_gb=0.4, p_bg=0.3)
        looped = GilbertElliottLoss(p_gb=0.4, p_bg=0.3)
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(5):  # several rounds so chains actually transition
            mask = masked.lost_mask(0, self.RECEIVERS, self.DISTANCES, 0.0, a)
            assert mask.tolist() == self._scalar_reference(looped, b)
        assert masked._state == looped._state
        assert a.random() == b.random()

    def test_bounded_adversary_budget_spent_per_receiver(self):
        # The budget dies mid-mask; after that no receiver draws, so the
        # fallback must stop consuming the RNG exactly where the loop does.
        model = BoundedAdversaryLoss(p=0.5, budget=6)
        reference = BoundedAdversaryLoss(p=0.5, budget=6)
        a, b = np.random.default_rng(13), np.random.default_rng(13)
        for _ in range(5):
            mask = model.lost_mask(0, self.RECEIVERS, self.DISTANCES, 0.0, a)
            assert mask.tolist() == self._scalar_reference(reference, b)
        assert model.dropped == reference.dropped == 6
        assert a.random() == b.random()


class TestVectorizedScalarEquivalence:
    def test_paths_bit_identical_at_medium_level(self):
        # Same seed, same topology, same transmissions: the production
        # fan-out and the scalar reference (tests/scalar_medium.py) must
        # produce identical envelopes, counters, and trace records.
        captured = {}
        for vectorized in (True, False):
            tracer = RecordingTracer()
            sim, medium = make_medium(
                loss=BernoulliLoss(0.3), rng_seed=21,
                vectorized=vectorized, tracer=tracer,
            )
            inboxes = {}
            register_cluster(medium, inboxes, count=12)
            medium.set_receiving(3, False)  # a muted node in the mix
            for round_ in range(4):
                for sender in range(12):
                    medium.transmit(sender, f"m{round_}", recipient=(sender + 1) % 12)
                sim.run()
            records = tuple(
                (r.time, r.kind, r.node, tuple(sorted(r.detail.items())))
                for r in tracer.records
            )
            captured[vectorized] = (
                {n: box for n, box in inboxes.items()},
                medium.message_stats(),
                records,
            )
        assert captured[True] == captured[False]


class TestMidFlightChanges:
    """Copies in the delivery lane honour what happens before they land.

    A batch is scheduled at transmission time but each copy is delivered
    (or dropped) against the medium's state at *its* arrival, exactly as
    the per-receiver heap events of the scalar reference are.
    """

    MUTED, UNMUTED, GONE, SENDER, REPLIER = 2, 3, 4, 0, 5

    def _run(self, vectorized):
        tracer = RecordingTracer()
        sim, medium = make_medium(
            loss=BernoulliLoss(0.2), rng_seed=33, vectorized=vectorized,
            tracer=tracer, max_delay=0.1,
        )
        inboxes = {}
        register_cluster(medium, inboxes, count=10)
        replies = []

        def replier(envelope):
            # A handler that transmits (a batch parked mid-drain) and
            # detaches a node that still has copies in flight.
            inboxes[self.REPLIER].append(envelope)
            if not replies:
                replies.append(sim.now)
                medium.transmit(self.REPLIER, "reply")
                medium.unregister(9)

        medium._handlers[self.REPLIER] = replier
        medium.set_receiving(self.UNMUTED, False)
        for sender in (self.SENDER, 1, 6, 7, 8):
            medium.transmit(sender, f"from{sender}")
        sim.schedule_at(0.03, lambda: medium.set_receiving(self.MUTED, False))
        sim.schedule_at(0.04, lambda: medium.set_receiving(self.UNMUTED, True))
        sim.schedule_at(0.05, lambda: medium.unregister(self.GONE))
        sim.schedule_at(0.06, lambda: medium.unregister(self.SENDER))
        sim.run()
        records = tuple(
            (r.time, r.kind, r.node, tuple(sorted(r.detail.items())))
            for r in tracer.records
        )
        return inboxes, medium.message_stats(), records, sim.processed_events, replies

    def test_lane_matches_scalar_reference(self):
        assert self._run(True) == self._run(False)

    def test_each_copy_sees_the_state_at_its_arrival(self):
        inboxes, stats, records, processed, replies = self._run(True)
        assert all(e.received_at <= 0.03 for e in inboxes[self.MUTED])
        assert all(e.received_at <= 0.05 for e in inboxes[self.GONE])
        # Muted at transmission time: no copy was ever addressed to it,
        # so unmuting mid-flight delivers nothing from that burst.
        assert [e.payload for e in inboxes[self.UNMUTED]] == []
        # The sender left at 0.06; its copies already in flight still land.
        late = [
            e for box in inboxes.values() for e in box
            if e.sender == self.SENDER and e.received_at > 0.06
        ]
        assert late
        # Node 9 was detached by the replier's handler: nothing after that.
        assert all(e.received_at <= replies[0] for e in inboxes[9])
        assert any(
            e.payload == "reply" for box in inboxes.values() for e in box
        )
        # Every scheduled copy was popped (dropped ones included), and
        # the rx records are exactly the delivered ones.
        delivered = sum(len(box) for box in inboxes.values())
        assert stats["deliveries"] == delivered
        assert sum(1 for r in records if r[1] == "radio.rx") == delivered
        assert processed > delivered + 4  # some copies were dropped in flight
