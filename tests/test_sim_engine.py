"""Tests for the simulation engine."""

import numpy as np
import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_run_executes_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1, 2]
        assert sim.now == 2.0

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(4.0, lambda: None)

    def test_schedule_at_now_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: sim.schedule_at(sim.now, lambda: fired.append("x")))
        sim.run()
        assert fired == ["x"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule_in(-1.0, lambda: None)

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append("no"))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def outer():
            sim.schedule_in(1.0, lambda: fired.append("inner"))

        sim.schedule_at(1.0, outer)
        sim.run()
        assert fired == ["inner"]
        assert sim.now == 2.0


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(3.0, lambda: fired.append(3))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run_until(4.0)
        assert fired == [1, 3]

    def test_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run_until(2.0)
        assert fired == [2]

    def test_advances_clock_even_if_queue_empty(self):
        sim = Simulator()
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_backwards_run_until_raises(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SchedulingError):
            sim.run_until(4.0)


class TestGuards:
    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule_in(1.0, reschedule)

        sim.schedule_in(1.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 5

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


def schedule_batch(sim, times, targets, fired, tag="b"):
    sim.schedule_batch(
        np.array(times, dtype=np.float64),
        np.array(targets, dtype=np.int64),
        lambda target: fired.append((tag, target, sim.now)),
    )


class TestBatches:
    """``schedule_batch`` behaves as one ``schedule_at`` per entry."""

    def test_batch_interleaves_with_events_under_run(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(("e", sim.now)))
        schedule_batch(sim, [3.0, 1.0], [30, 10], fired)
        assert sim.pending_events == 3
        sim.run()
        assert fired == [("b", 10, 1.0), ("e", 2.0), ("b", 30, 3.0)]
        assert sim.processed_events == 3
        assert sim.pending_events == 0

    def test_run_until_stops_inside_a_lane_run(self):
        sim = Simulator()
        fired = []
        schedule_batch(sim, [1.0, 2.0, 2.0, 3.0], [1, 2, 3, 4], fired)
        sim.run_until(2.0)
        assert [target for _, target, _ in fired] == [1, 2, 3]  # inclusive
        assert sim.now == 2.0 and sim.pending_events == 1
        sim.run_until(10.0)
        assert fired[-1] == ("b", 4, 3.0)

    def test_step_fires_one_entry_from_either_store(self):
        sim = Simulator()
        fired = []
        schedule_batch(sim, [1.0, 3.0], [1, 3], fired)
        sim.schedule_at(2.0, lambda: fired.append("e"))
        assert sim.step() and fired == [("b", 1, 1.0)]
        assert sim.step() and fired[-1] == "e"
        assert sim.pending_events == 1
        assert sim.step() and fired[-1] == ("b", 3, 3.0)
        assert sim.step() is False
        assert sim.processed_events == 3

    def test_max_events_counts_lane_entries(self):
        sim = Simulator()
        fired = []
        schedule_batch(sim, [1.0, 2.0, 3.0, 4.0], [1, 2, 3, 4], fired)
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert len(fired) == 3 and sim.pending_events == 1
        sim.run(max_events=1)  # exactly enough: no error
        assert len(fired) == 4

    def test_batch_in_the_past_or_nan_raises(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SchedulingError):
            schedule_batch(sim, [6.0, 4.0], [1, 2], [])
        with pytest.raises(SchedulingError):
            schedule_batch(sim, [6.0, float("nan")], [1, 2], [])
        assert sim.pending_events == 0

    def test_batch_whose_earliest_time_equals_now(self):
        # Like schedule_at(now): fires within the current instant, after
        # what is already queued for it.
        sim = Simulator()
        fired = []

        def at_one():
            schedule_batch(sim, [1.0, 1.5], [1, 2], fired)
            fired.append("timer")

        sim.schedule_at(1.0, at_one)
        sim.schedule_at(1.0, lambda: fired.append("queued earlier"))
        sim.run()
        assert fired == [
            "timer", "queued earlier", ("b", 1, 1.0), ("b", 2, 1.5),
        ]

    def test_batch_scheduled_from_inside_a_delivery_callback(self):
        # The second batch lands between the first one's remaining
        # entries, and its equal-time entry fires after the older one.
        sim = Simulator()
        fired = []

        def first(target):
            fired.append(("a", target, sim.now))
            if target == 1:
                schedule_batch(sim, [2.5, 1.5, 2.0], [7, 5, 6], fired)

        sim.schedule_batch(
            np.array([1.0, 2.0, 3.0]), np.array([1, 2, 3], dtype=np.int64), first
        )
        sim.run()
        assert fired == [
            ("a", 1, 1.0), ("b", 5, 1.5), ("a", 2, 2.0), ("b", 6, 2.0),
            ("b", 7, 2.5), ("a", 3, 3.0),
        ]

    def test_timer_armed_and_cancelled_from_delivery_callbacks(self):
        sim = Simulator()
        fired = []
        doomed = sim.schedule_at(2.5, lambda: fired.append("doomed"))

        def deliver(target):
            fired.append(target)
            if target == 1:
                sim.schedule_at(1.5, lambda: fired.append("armed"))
            if target == 2:
                sim.cancel(doomed)

        sim.schedule_batch(
            np.array([1.0, 2.0, 3.0]), np.array([1, 2, 3], dtype=np.int64), deliver
        )
        sim.run()
        assert fired == [1, "armed", 2, 3]

    def test_step_inside_a_callback_is_rejected(self):
        sim = Simulator()
        schedule_batch(sim, [1.0, 2.0], [1, 2], [])
        sim.schedule_at(0.5, sim.step)
        with pytest.raises(SimulationError):
            sim.run()

    def test_profiler_charges_one_heap_add_per_fired_entry(self):
        from repro.obs.profiler import PHASE_SIM_HEAP, PhaseProfiler

        profiler = PhaseProfiler()
        sim = Simulator(profiler=profiler)
        schedule_batch(sim, [1.0, 2.0, 3.0], [1, 2, 3], [])
        sim.schedule_at(1.5, lambda: None)
        sim.run()
        assert profiler.calls[PHASE_SIM_HEAP] == sim.processed_events == 4

    def test_unfired_lane_entries_do_not_leak_the_simulator(self):
        # Callbacks point back at their owner (the medium's do: medium ->
        # simulator -> queue -> callback -> medium).  Whatever the lane
        # stores them in must be visible to the cycle collector, or every
        # finished run with copies still in flight stays alive for good.
        import gc
        import weakref

        class Owner:
            def __init__(self):
                self.sim = Simulator()

            def deliver(self, target):
                pass

        owner = Owner()
        owner.sim.schedule_batch(
            np.array([1.0, 2.0, 3.0]), np.arange(3, dtype=np.int64), owner.deliver
        )
        owner.sim.run_until(1.5)  # merged, one fired, two left in the lane
        assert owner.sim.pending_events == 2
        alive = weakref.ref(owner)
        del owner
        gc.collect()
        assert alive() is None
