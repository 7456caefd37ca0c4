"""Tests for restartable timers."""

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.medium import RadioMedium
from repro.sim.node import SimNode
from repro.sim.timers import Timer, TimerService
from repro.util.geometry import Vec2


class TestTimer:
    def test_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]
        assert timer.fired_count == 1
        assert not timer.armed

    def test_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(2.0)
        timer.stop()
        sim.run()
        assert fired == []

    def test_restart_replaces_deadline(self):
        # The implicit-ack semantics: re-arming cancels the old deadline.
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        timer.start(5.0)
        sim.run()
        assert fired == [5.0]

    def test_deadline_property(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert timer.deadline is None
        timer.start(3.0)
        assert timer.deadline == 3.0

    def test_negative_delay_rejected(self):
        timer = Timer(Simulator(), lambda: None)
        with pytest.raises(SchedulingError):
            timer.start(-0.5)

    def test_restart_from_callback(self):
        sim = Simulator()
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer = Timer(sim, on_fire)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestTimerService:
    def test_after_creates_and_starts(self):
        sim = Simulator()
        service = TimerService(sim)
        fired = []
        service.after(1.5, lambda: fired.append(1))
        assert service.armed_count == 1
        sim.run()
        assert fired == [1]
        assert service.armed_count == 0

    def test_stop_all_silences_everything(self):
        # Crash semantics: a fail-stopped node's timers must all die.
        sim = Simulator()
        service = TimerService(sim)
        fired = []
        for i in range(5):
            service.after(float(i + 1), lambda: fired.append(1))
        service.stop_all()
        sim.run()
        assert fired == []

    def test_fired_one_shots_are_not_retained(self):
        # The service tracks armed timers only: a long run's worth of
        # expired after() timers must leave nothing behind for
        # stop_all / armed_count to walk.
        sim = Simulator()
        service = TimerService(sim)
        fired = []
        for i in range(10_000):
            service.after(1.0 + i * 1e-3, lambda: fired.append(1))
        assert service.armed_count == 10_000
        sim.run()
        assert len(fired) == 10_000
        assert service.armed_count == 0
        assert not service._armed

    def test_stopped_and_restarted_handles_track_their_state(self):
        sim = Simulator()
        service = TimerService(sim)
        timer = service.create(lambda: None)
        assert service.armed_count == 0  # created, never started
        timer.start(1.0)
        timer.start(2.0)  # restart: still one armed timer
        assert service.armed_count == 1
        timer.stop()
        timer.stop()
        assert service.armed_count == 0
        assert not service._armed

    def test_crash_disarms_a_timer_restarted_after_it_fired(self):
        sim = Simulator()
        medium = RadioMedium(sim, transmission_range=100.0)
        node = SimNode(0, Vec2(0.0, 0.0), sim, medium)
        fired = []
        timer = node.timers.after(1.0, lambda: fired.append(sim.now))
        sim.run_until(1.5)
        assert fired == [1.0]
        assert node.timers.armed_count == 0  # dropped when it expired
        timer.start(1.0)  # the fired handle re-registers itself
        assert node.timers.armed_count == 1
        node.crash()
        assert not timer.armed
        assert node.timers.armed_count == 0
        sim.run_until(5.0)
        assert fired == [1.0]
