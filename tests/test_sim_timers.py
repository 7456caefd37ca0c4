"""Tests for restartable timers.

``TestTimer`` pins exact firing times on the event engine.  The
``TimerService`` lifecycle cases run twice -- over the ``Simulator`` and
over the runtime's ``WallClockScheduler`` -- because ``repro rt`` hosts
the very same ``SimNode`` / ``TimerService`` on that scheduler.
"""

import asyncio

import pytest

from repro.errors import SchedulingError
from repro.rt.substrate import UdpLink, WallClockScheduler
from repro.sim.engine import Simulator
from repro.sim.medium import RadioMedium
from repro.sim.node import SimNode
from repro.sim.timers import Timer, TimerService
from repro.sim.trace import NullTracer
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


class SimHost:
    """The event engine under a node; one unit is a virtual second."""

    unit = 1.0

    def __init__(self):
        self.scheduler = Simulator()
        self.medium = RadioMedium(self.scheduler, transmission_range=100.0)

    def run(self, units):
        self.scheduler.run_until(self.scheduler.now + units * self.unit)

    def close(self):
        pass


class WallHost:
    """The asyncio loop and a bound UDP socket under a node; one unit is
    2 ms of wall clock."""

    unit = 0.002

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.scheduler = WallClockScheduler(self.loop)
        self.medium = UdpLink(net=None, tracer=NullTracer())
        self.loop.run_until_complete(self.medium.open(asyncio.Event()))

    def run(self, units):
        self.loop.run_until_complete(asyncio.sleep(units * self.unit))

    def close(self):
        self.medium.close()
        self.run(0)
        self.loop.close()


class TestTimerService:
    Host = SimHost

    @pytest.fixture
    def host(self):
        host = self.Host()
        yield host
        host.close()

    def test_after_creates_and_starts(self, host):
        service = TimerService(host.scheduler)
        fired = []
        service.after(1.5 * host.unit, lambda: fired.append(1))
        assert service.armed_count == 1
        host.run(2)
        assert fired == [1]
        assert service.armed_count == 0

    def test_stop_all_silences_everything(self, host):
        # Crash semantics: a fail-stopped node's timers must all die.
        service = TimerService(host.scheduler)
        fired = []
        for i in range(5):
            service.after((i + 1) * host.unit, lambda: fired.append(1))
        service.stop_all()
        host.run(6)
        assert fired == []

    def test_fired_one_shots_are_not_retained(self, host):
        # The service tracks armed timers only: a long run's worth of
        # expired after() timers must leave nothing behind for
        # stop_all / armed_count to walk.
        service = TimerService(host.scheduler)
        fired = []
        for i in range(10_000):
            service.after(
                (1.0 + i * 1e-3) * host.unit, lambda: fired.append(1)
            )
        assert service.armed_count == 10_000
        host.run(12)
        assert len(fired) == 10_000
        assert service.armed_count == 0
        assert not service._armed

    def test_stopped_and_restarted_handles_track_their_state(self, host):
        service = TimerService(host.scheduler)
        timer = service.create(lambda: None)
        assert service.armed_count == 0  # created, never started
        timer.start(1.0 * host.unit)
        timer.start(2.0 * host.unit)  # restart: still one armed timer
        assert service.armed_count == 1
        timer.stop()
        timer.stop()
        assert service.armed_count == 0
        assert not service._armed

    def test_crash_disarms_a_timer_restarted_after_it_fired(self, host):
        node = SimNode(0, Vec2(0.0, 0.0), host.scheduler, host.medium)
        fired = []
        timer = node.timers.after(host.unit, lambda: fired.append(1))
        host.run(1.5)
        assert fired == [1]
        assert node.timers.armed_count == 0  # dropped when it expired
        timer.start(host.unit)  # the fired handle re-registers itself
        assert node.timers.armed_count == 1
        node.crash()
        assert not timer.armed
        assert node.timers.armed_count == 0
        host.run(3.5)
        assert fired == [1]


class TestTimerServiceOnWallClock(TestTimerService):
    """The same lifecycle cases, hosted the way ``repro rt`` hosts them."""

    Host = WallHost
