"""Restartable timers on top of the event engine.

The FDS leans heavily on timeouts: the fixed round duration ``Thop``
(Section 4.2), the implicit-acknowledgment window ``2*Thop`` (Figure 3), the
ranked backup-gateway standby windows ``k * 2*Thop`` and ``(n+1) * 2*Thop``
(Section 4.3), and the energy-balanced peer-forwarding waiting periods
(Section 4.2).  :class:`Timer` wraps the raw event handle with the start /
stop / restart lifecycle those mechanisms need.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.types import SimTime


class Timer:
    """A one-shot, restartable timeout.

    The callback fires once per ``start`` unless ``stop`` (or a restart)
    intervenes.  Restarting an armed timer cancels the previous deadline --
    exactly the semantics of "set its timer to 2*Thop right after
    forwarding".
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], None],
        label: str = "",
        armed_registry: Optional[Dict["Timer", None]] = None,
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._label = label
        #: The owning service's armed set (a private one for a timer made
        #: without a service): this timer is a key exactly while it is
        #: counting down.
        self._armed_registry = armed_registry if armed_registry is not None else {}
        self._event: Optional[Event] = None
        self._fired_count = 0

    @property
    def armed(self) -> bool:
        """Whether the timer is counting down."""
        return self._event is not None and self._event.active

    @property
    def fired_count(self) -> int:
        """How many times this timer has expired (for tests/metrics)."""
        return self._fired_count

    @property
    def deadline(self) -> Optional[SimTime]:
        """Absolute expiry time, or ``None`` when unarmed."""
        if self.armed:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: SimTime) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"timer delay must be >= 0, got {delay}")
        self.stop()
        self._event = self._sim.schedule_in(delay, self._expire, label=self._label)
        self._armed_registry[self] = None

    def stop(self) -> None:
        """Disarm without firing; idempotent."""
        if self._event is not None:
            self._sim.cancel(self._event)
            self._disarmed()

    def _disarmed(self) -> None:
        self._event = None
        self._armed_registry.pop(self, None)

    def _expire(self) -> None:
        self._disarmed()
        self._fired_count += 1
        self._callback()


class TimerService:
    """A factory that tracks the armed timers among those it created.

    Nodes own one service so that crashing a node can disarm all of its
    outstanding timers in one call (fail-stop nodes must fall silent).
    A timer is tracked only while it counts down -- it registers on
    ``start`` and drops out when it expires or is stopped -- so a long
    run's fired one-shots cost nothing here.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        # A dict for its insertion order: stop_all stays deterministic.
        self._armed: Dict[Timer, None] = {}

    def create(self, callback: Callable[[], None], label: str = "") -> Timer:
        """A new, unarmed timer owned by this service."""
        return Timer(self._sim, callback, label=label, armed_registry=self._armed)

    def after(self, delay: SimTime, callback: Callable[[], None], label: str = "") -> Timer:
        """Convenience: create and immediately start a timer."""
        timer = self.create(callback, label=label)
        timer.start(delay)
        return timer

    def stop_all(self) -> None:
        """Disarm every armed timer created by this service."""
        for timer in list(self._armed):
            timer.stop()

    @property
    def armed_count(self) -> int:
        """Number of timers currently counting down."""
        return len(self._armed)
