"""The simulation engine: a clock plus an event queue.

Design notes
------------
The engine is deliberately minimal -- ``schedule`` / ``run_until`` / ``run``
-- because every protocol in this library is round-based and needs nothing
fancier.  Determinism rules:

- time never goes backwards; scheduling strictly in the past raises;
- same-time events fire in (priority, insertion) order;
- all randomness is drawn from generators owned by components, never by the
  engine itself.
"""

from __future__ import annotations

from math import inf
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from repro.errors import SchedulingError, SimulationError
from repro.obs.profiler import NULL_PROFILER, PHASE_SIM_HEAP, PhaseProfiler
from repro.sim.events import DEFAULT_PRIORITY, BatchCallback, Event, EventQueue
from repro.types import SimTime


class Simulator:
    """A deterministic discrete-event simulator.

    Example::

        sim = Simulator()
        sim.schedule_at(1.0, lambda: print("hello at t=1"))
        sim.run()
    """

    def __init__(
        self,
        start_time: SimTime = 0.0,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        #: Current simulated time in seconds.  A plain attribute, written
        #: by the run loop only: every delivered copy and timer reads it,
        #: and a property would cost each read a Python frame.
        self.now: SimTime = start_time
        self._queue = EventQueue()
        self._running = False
        self._processed = 0
        #: Phase profiler consulted by the engine and every component
        #: holding this simulator (the medium, the FDS rounds).  The
        #: disabled default costs one attribute load per hot call.
        self.profiler: PhaseProfiler = (
            profiler if profiler is not None else NULL_PROFILER
        )

    @property
    def pending_events(self) -> int:
        """Number of active events waiting to fire."""
        return len(self._queue)

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    def schedule_at(
        self,
        time: SimTime,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time``.

        Scheduling exactly at ``now`` is allowed (the event fires within the
        current instant, after already-queued same-time events of equal
        priority); scheduling in the past raises :class:`SchedulingError`.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        return self._queue.push(time, callback, priority=priority, label=label)

    def schedule_in(
        self,
        delay: SimTime,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(
            self.now + delay, callback, priority=priority, label=label
        )

    def schedule_batch(
        self,
        times: np.ndarray,
        targets: np.ndarray,
        callback: BatchCallback,
    ) -> None:
        """Schedule ``callback(targets[i])`` at absolute ``times[i]``, all ``i``.

        One call for a whole fan-out (the radio medium schedules every
        surviving copy of a transmission this way).  Firing order is
        exactly that of one :meth:`schedule_at` per entry, in array
        order, at default priority -- but the entries cannot be
        cancelled and cost no per-entry heap event (see
        :mod:`repro.sim.events`, "delivery lane").  Any time in the past
        raises :class:`SchedulingError`.
        """
        self._queue.push_batch(times, targets, callback, not_before=self.now)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event; idempotent."""
        self._queue.cancel(event)

    def step(self) -> bool:
        """Execute the single next event.

        Returns ``False`` when the queue is empty (nothing was run).
        """
        self._guard_reentry()
        try:
            return self._advance(inf, 1) == 1
        finally:
            self._running = False

    def run_until(self, end_time: SimTime) -> None:
        """Run all events with ``time <= end_time``; clock ends at ``end_time``.

        The clock is advanced to ``end_time`` even if the queue drains early,
        so periodic services can keep scheduling relative to a known time.
        """
        if end_time < self.now:
            raise SchedulingError(
                f"end_time {end_time} is before current time {self.now}"
            )
        self._guard_reentry()
        try:
            self._advance(end_time, None)
        finally:
            self._running = False
        self.now = end_time

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue is empty (or ``max_events`` is hit).

        ``max_events`` guards against unintentionally unbounded simulations
        (e.g. a periodic service with no stop condition).
        """
        self._guard_reentry()
        try:
            self._advance(inf, max_events)
            if self._queue:
                raise SimulationError(
                    f"run() exceeded max_events={max_events}; a periodic "
                    "service may be rescheduling forever -- use run_until()"
                )
        finally:
            self._running = False

    def _advance(self, end_time: SimTime, budget: Optional[int]) -> int:
        """Fire events in order while ``time <= end_time``, at most ``budget``.

        The one loop behind :meth:`step`, :meth:`run` and
        :meth:`run_until`; returns the number of events fired.  Heap
        events fire one per pass.  Lane entries fire in a run: after
        each callback -- which may have transmitted (parking a batch),
        armed or cancelled timers, or crashed a node -- the next lane
        entry fires directly only if it still precedes the heap top and
        every parked entry and is within ``end_time``; otherwise the
        outer pass decides again.
        """
        queue = self._queue
        heap = queue.heap
        profiler = self.profiler
        profiling = profiler.enabled
        fired = 0
        while fired != budget:
            if profiling:
                # Event-queue churn: choosing and removing the next
                # entry (lazy cancellation skips, lane merges), so
                # callback work is charged to its own phase.
                t0 = perf_counter()
            lane = queue.next_is_lane()
            if lane is None:
                break
            if not lane:
                if heap[0][0] > end_time:
                    break
                time, _priority, _sequence, callback, _event = queue.pop_heap()
                if profiling:
                    profiler.add(PHASE_SIM_HEAP, t0)
                self.now = time
                self._processed += 1
                fired += 1
                callback()
                continue
            times = queue.lane_time
            sequences = queue.lane_sequence
            targets = queue.lane_target
            callbacks = queue.lane_callback
            pos = queue.lane_pos
            time = times[pos]
            if time > end_time:
                break
            while True:
                queue.lane_pos = pos + 1
                if profiling:
                    profiler.add(PHASE_SIM_HEAP, t0)
                self.now = time
                self._processed += 1
                fired += 1
                callbacks[pos](targets[pos])
                pos += 1
                if profiling:
                    t0 = perf_counter()
                if fired == budget or pos >= len(times):
                    break
                time = times[pos]
                if time > end_time or queue.parked_min <= time:
                    break
                # Heap entries are (time, priority, sequence, ...) tuples;
                # the full key is built only when the top is not later.
                if heap:
                    top = heap[0]
                    if top[0] <= time and top < (
                        time, DEFAULT_PRIORITY, sequences[pos]
                    ):
                        break
        return fired

    def _guard_reentry(self) -> None:
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
