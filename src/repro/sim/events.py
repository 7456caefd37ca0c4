"""Event and event-queue primitives for the simulator.

Events are totally ordered by ``(time, priority, sequence)``.  The sequence
number is a monotonically increasing tiebreaker, so two events scheduled for
the same instant and priority fire in scheduling order -- this determinism
is what makes whole simulations replayable from a seed.

The queue keeps that one order over two stores:

- the **heap** holds individually scheduled, cancellable events
  (:meth:`EventQueue.push`).  Cancellation is O(1): a cancelled event
  stays in the heap and is skipped on pop ("lazy deletion"), so ``push``
  and ``pop`` are both ``O(log n)``;
- the **delivery lane** holds batches (:meth:`EventQueue.push_batch`):
  many firing times and targets that share one callback, at
  :data:`DEFAULT_PRIORITY`, not cancellable.  A radio transmission heard
  by ~30 neighbours is one batch, and a batch costs no per-copy heap
  entry, tuple or callable -- the lane is four flat parallel lists
  ``(time, sequence, target, callback)`` sorted by ``(time, sequence)``.

Ordering contract: a batch draws its sequence numbers, one per entry in
array order, from the counter ``push`` uses, so the lane entry and the
heap entry a per-entry ``push`` would have made compare identically.
:meth:`EventQueue.next_is_lane` applies ``(time, priority, sequence)``
across the two stores; which store an entry sits in never shows in the
firing order.

When a merge happens: ``push_batch`` only *parks* the batch and lowers
``parked_min``.  :meth:`EventQueue.merge` folds every parked batch into
the lane with one stable numpy sort on time -- the lane's remaining
entries and the parked batches are concatenated in scheduling order, so
equal times keep ascending sequence numbers.  The driver merges only
when a parked entry could be the next event (``parked_min`` <= the
earlier of heap top and lane head).  Protocol rounds start with a burst
of same-time timers that all transmit, so a whole round's batches are
parked before the first delivery is due and fold in with one sort.

The attributes without a leading underscore below (``heap``,
``lane_*``, ``parked_min``) are read by the engine's run loop
(:mod:`repro.sim.engine`), the queue's only driver; nothing else should
touch them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from math import inf
from typing import Callable, Optional

import numpy as np

from repro.errors import SchedulingError
from repro.types import SimTime

#: Default event priority; lower fires first among same-time events.
DEFAULT_PRIORITY = 0

#: Fired for each lane entry with the entry's target.
BatchCallback = Callable[[int], None]


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    The queue orders entries by ``(time, priority, sequence)`` -- the
    ordering lives in the heap's C-compared key tuples, not on the event
    itself, which keeps the hot ``push`` path free of Python-level
    ``__lt__`` dispatch.  The callback never participates in comparisons.
    """

    time: SimTime
    priority: int
    sequence: int
    callback: Callable[[], None]
    cancelled: bool = False
    label: str = ""

    def cancel(self) -> None:
        """Mark this event so the queue skips it; idempotent."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        label = f" {self.label!r}" if self.label else ""
        return f"<Event t={self.time:.6f} prio={self.priority}{label} {state}>"


class EventQueue:
    """Heap of cancellable events plus the batch delivery lane.

    See the module docstring for the ordering contract and the merge
    rule.
    """

    def __init__(self) -> None:
        #: ``(time, priority, sequence, callback, event)`` entries: the
        #: unique sequence number breaks every tie before the
        #: (incomparable) callback is reached, so ``heappush`` orders
        #: entirely through C tuple comparison.
        self.heap: list[
            tuple[SimTime, int, int, Callable[[], None], Event]
        ] = []
        self._next_sequence = 0
        #: Active (non-cancelled) heap entries.
        self._live = 0

        #: The lane: entry ``i`` fires ``lane_callback[i](lane_target[i])``
        #: at ``lane_time[i]``; entries before ``lane_pos`` are consumed.
        self.lane_time: list[SimTime] = []
        self.lane_sequence: list[int] = []
        self.lane_target: list[int] = []
        self.lane_callback: list[BatchCallback] = []
        self.lane_pos = 0

        #: Earliest firing time among parked batches (``inf`` when none).
        self.parked_min: SimTime = inf
        self._parked: list[tuple[np.ndarray, int, np.ndarray, BatchCallback]] = []
        self._parked_entries = 0

    def __len__(self) -> int:
        """Number of *active* entries: heap, lane and parked batches."""
        return (
            self._live
            + len(self.lane_time) - self.lane_pos
            + self._parked_entries
        )

    def __bool__(self) -> bool:
        return len(self) > 0

    def push(
        self,
        time: SimTime,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at ``time``; returns a cancellable handle."""
        if time != time:  # NaN check
            raise SchedulingError("event time is NaN")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = Event(time, priority, sequence, callback, False, label)
        heapq.heappush(self.heap, (time, priority, sequence, callback, event))
        self._live += 1
        return event

    def push_batch(
        self,
        times: np.ndarray,
        targets: np.ndarray,
        callback: BatchCallback,
        not_before: SimTime = -inf,
    ) -> None:
        """Schedule ``callback(targets[i])`` at ``times[i]`` for every ``i``.

        ``times`` is a float64 array and ``targets`` an equally long
        int64 array; the queue keeps both, so the caller must not write
        to them afterwards.  Entries fire at :data:`DEFAULT_PRIORITY`,
        in ``(time, array index)`` order among themselves, and cannot be
        cancelled.  Raises :class:`SchedulingError` if any time is NaN
        or earlier than ``not_before`` (the driver's clock).
        """
        count = len(times)
        if count != len(targets):
            raise SchedulingError(
                f"batch has {count} times for {len(targets)} targets"
            )
        if count == 0:
            return
        earliest = float(times.min())  # NaN if any entry is NaN
        if earliest != earliest:
            raise SchedulingError("event time is NaN")
        if earliest < not_before:
            raise SchedulingError(
                f"cannot schedule at t={earliest} before current time "
                f"t={not_before}"
            )
        self._parked.append((times, self._next_sequence, targets, callback))
        self._next_sequence += count
        self._parked_entries += count
        if earliest < self.parked_min:
            self.parked_min = earliest

    def merge(self) -> None:
        """Fold every parked batch into the lane (one stable sort)."""
        parked = self._parked
        if not parked:
            return
        pos = self.lane_pos
        batch_times, firsts, batch_targets, batch_callbacks = zip(*parked)
        counts = [len(times) for times in batch_times]
        # Remaining lane entries were scheduled before every parked
        # batch, and batches are parked in scheduling order: each
        # column below ascends in sequence, so a stable sort on time
        # alone yields (time, sequence) order.  Rebuilding from
        # ``lane_pos`` on also lets go of the consumed prefix.
        times = np.concatenate(
            [np.array(self.lane_time[pos:], dtype=np.float64), *batch_times]
        )
        sequences = np.concatenate(
            [
                np.array(self.lane_sequence[pos:], dtype=np.int64),
                *(
                    np.arange(first, first + count)
                    for first, count in zip(firsts, counts)
                ),
            ]
        )
        targets = np.concatenate(
            [np.array(self.lane_target[pos:], dtype=np.int64), *batch_targets]
        )
        # Callbacks stay in Python lists: they refer back to their
        # owners (medium -> simulator -> this queue), and the cycle
        # collector cannot see through a numpy object array.
        callbacks = self.lane_callback[pos:]
        for callback, count in zip(batch_callbacks, counts):
            callbacks.extend(repeat(callback, count))
        order = np.argsort(times, kind="stable")
        self.lane_time = times[order].tolist()
        self.lane_sequence = sequences[order].tolist()
        self.lane_target = targets[order].tolist()
        self.lane_callback = list(map(callbacks.__getitem__, order.tolist()))
        self.lane_pos = 0
        parked.clear()
        self._parked_entries = 0
        self.parked_min = inf

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event; safe to call twice."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def next_is_lane(self) -> Optional[bool]:
        """Which store holds the next active entry.

        ``True`` for the lane head, ``False`` for the heap top, ``None``
        when the queue is empty.  Drops cancelled heap tops and merges
        parked batches if one of their entries could be next, so on
        return ``heap[0]`` / ``lane_*[lane_pos]`` *is* the next entry.
        """
        heap = self.heap
        while heap and heap[0][4].cancelled:
            heapq.heappop(heap)
        pos = self.lane_pos
        lane_time = self.lane_time
        if self._parked:
            lane_head = lane_time[pos] if pos < len(lane_time) else inf
            heap_head = heap[0][0] if heap else inf
            if self.parked_min <= min(lane_head, heap_head):
                self.merge()
                pos = 0
                lane_time = self.lane_time
        if pos >= len(lane_time):
            return False if heap else None
        if not heap:
            return True
        # Heap entries are (time, priority, sequence, ...) tuples.
        return (lane_time[pos], DEFAULT_PRIORITY, self.lane_sequence[pos]) < heap[0]

    def pop_heap(
        self,
    ) -> tuple[SimTime, int, int, Callable[[], None], Event]:
        """Remove and return ``heap[0]``, which the caller knows (from
        :meth:`next_is_lane`) to be the next active entry."""
        self._live -= 1
        return heapq.heappop(self.heap)

    def peek_time(self) -> Optional[SimTime]:
        """Time of the next active entry, or ``None`` if empty."""
        lane = self.next_is_lane()
        if lane is None:
            return None
        return self.lane_time[self.lane_pos] if lane else self.heap[0][0]

    def pop(self) -> Event:
        """Remove and return the next active entry as an :class:`Event`.

        A lane entry comes back as a synthetic event whose callback
        fires the batch callback with the entry's target.  Raises
        :class:`SchedulingError` when empty.
        """
        lane = self.next_is_lane()
        if lane is None:
            raise SchedulingError("pop from an empty event queue")
        if not lane:
            return self.pop_heap()[4]
        pos = self.lane_pos
        self.lane_pos = pos + 1
        callback, target = self.lane_callback[pos], self.lane_target[pos]
        return Event(
            self.lane_time[pos],
            DEFAULT_PRIORITY,
            self.lane_sequence[pos],
            lambda: callback(target),
        )

    def clear(self) -> None:
        """Drop every pending entry: heap, lane and parked batches."""
        self.heap.clear()
        self._live = 0
        self.lane_time.clear()
        self.lane_sequence.clear()
        self.lane_target.clear()
        self.lane_callback.clear()
        self.lane_pos = 0
        self._parked.clear()
        self._parked_entries = 0
        self.parked_min = inf
