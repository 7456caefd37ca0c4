"""Tests for the event queue."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.sim.events import Event, EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        q.push(3.0, lambda: fired.append("c"))
        while q:
            q.pop().callback()
        assert fired == ["a", "b", "c"]

    def test_same_time_orders_by_priority_then_insertion(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append("later"), priority=1)
        q.push(1.0, lambda: fired.append("first"), priority=0)
        q.push(1.0, lambda: fired.append("second"), priority=0)
        while q:
            q.pop().callback()
        assert fired == ["first", "second", "later"]

    def test_len_counts_active_only(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        q.cancel(e1)
        assert len(q) == 1

    def test_cancelled_events_skipped_on_pop(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None, label="first")
        q.push(2.0, lambda: None, label="second")
        q.cancel(e1)
        assert q.pop().label == "second"

    def test_double_cancel_is_safe(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            EventQueue().pop()

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        e = q.push(5.0, lambda: None)
        assert q.peek_time() == 5.0
        q.cancel(e)
        assert q.peek_time() is None

    def test_nan_time_rejected(self):
        with pytest.raises(SchedulingError):
            EventQueue().push(float("nan"), lambda: None)

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.clear()
        assert not q

    def test_event_repr_and_active(self):
        e = Event(time=1.0, priority=0, sequence=0, callback=lambda: None)
        assert e.active
        e.cancel()
        assert not e.active


def batch(queue, times, targets, fired, tag="b", **kwargs):
    """Park one batch whose entries append ``(tag, target)`` to ``fired``."""
    queue.push_batch(
        np.array(times, dtype=np.float64),
        np.array(targets, dtype=np.int64),
        lambda target: fired.append((tag, target)),
        **kwargs,
    )


def drain(queue):
    while queue:
        queue.pop().callback()


class TestDeliveryLane:
    def test_batch_fires_in_time_then_array_order(self):
        q = EventQueue()
        fired = []
        batch(q, [3.0, 1.0, 2.0, 1.0], [30, 10, 20, 11], fired)
        drain(q)
        assert fired == [("b", 10), ("b", 11), ("b", 20), ("b", 30)]

    def test_batches_and_events_share_one_sequence_order(self):
        # Equal time, default priority: scheduling order decides, whichever
        # store the entry sits in.
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append("e0"))
        batch(q, [1.0, 1.0], [1, 2], fired)
        q.push(1.0, lambda: fired.append("e1"))
        batch(q, [1.0], [3], fired, tag="c")
        drain(q)
        assert fired == ["e0", ("b", 1), ("b", 2), "e1", ("c", 3)]

    def test_priority_orders_events_around_same_time_lane_entries(self):
        q = EventQueue()
        fired = []
        batch(q, [1.0], [1], fired)
        q.push(1.0, lambda: fired.append("late"), priority=1)
        q.push(1.0, lambda: fired.append("early"), priority=-1)
        drain(q)
        assert fired == ["early", ("b", 1), "late"]

    def test_len_bool_count_parked_and_lane_entries(self):
        q = EventQueue()
        assert not q and len(q) == 0
        batch(q, [1.0, 2.0, 3.0], [1, 2, 3], [])
        assert q and len(q) == 3  # parked, not merged yet
        event = q.push(5.0, lambda: None)
        assert len(q) == 4
        q.pop()  # merges, consumes one lane entry
        assert len(q) == 3
        batch(q, [4.0], [4], [])  # parked beside a live lane
        assert len(q) == 4
        q.cancel(event)
        assert len(q) == 3
        drain(q)
        assert not q and len(q) == 0

    def test_peek_time_sees_parked_batches(self):
        q = EventQueue()
        q.push(5.0, lambda: None)
        batch(q, [7.0, 2.0], [1, 2], [])
        assert q.peek_time() == 2.0

    def test_popped_lane_entry_is_an_event(self):
        q = EventQueue()
        q.push(0.5, lambda: None)
        fired = []
        batch(q, [1.0], [9], fired)
        q.pop()
        event = q.pop()
        assert (event.time, event.priority, event.sequence) == (1.0, 0, 1)
        event.callback()
        assert fired == [("b", 9)]

    def test_clear_drops_heap_lane_and_parked(self):
        q = EventQueue()
        fired = []
        q.push(9.0, lambda: None)
        batch(q, [1.0, 2.0], [1, 2], fired)
        q.pop()  # merge: one lane entry left
        batch(q, [3.0], [3], fired)  # and one parked
        q.clear()
        assert not q and len(q) == 0 and q.peek_time() is None
        with pytest.raises(SchedulingError):
            q.pop()
        batch(q, [1.0], [7], fired)  # still usable afterwards
        drain(q)
        assert fired == [("b", 7)]

    def test_empty_batch_is_a_no_op(self):
        q = EventQueue()
        batch(q, [], [], [])
        assert not q and q.peek_time() is None

    def test_nan_time_in_batch_rejected(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            batch(q, [1.0, float("nan"), 2.0], [1, 2, 3], [])
        assert not q

    def test_batch_time_before_clock_rejected(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            batch(q, [3.0, 0.5], [1, 2], [], not_before=1.0)
        assert not q
        batch(q, [3.0, 1.0], [1, 2], [], not_before=1.0)  # == clock is fine
        assert len(q) == 2

    def test_mismatched_batch_lengths_rejected(self):
        with pytest.raises(SchedulingError):
            batch(EventQueue(), [1.0, 2.0], [1], [])
