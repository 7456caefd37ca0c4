"""Fault loads: declarative collections of crash events.

A :class:`Faultload` separates *what fails when* from the machinery that
injects it, so experiments can log and replay the exact fault scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.failure.injection import CrashEvent, FailureInjector
from repro.fds.config import FdsConfig
from repro.types import NodeId, SimTime


@dataclass(frozen=True)
class Faultload:
    """An ordered, immutable crash schedule."""

    events: Tuple[CrashEvent, ...] = ()

    def __post_init__(self) -> None:
        times = [e.time for e in self.events]
        if sorted(times) != times:
            raise ConfigurationError("faultload events must be time-ordered")
        ids = [e.node_id for e in self.events]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("a node can only crash once (fail-stop)")

    def __len__(self) -> int:
        return len(self.events)

    def node_ids(self) -> Tuple[NodeId, ...]:
        return tuple(e.node_id for e in self.events)

    def inject(self, injector: FailureInjector) -> None:
        """Schedule every event on the given injector."""
        injector.schedule_crashes(self.events)


def make_random_crashes(
    candidates: Sequence[NodeId],
    count: int,
    config: FdsConfig,
    rng: np.random.Generator,
    fds_start: SimTime = 0.0,
    first_execution: int = 1,
    last_execution: int | None = None,
) -> Faultload:
    """``count`` distinct nodes crashing in random inter-execution gaps.

    Each crash is placed in the gap before a uniformly drawn execution in
    ``[first_execution, last_execution]`` (default: first only), at 60% of
    the interval -- safely outside the execution window.
    """
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if count > len(candidates):
        raise ConfigurationError(
            f"cannot crash {count} of {len(candidates)} candidates"
        )
    if first_execution < 1:
        raise ConfigurationError("first_execution must be >= 1")
    last = first_execution if last_execution is None else last_execution
    if last < first_execution:
        raise ConfigurationError("last_execution must be >= first_execution")
    chosen = rng.choice(np.asarray(candidates, dtype=np.int64), size=count, replace=False)
    events = []
    for nid in chosen:
        execution = int(rng.integers(first_execution, last + 1))
        time = config.crash_time(fds_start, execution)
        events.append(CrashEvent(node_id=NodeId(int(nid)), time=time))
    events.sort(key=lambda e: (e.time, e.node_id))
    return Faultload(events=tuple(events))


def scenario_faultload(
    candidates: Sequence[NodeId],
    crash_count: int,
    executions: int,
    fds: FdsConfig,
    rng: np.random.Generator,
    fds_start: SimTime = 0.0,
) -> Faultload:
    """The crash schedule of one scenario run, on every substrate.

    ``candidates`` are the operational non-head nodes in ascending NID
    order and ``rng`` the seed's ``"faultload"`` stream; each crash lands
    before an execution drawn from ``1 .. max(1, executions - 2)``, so it
    can still be detected and reported before the run ends.  The event
    engine, the array engine and the rt runtime all call this, so one
    seed crashes the same nodes in the same executions everywhere --
    only ``fds`` (wall-scaled for rt) and ``fds_start`` move the times.
    """
    return make_random_crashes(
        candidates,
        crash_count,
        fds,
        rng,
        fds_start=fds_start,
        first_execution=1,
        last_execution=max(1, executions - 2),
    )
