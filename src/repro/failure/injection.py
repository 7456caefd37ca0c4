"""Crash injection honoring the paper's timing assumption.

Section 2.2 assumes "a node will not fail during an FDS execution": if a
node heartbeats at an epoch, it survives the execution window.  The
injector therefore validates that every crash instant falls *outside* the
execution windows implied by the FDS configuration, and provides
:meth:`FailureInjector.align_to_gap` to snap an arbitrary desired time to
the nearest legal instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

from repro.errors import ConfigurationError
from repro.fds.config import FdsConfig
from repro.sim.network import Network
from repro.types import NodeId, SimTime


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """A scheduled fail-stop crash."""

    node_id: NodeId
    time: SimTime


class FailureInjector:
    """Schedules fail-stop crashes on a network."""

    def __init__(
        self,
        network: Network,
        config: FdsConfig,
        fds_start: SimTime = 0.0,
    ) -> None:
        self.network = network
        self.config = config
        self.fds_start = fds_start
        self.scheduled: List[CrashEvent] = []

    # ------------------------------------------------------------------
    def _window_of(self, time: SimTime) -> float:
        """Offset of ``time`` within its heartbeat interval."""
        return (time - self.fds_start) % self.config.phi

    def in_execution_window(self, time: SimTime) -> bool:
        """Whether ``time`` falls inside an FDS execution window."""
        if time < self.fds_start:
            return False
        return self._window_of(time) < self.config.execution_duration()

    def align_to_gap(self, time: SimTime) -> SimTime:
        """The earliest instant >= ``time`` outside any execution window."""
        if not self.in_execution_window(time):
            return time
        k = math.floor((time - self.fds_start) / self.config.phi)
        return self.fds_start + k * self.config.phi + self.config.execution_duration()

    # ------------------------------------------------------------------
    def schedule_crash(self, node_id: NodeId, time: SimTime) -> CrashEvent:
        """Schedule a fail-stop crash of ``node_id`` at ``time``."""
        if time < self.network.sim.now:
            raise ConfigurationError(
                f"crash time {time} is in the simulator's past"
            )
        if self.in_execution_window(time):
            raise ConfigurationError(
                f"crash at t={time} falls inside an FDS execution window; "
                "the paper assumes nodes do not fail mid-execution -- use "
                "align_to_gap()"
            )
        event = CrashEvent(node_id=node_id, time=time)
        self.scheduled.append(event)
        node = self.network.node(node_id)
        self.network.sim.schedule_at(time, node.crash, label="failure.crash")
        return event

    def schedule_crashes(self, events: Iterable[CrashEvent]) -> None:
        """Schedule a batch of crash events."""
        for event in events:
            self.schedule_crash(event.node_id, event.time)

    def crash_before_execution(self, node_id: NodeId, execution: int) -> CrashEvent:
        """Crash ``node_id`` in the gap right before execution ``execution``.

        The crash lands one tenth of an interval before the epoch, which is
        after the previous execution's window for any sane configuration.
        """
        if execution < 1:
            # There is no gap before execution 0 unless fds_start > 0.
            time = max(self.network.sim.now, self.fds_start - 0.1 * self.config.phi)
            if time >= self.fds_start:
                raise ConfigurationError(
                    "cannot crash before execution 0 when the FDS starts at "
                    "the simulation origin; start the FDS later or crash "
                    "before a later execution"
                )
        else:
            epoch = self.fds_start + execution * self.config.phi
            time = epoch - 0.1 * self.config.phi
            if self.in_execution_window(time):
                time = self.align_to_gap(time)
        return self.schedule_crash(node_id, time)
