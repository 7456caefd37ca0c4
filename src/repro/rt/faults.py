"""Wall-clock crash injection for the runtime.

The crash schedule itself is the simulator's
(:func:`repro.failure.faultload.scenario_faultload`, called with the
wall-scaled config): a simulated and a real run of one seeded spec crash
the *same nodes* in the *same executions*, which is what makes the
sim/real differential (:mod:`repro.audit.realnet`) compare like with
like.
"""

from __future__ import annotations

import asyncio

from repro.failure.faultload import Faultload


class CrashDriver:
    """Schedules fail-stop kills on the event loop.

    Each scheduled crash calls back into the runtime
    (``runtime.crash_node``), which fail-stops the :class:`RtNode`,
    cancels its supervisor task, and closes its socket -- the real
    process-death analogue of the simulator's
    :class:`~repro.failure.injection.FailureInjector`.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, runtime) -> None:
        self._loop = loop
        self._runtime = runtime
        self._handles: list = []

    def schedule(self, faultload: Faultload) -> None:
        """Arm one loop timer per crash event (times are epoch-relative)."""
        for event in faultload.events:
            delay = max(0.0, event.time - self._runtime.now)
            self._handles.append(
                self._loop.call_later(
                    delay, self._runtime.crash_node, event.node_id
                )
            )

    def cancel_pending(self) -> None:
        """Disarm crashes that have not fired (shutdown path)."""
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
