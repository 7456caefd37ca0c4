"""Wall-clock attribution of simulation time to named phases.

The profiler answers "where did the run spend its time" without a
sampling profiler's noise: the engine and the protocol stack bracket
their own hot sections (radio fan-out, the FDS rounds, inter-cluster
forwarding, event-heap churn) and charge the elapsed wall clock to a
phase name.

The cost discipline mirrors :class:`~repro.sim.trace.Tracer.enabled`:
every instrumented call site does ::

    profiler = sim.profiler
    if profiler.enabled:
        t0 = perf_counter()
        ...work...
        profiler.add(PHASE, t0)
    else:
        ...work...

so a disabled profiler (the default :data:`NULL_PROFILER`) costs one
attribute load and one branch per hot call, and an enabled one costs two
clock reads plus one dict update (``benchmarks/system`` reports the
enabled phases as its ``prog.*`` metrics).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Tuple

#: Canonical phase names.  Free-form strings are accepted too; these are
#: the ones the built-in instrumentation charges.
PHASE_RADIO_TRANSMIT = "radio.transmit"
PHASE_RADIO_DELIVER = "radio.deliver"
PHASE_FDS_R1 = "fds.r1"
PHASE_FDS_R2 = "fds.r2"
PHASE_FDS_R3 = "fds.r3"
PHASE_FDS_R3_END = "fds.r3end"
PHASE_FDS_INTERCLUSTER = "fds.intercluster"
PHASE_SIM_HEAP = "sim.heap"
# Round-level array engine sections (repro.sim.array_engine): layout
# construction, the whole per-execution loop, and its four inner stages
# (delivery-mask draws, detection/refutation rules, update/DCH sync,
# inter-cluster fixpoint), plus final property scoring.
PHASE_ARRAY_LAYOUT = "array.layout"
PHASE_ARRAY_ROUNDS = "array.rounds"
PHASE_ARRAY_DRAWS = "array.draws"
PHASE_ARRAY_RULES = "array.rules"
PHASE_ARRAY_SYNC = "array.sync"
PHASE_ARRAY_INTERCLUSTER = "array.intercluster"
PHASE_ARRAY_SCORE = "array.score"


class PhaseProfiler:
    """Accumulates (seconds, calls) per phase name."""

    enabled: bool = True

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._started = perf_counter()

    def add(self, phase: str, started: float) -> None:
        """Charge the time since ``started`` (a ``perf_counter`` stamp)."""
        elapsed = perf_counter() - started
        self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed
        self.calls[phase] = self.calls.get(phase, 0) + 1

    def add_seconds(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Charge an externally measured duration (merging sub-profiles)."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + calls

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self._started = perf_counter()

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def shares(self) -> List[Tuple[str, float, float, int]]:
        """``(phase, seconds, share_of_profiled_time, calls)`` rows,
        largest first.  Shares are of *profiled* time: phases nest (a
        delivery triggers receive processing), so they are a breakdown,
        not a partition of wall clock.
        """
        total = self.total_seconds
        rows = [
            (phase, secs, (secs / total if total else 0.0), self.calls[phase])
            for phase, secs in self.seconds.items()
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows


class NullProfiler(PhaseProfiler):
    """The disabled default: hot paths skip all bookkeeping."""

    enabled = False

    def add(self, phase: str, started: float) -> None:  # pragma: no cover
        pass

    def add_seconds(self, phase: str, seconds: float, calls: int = 1) -> None:
        pass


#: Shared disabled instance; safe because it never mutates state.
NULL_PROFILER = NullProfiler()
