"""Completeness and accuracy scoring against ground truth.

The paper's target properties (Section 4.1), made measurable:

- **Completeness**: "every node failure will be reported to every
  operational node."  For each crashed node, the fraction of operational,
  clustered nodes whose failure knowledge includes it.  (A node partitioned
  from the network is not "operational" by the paper's definition and is
  excluded.)
- **Accuracy**: "no operational node will be suspected by other
  operational nodes."  Every (suspector, suspected) pair where the
  suspected node is in fact operational is a violation.

The scorer reads protocol state (each node's
:class:`~repro.fds.reports.ReportHistory`) and ground truth from the
network -- exactly the vantage point the paper's analysis takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fds.service import FdsDeployment
from repro.sim.trace import Tracer
from repro.fds import events as ev
from repro.types import NodeId, SimTime


@dataclass(frozen=True)
class PropertyReport:
    """Scored completeness/accuracy of one run."""

    #: crashed node -> fraction of operational clustered nodes that know.
    completeness: Dict[NodeId, float]
    #: (suspector, suspected-but-operational) pairs.
    accuracy_violations: Tuple[Tuple[NodeId, NodeId], ...]
    #: crashed nodes some operational node does NOT know about.
    incomplete_failures: Tuple[NodeId, ...]
    operational_count: int
    crashed_count: int

    @property
    def mean_completeness(self) -> float:
        """Average completeness over all crashed nodes (1.0 if none)."""
        if not self.completeness:
            return 1.0
        return sum(self.completeness.values()) / len(self.completeness)

    @property
    def is_complete(self) -> bool:
        return not self.incomplete_failures

    @property
    def is_accurate(self) -> bool:
        return not self.accuracy_violations


@dataclass(frozen=True)
class LivenessView:
    """Ground-truth liveness at the end of a run without a simulator.

    The array engine and the rt runtime have no
    :class:`~repro.sim.network.Network`; this is the part of one the
    scorers and oracles read: ``operational_ids()``, ``crashed_ids()``,
    ``len()`` and the clock ``sim.now`` (the view is its own ``sim``).
    """

    operational: Tuple[NodeId, ...]
    crashed: Tuple[NodeId, ...]
    now: SimTime

    @property
    def sim(self) -> "LivenessView":
        return self

    def operational_ids(self) -> Tuple[NodeId, ...]:
        return self.operational

    def crashed_ids(self) -> Tuple[NodeId, ...]:
        return self.crashed

    def __len__(self) -> int:
        return len(self.operational) + len(self.crashed)


def _observer_ids(deployment: FdsDeployment) -> List[NodeId]:
    """Operational nodes that belong to some cluster (paper's scope)."""
    return [
        nid
        for nid in deployment.network.operational_ids()
        if deployment.layout.is_clustered(nid)
    ]


def completeness_of(deployment: FdsDeployment, failure: NodeId) -> float:
    """Fraction of operational clustered nodes aware of ``failure``."""
    observers = _observer_ids(deployment)
    if not observers:
        return 1.0
    aware = sum(
        1 for nid in observers if failure in deployment.protocols[nid].history
    )
    return aware / len(observers)


def accuracy_violations(
    deployment: FdsDeployment,
) -> Tuple[Tuple[NodeId, NodeId], ...]:
    """All (suspector, operational-suspected) pairs, sorted."""
    operational = set(deployment.network.operational_ids())
    violations: List[Tuple[NodeId, NodeId]] = []
    for nid in sorted(operational):
        protocol = deployment.protocols[nid]
        for suspected in sorted(protocol.history.known):
            if suspected in operational:
                violations.append((nid, suspected))
    return tuple(violations)


def evaluate_properties(deployment: FdsDeployment) -> PropertyReport:
    """Score a finished run."""
    observers = _observer_ids(deployment)
    crashed = deployment.network.crashed_ids()
    completeness: Dict[NodeId, float] = {}
    incomplete: List[NodeId] = []
    for failure in crashed:
        frac = completeness_of(deployment, failure)
        completeness[failure] = frac
        if frac < 1.0:
            incomplete.append(failure)
    return PropertyReport(
        completeness=completeness,
        accuracy_violations=accuracy_violations(deployment),
        incomplete_failures=tuple(incomplete),
        operational_count=len(observers),
        crashed_count=len(crashed),
    )


def detection_latency(
    tracer: Optional[Tracer],
    crash_times: Dict[NodeId, SimTime],
    spool: Optional[Path] = None,
) -> Dict[NodeId, Optional[SimTime]]:
    """Seconds from each crash to its *first* detection event (None if never).

    Reads the detections from a tracer with full in-memory records, else
    from the ``spool`` file the run left behind (a closed spooling
    tracer's file, the runtime's merged spool).  With neither -- a
    NullTracer, a spooler still open -- every entry is ``None``; the
    latencies are then recovered post-hoc by ``repro trace latency``.
    """
    iter_kind = getattr(tracer, "iter_kind", None)
    if iter_kind is not None:
        detections = iter_kind(ev.DETECTION)
    elif spool is not None:
        from repro.obs.spool import iter_spool

        detections = (r for r in iter_spool(spool) if r.kind == ev.DETECTION)
    else:
        return {nid: None for nid in crash_times}
    first_detection: Dict[NodeId, SimTime] = {}
    for record in detections:
        target = NodeId(int(record.detail["target"]))
        if target not in first_detection:
            first_detection[target] = record.time
    return {
        nid: (first_detection[nid] - t if nid in first_detection else None)
        for nid, t in crash_times.items()
    }
