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

One kernel, :func:`score_knowledge`, scores every engine from a
``(node, target)`` knowledge matrix and ground-truth masks -- exactly
the vantage point the paper's analysis takes.  Its adapters only pack
engine state: :func:`evaluate_properties` packs each event/rt node's
:class:`~repro.fds.reports.ReportHistory`, the array engine's
``_score_properties`` hands over its round state's matrix as is.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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


def score_knowledge(
    node_ids: Sequence[int],
    known: np.ndarray,
    target_ids: Sequence[int],
    operational: np.ndarray,
    clustered: np.ndarray,
) -> PropertyReport:
    """Score a finished run from what every node knows -- the one scorer.

    ``known[i, j]`` says whether node ``node_ids[i]`` holds
    ``target_ids[j]`` in its failure history; ``operational`` and
    ``clustered`` are ground truth over the same rows.  Observers are the
    operational clustered rows (the paper's scope).  A crashed node
    scores the fraction of observers that know it: 0.0 when it has no
    column (nobody knows it), 1.0 when there are no observers.
    Completeness keys follow the crashed rows' order.  Accuracy pairs
    scan every operational row, clustered or not, against every
    operational target, sorted by (suspector, suspected).
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    target_ids = np.asarray(target_ids, dtype=np.int64)
    operational = np.asarray(operational, dtype=bool)
    op_rows = np.flatnonzero(operational)
    obs_rows = np.flatnonzero(operational & np.asarray(clustered, dtype=bool))
    crashed = node_ids[~operational].tolist()
    col_of = {t: j for j, t in enumerate(target_ids.tolist())}

    completeness: Dict[NodeId, float] = {}
    incomplete: List[NodeId] = []
    for v in crashed:
        col = col_of.get(v)
        if not obs_rows.size:
            frac = 1.0
        elif col is None:
            frac = 0.0
        else:
            frac = float(known[obs_rows, col].sum()) / float(obs_rows.size)
        completeness[NodeId(v)] = frac
        if frac < 1.0:
            incomplete.append(NodeId(v))

    violations: List[Tuple[NodeId, NodeId]] = []
    op_cols = np.flatnonzero(np.isin(target_ids, node_ids[op_rows]))
    if op_rows.size and op_cols.size:
        rows, cols = np.nonzero(known[np.ix_(op_rows, op_cols)])
        suspector = node_ids[op_rows[rows]]
        suspected = target_ids[op_cols[cols]]
        order = np.lexsort((suspected, suspector))
        violations = list(
            zip(suspector[order].tolist(), suspected[order].tolist())
        )

    return PropertyReport(
        completeness=completeness,
        accuracy_violations=tuple(violations),
        incomplete_failures=tuple(incomplete),
        operational_count=int(obs_rows.size),
        crashed_count=len(crashed),
    )


def evaluate_properties(deployment: FdsDeployment) -> PropertyReport:
    """Score a finished event or rt run: pack each node's failure
    history into the knowledge matrix :func:`score_knowledge` reads."""
    network, layout = deployment.network, deployment.layout
    operational = network.operational_ids()
    node_ids = operational + network.crashed_ids()
    histories = [deployment.protocols[nid].history.known for nid in node_ids]
    target_ids = sorted(set().union(*histories))
    col_of = {t: j for j, t in enumerate(target_ids)}
    rows = [i for i, history in enumerate(histories) for _ in history]
    cols = [col_of[t] for history in histories for t in history]
    known = np.zeros((len(node_ids), len(target_ids)), dtype=bool)
    known[rows, cols] = True
    return score_knowledge(
        node_ids,
        known,
        target_ids,
        np.arange(len(node_ids)) < len(operational),
        np.array([layout.is_clustered(nid) for nid in node_ids], dtype=bool),
    )


def detection_latency(
    tracer: Optional[Tracer],
    crash_times: Dict[NodeId, SimTime],
    spool: Optional[Path] = None,
) -> Dict[NodeId, Optional[SimTime]]:
    """Seconds from each crash to its first detection at or after it
    (None if none).  A false detection before the crash is not the
    crash's detection.

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
        crashed_at = crash_times.get(target)
        if (
            crashed_at is not None
            and record.time >= crashed_at
            and target not in first_detection
        ):
            first_detection[target] = record.time
    return {
        nid: (first_detection[nid] - t if nid in first_detection else None)
        for nid, t in crash_times.items()
    }
