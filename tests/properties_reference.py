"""Scalar reference for completeness and accuracy scoring.

The node-at-a-time pair loops the paper's Section 4.1 reads as, over a
finished deployment (anything with ``network``, ``layout`` and
``protocols``): observers are the operational clustered nodes; a crashed
node's completeness is the share of observers whose history holds it;
every (operational suspector, operational suspected) pair is an
accuracy violation, in sorted order.
:func:`repro.metrics.properties.score_knowledge` computes the same
report with array programs over a knowledge matrix.  The tests hold the
two equal.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.metrics.properties import PropertyReport


def observer_ids(deployment) -> List[int]:
    """Operational nodes that belong to some cluster (paper's scope)."""
    return [
        nid
        for nid in deployment.network.operational_ids()
        if deployment.layout.is_clustered(nid)
    ]


def completeness_of(deployment, failure: int) -> float:
    """Fraction of operational clustered nodes aware of ``failure``."""
    observers = observer_ids(deployment)
    if not observers:
        return 1.0
    aware = sum(
        1 for nid in observers if failure in deployment.protocols[nid].history
    )
    return aware / len(observers)


def accuracy_violations(deployment) -> Tuple[Tuple[int, int], ...]:
    """All (suspector, operational-suspected) pairs, sorted."""
    operational = set(deployment.network.operational_ids())
    violations: List[Tuple[int, int]] = []
    for nid in sorted(operational):
        protocol = deployment.protocols[nid]
        for suspected in sorted(protocol.history.known):
            if suspected in operational:
                violations.append((nid, suspected))
    return tuple(violations)


def reference_properties(deployment) -> PropertyReport:
    """Score a finished run, one node and one pair at a time."""
    observers = observer_ids(deployment)
    crashed = deployment.network.crashed_ids()
    completeness: Dict[int, float] = {}
    incomplete: List[int] = []
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
