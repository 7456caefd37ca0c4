"""The paper's two detection rules, as pure masked reductions.

Keeping the rules free of protocol plumbing makes the paper's soundness
argument directly testable:

- *Failure detection rule* (Section 4.2): a node v is determined to have
  failed iff (1) the CH receives neither v's heartbeat in fds.R-1 nor the
  digest from v in fds.R-2, AND (2) none of the digests the CH receives
  reflect a member's awareness of the heartbeat of v.

- *CH-failure detection rule*: the (highest-ranked) DCH judges the CH
  failed iff (1) the DCH receives neither the CH's heartbeat in fds.R-1
  nor the CH's digest in fds.R-2, (2) none of the digests the DCH receives
  reflect awareness of the CH's heartbeat, AND (3) the DCH does not
  receive the health status update from the CH in fds.R-3.

Under the fail-stop model with no message creation/alteration, a *crashed*
node can produce none of the three kinds of evidence, so the rules never
miss a real failure ("the above rule is sufficient to guarantee that no
failed cluster members will go undetected") -- the property-based tests
state this as an invariant.

Each rule is written once, element-wise over boolean arrays of any
common shape: the round-level array engine
(:mod:`repro.sim.array_engine`) evaluates every monitored node of every
cluster in one reduction, and :class:`~repro.fds.service.FdsProtocol`
(the event engine and the UDP runtime) evaluates one authority's rows.
"""

from __future__ import annotations

import numpy as np


def evidence_mask(
    heartbeat: np.ndarray,
    digest_from: np.ndarray,
    witnessed: np.ndarray,
    use_digests: bool = True,
) -> np.ndarray:
    """Whether the authority observed any evidence of each node's liveness.

    Element ``[...]`` is True iff the authority saw a direct heartbeat,
    a digest *from* the node, or (when ``use_digests``) a digest
    witnessing the node's heartbeat.  ``use_digests=False`` (the R-2
    ablation) drops the witness term only: a digest *from* the node
    still proves it alive, though with R-2 off none is ever sent.
    """
    evidence = heartbeat | digest_from
    if use_digests:
        evidence = evidence | witnessed
    return evidence


def failure_rule_mask(
    expected: np.ndarray, evidence: np.ndarray
) -> np.ndarray:
    """The CH's failure detection rule.

    ``expected`` marks the members the authority still believes
    operational; the result marks the newly detected failures.
    """
    return expected & ~evidence


def ch_failure_rule_mask(
    ch_evidence: np.ndarray, update_received: np.ndarray
) -> np.ndarray:
    """The DCH's CH-failure detection rule (one lane per cluster).

    True where the acting DCH saw neither evidence of the CH nor the
    CH's R-3 health status update.
    """
    return ~ch_evidence & ~update_received
