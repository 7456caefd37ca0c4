"""Trace audits: check a finished run against protocol invariants.

Tests assert on *outcomes*; audits assert on *behaviour along the way*,
from the recorded trace alone.  Each audit returns the violations it
found (empty list = clean), so they compose into CI gates and can also
triage exploratory runs.

Invariants audited:

- **crash silence** (fail-stop, Section 2.2): a crashed node transmits
  nothing after its crash instant;
- **detection timing**: detection events occur only at R-3 / end-of-R-3
  instants of some execution (the rules run nowhere else);
- **refutation soundness**: every refutation names a node that was
  actually suspected at that moment (no spurious repairs);
- **round structure**: per (node, execution), R-1 heartbeat activity
  precedes R-2 digest activity precedes the R-3 update -- checked via
  event times against the configured round offsets;
- **forwarder conformance**: inter-cluster forwarding events replayed
  against a reference model of Section 4.3's retry-coverage, BGW-ladder,
  and origin-watch rules (see :func:`audit_forwarder_conformance`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.obs.verdicts import VerdictTimeline
from repro.sim.trace import RecordingTracer
from repro.types import NodeId, SimTime


@dataclass(frozen=True)
class AuditFinding:
    """One invariant violation discovered in a trace."""

    audit: str
    time: SimTime
    node: Optional[int]
    description: str


@dataclass(frozen=True)
class AuditStatus:
    """Outcome of one audit over a trace.

    ``applicable=False`` means the audit could not judge this run at all
    (e.g. the round-structure check when the configured allowance covers
    the whole heartbeat interval); consumers that treat "no findings" as
    "clean" must distinguish that from "not checked".
    """

    audit: str
    applicable: bool
    findings: Tuple[AuditFinding, ...]
    note: str = ""

    @property
    def clean(self) -> bool:
        """Checked and found nothing (``False`` when not applicable)."""
        return self.applicable and not self.findings


def audit_crash_silence(
    tracer: RecordingTracer,
    crash_times: Mapping[NodeId, SimTime],
) -> List[AuditFinding]:
    """No ``radio.tx`` by a node after its crash instant."""
    findings: List[AuditFinding] = []
    deadline = {int(nid): t for nid, t in crash_times.items()}
    for record in tracer.iter_kind("radio.tx"):
        if record.node in deadline and record.time > deadline[record.node]:
            findings.append(
                AuditFinding(
                    audit="crash-silence",
                    time=record.time,
                    node=record.node,
                    description=(
                        f"node {record.node} transmitted at t={record.time:.3f}"
                        f" after crashing at t={deadline[record.node]:.3f}"
                    ),
                )
            )
    return findings


def audit_detection_timing(
    tracer: RecordingTracer,
    config: FdsConfig,
    fds_start: float = 0.0,
    tolerance: float = 1e-6,
) -> List[AuditFinding]:
    """Detections happen only at R-3 or end-of-R-3 round boundaries."""
    findings: List[AuditFinding] = []
    legal_offsets = (2.0 * config.thop, 3.0 * config.thop)
    for time, node, _target in VerdictTimeline.read(tracer).detections:
        phase = math.fmod(time - fds_start, config.phi)
        if not any(abs(phase - off) <= tolerance for off in legal_offsets):
            findings.append(
                AuditFinding(
                    audit="detection-timing",
                    time=time,
                    node=node,
                    description=(
                        f"detection at interval offset {phase:.4f}, expected "
                        f"one of {legal_offsets}"
                    ),
                )
            )
    return findings


def audit_refutation_soundness(tracer: RecordingTracer) -> List[AuditFinding]:
    """Every refutation of a node follows some detection of it.

    The compact trace does not record when each node applied an update,
    so a node's own suspicion set cannot be rebuilt from it.  The audit
    checks the necessary condition instead: *somebody* announced the
    target failed at or before the moment anyone refutes it.
    """
    unsupported = VerdictTimeline.read(tracer).unsupported_refutations()
    return [
        AuditFinding(
            audit="refutation-soundness",
            time=refutation.time,
            node=refutation.node,
            description=(
                f"refutation of {refutation.target} "
                + ("with no prior detection anywhere" if first is None
                   else "precedes its first detection")
            ),
        )
        for refutation, first in unsupported
    ]


def round_structure_allowance(config: FdsConfig) -> float:
    """The per-interval active window the round-structure audit permits.

    Covers the execution (R-1..R-3 plus the recovery window) and the
    worst-case BGW ladder: ``(max_retries + 1) * (n_max + 1) * 2*Thop``
    with a generous ``n_max`` of 4.
    """
    return (
        config.execution_duration()
        + (config.max_forward_retries + 1) * 5 * config.implicit_ack_window
    )


def round_structure_applicable(config: FdsConfig) -> bool:
    """Whether the round-structure audit can judge runs of this config.

    When the allowance reaches ``phi`` the whole interval is legitimately
    active and the audit has no silent tail to police -- it is *not
    applicable*, which is different from a run auditing clean.

    The audit also abstains from digest-free configurations.  Without
    digest witnesses every lost heartbeat becomes a false detection, and
    the resulting relay / refutation-repair traffic *chains* forwarding
    generations (relay ->
    fresh gateway duty -> forwarded report -> relay ...): each link in
    the chain is individually ladder-conformant (the forwarder audit
    still polices that), but the chain's depth is set by the cluster
    topology and the loss realisation, not by anything in this config,
    so no single-generation window short of ``phi`` is a sound claim
    there.
    """
    if not config.use_digests:
        return False
    return round_structure_allowance(config) < config.phi


def audit_round_structure(
    tracer: RecordingTracer,
    config: FdsConfig,
    fds_start: float = 0.0,
) -> List[AuditFinding]:
    """All radio activity lands inside an execution's active window.

    The FDS (plus its recovery mechanisms) occupies the first
    ``execution_duration + post-forward chatter`` of each interval; a
    transmission in the silent tail indicates a runaway timer.  Returns no
    findings when :func:`round_structure_applicable` is false; callers that
    need to distinguish "clean" from "not checked" should consult
    :func:`run_audit_statuses` instead.
    """
    findings: List[AuditFinding] = []
    allowance = round_structure_allowance(config)
    if not round_structure_applicable(config):
        return findings  # the whole interval is legitimately active
    for record in tracer.iter_kind("radio.tx"):
        if record.time < fds_start:
            continue
        phase = math.fmod(record.time - fds_start, config.phi)
        if phase > allowance + 1e-9:
            findings.append(
                AuditFinding(
                    audit="round-structure",
                    time=record.time,
                    node=record.node,
                    description=(
                        f"transmission at interval offset {phase:.3f}, past "
                        f"the active window ({allowance:.3f})"
                    ),
                )
            )
    return findings


def audit_forwarder_conformance(
    tracer: RecordingTracer,
    config: FdsConfig,
    tolerance: float = 1e-9,
) -> List[AuditFinding]:
    """Replay inter-cluster forwarding events against a reference model.

    The :class:`~repro.fds.intercluster.InterclusterForwarder` traces every
    duty start, timer arm, overheard acknowledgment, and origin-watch step.
    This audit replays those events through an independent model of the
    paper's Section 4.3 rules and flags three classes of divergence:

    - **retry coverage**: a re-armed timer toward a destination must still
      watch every failure the previous timer watched, minus those since
      acknowledged or retry-budget-exhausted (a duty arriving mid-flight
      may *add* failures, never drop them);
    - **retry wait**: a forwarder's armed delay must match the BGW ladder
      of the boundary the duty crossed -- ``rank * 2*Thop`` for standby,
      ``(n + 1) * 2*Thop`` for the post-forward wait, with ``rank``/``n``
      taken from that (destination, origin) duty, not some other boundary;
    - **origin watch**: the originating CH must track overheard forwarder
      coverage cumulatively; a rebroadcast whose pending set disagrees
      with the union of overheard reports is either spurious (everything
      was covered) or mis-accounted.
    """
    findings: List[AuditFinding] = []
    max_attempts = config.max_forward_retries + 1
    # Per-node model state, keyed by the tracing node id.
    duties: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    watched: Dict[Tuple[int, int], Set[int]] = {}
    acked: Dict[Tuple[int, int], Set[int]] = {}
    attempts: Dict[Tuple[int, int, int], int] = {}
    origin_pending: Dict[int, Set[int]] = {}

    def _bad(record, description: str) -> None:
        findings.append(
            AuditFinding(
                audit="forwarder-conformance",
                time=record.time,
                node=record.node,
                description=description,
            )
        )

    for record in tracer.records:
        kind = record.kind
        node = record.node
        detail = record.detail
        if kind == ev.INTER_ACK:
            key = (node, int(detail["peer"]))
            acked.setdefault(key, set()).update(
                int(f) for f in detail["covered"]
            )
        elif kind == ev.INTER_DUTY:
            duties[(node, int(detail["dest"]), int(detail["origin"]))] = (
                int(detail["rank"]),
                int(detail["backup_count"]),
            )
        elif kind == ev.INTER_RENAMED:
            old, new = int(detail["old"]), int(detail["new"])
            for key in [k for k in duties if k[0] == node and old in k[1:]]:
                _node, dest, origin = key
                dest = new if dest == old else dest
                origin = new if origin == old else origin
                duties[(node, dest, origin)] = duties.pop(key)
        elif kind == ev.REPORT_FORWARDED:
            dest = int(detail["peer"])
            for f in detail["failures"]:
                akey = (node, dest, int(f))
                attempts[akey] = attempts.get(akey, 0) + 1
        elif kind == ev.INTER_ARM:
            dest = int(detail["dest"])
            origin = int(detail["origin"])
            armed = {int(f) for f in detail["failures"]}
            prev = watched.get((node, dest), set())
            exhausted = {
                f
                for f in prev
                if attempts.get((node, dest, f), 0) >= max_attempts
            }
            required = prev - acked.get((node, dest), set()) - exhausted
            dropped = required - armed
            if dropped:
                _bad(
                    record,
                    f"re-armed timer toward {dest} dropped retry coverage "
                    f"of still-pending failures {sorted(dropped)}",
                )
            watched[(node, dest)] = armed
            duty = duties.get((node, dest, origin))
            if duty is not None:
                rank, backup_count = duty
                if detail["standby"]:
                    expected = config.bgw_standby(rank)
                else:
                    expected = config.post_forward_wait(backup_count)
                delay = float(detail["delay"])
                if abs(delay - expected) > tolerance:
                    _bad(
                        record,
                        f"armed wait {delay:.3f} toward {dest} (origin "
                        f"{origin}) does not match that boundary's ladder "
                        f"({expected:.3f})",
                    )
        elif kind == ev.INTER_RELEASE:
            watched.pop((node, int(detail["dest"])), None)
        elif kind == ev.ORIGIN_WATCH:
            origin_pending[node] = {int(f) for f in detail["failures"]}
        elif kind == ev.ORIGIN_COVERED:
            origin_pending.get(node, set()).difference_update(
                int(f) for f in detail["covered"]
            )
        elif kind == ev.ORIGIN_REBROADCAST:
            model = origin_pending.get(node, set())
            if not model:
                _bad(
                    record,
                    "origin rebroadcast although overheard forwarder "
                    "reports already covered every watched failure",
                )
            elif {int(f) for f in detail["pending"]} != model:
                _bad(
                    record,
                    f"origin rebroadcast pending {detail['pending']} "
                    f"disagrees with overheard coverage (expected "
                    f"{sorted(model)})",
                )
    return findings


def run_audit_statuses(
    tracer: RecordingTracer,
    config: FdsConfig,
    crash_times: Optional[Mapping[NodeId, SimTime]] = None,
    fds_start: float = 0.0,
) -> List[AuditStatus]:
    """Every audit with its applicability made explicit.

    Unlike :func:`run_all_audits`, a skipped audit shows up as
    ``applicable=False`` with a note saying why, so a conformance gate can
    tell "checked and clean" apart from "silently skipped".
    """
    statuses: List[AuditStatus] = []
    if crash_times:
        statuses.append(
            AuditStatus(
                audit="crash-silence",
                applicable=True,
                findings=tuple(audit_crash_silence(tracer, crash_times)),
            )
        )
    else:
        statuses.append(
            AuditStatus(
                audit="crash-silence",
                applicable=False,
                findings=(),
                note="no crash schedule supplied",
            )
        )
    statuses.append(
        AuditStatus(
            audit="detection-timing",
            applicable=True,
            findings=tuple(audit_detection_timing(tracer, config, fds_start)),
        )
    )
    statuses.append(
        AuditStatus(
            audit="refutation-soundness",
            applicable=True,
            findings=tuple(audit_refutation_soundness(tracer)),
        )
    )
    statuses.append(
        AuditStatus(
            audit="forwarder-conformance",
            applicable=True,
            findings=tuple(audit_forwarder_conformance(tracer, config)),
        )
    )
    if round_structure_applicable(config):
        statuses.append(
            AuditStatus(
                audit="round-structure",
                applicable=True,
                findings=tuple(
                    audit_round_structure(tracer, config, fds_start)
                ),
            )
        )
    else:
        if not config.use_digests:
            note = (
                "digest-free configuration: relay/refutation-repair "
                "traffic legitimately chains forwarding generations "
                "past any single-ladder window"
            )
        else:
            note = (
                f"allowance {round_structure_allowance(config):.3f} >= "
                f"phi {config.phi:.3f}: whole interval legitimately active"
            )
        statuses.append(
            AuditStatus(
                audit="round-structure",
                applicable=False,
                findings=(),
                note=note,
            )
        )
    return statuses


def run_all_audits(
    tracer: RecordingTracer,
    config: FdsConfig,
    crash_times: Optional[Mapping[NodeId, SimTime]] = None,
    fds_start: float = 0.0,
) -> List[AuditFinding]:
    """Every audit; returns the concatenated findings (empty = clean)."""
    findings: List[AuditFinding] = []
    for status in run_audit_statuses(tracer, config, crash_times, fds_start):
        findings.extend(status.findings)
    return findings
