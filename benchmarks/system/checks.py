"""Seed-independent output checks, one function per kind of op.

Every check returns a list of failure messages (empty = pass) and holds
for *any* workload seed: the invariants below come from the protocol
(node counts, the faultload size, the detection-latency anchor) and from
the determinism contract (same seed, same summary), never from values
observed on one particular seed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Callable, List, Mapping, Optional, Sequence


def digest(summary: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON of an op summary -- two commits
    produce the same digest iff they compute the same answer."""
    canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def detection_anchor(phi: float, thop: float) -> float:
    """The paper's detection latency: a crash 0.6*phi into an execution
    window is announced by the next execution's R-3, 2*Thop after its
    epoch."""
    return 0.4 * phi + 2.0 * thop


def check_scenario(
    summary: Mapping[str, float],
    *,
    nodes: int,
    crashes: int,
    min_completeness: Optional[float],
    accurate: bool,
) -> List[str]:
    """A simulated scenario's summary (event or array engine).

    ``nodes`` is ``clusters * (members + 1)``.  ``min_completeness`` is
    ``None`` and ``accurate`` False under protocol formation with bursty
    loss (see :func:`check_clustered_crashes`).
    """
    failures = []
    if summary["nodes"] != nodes:
        failures.append(f"nodes {summary['nodes']:.0f} != {nodes}")
    if summary["crashes"] != crashes:
        failures.append(f"crashes {summary['crashes']:.0f} != {crashes}")
    if (
        min_completeness is not None
        and summary["mean_completeness"] < min_completeness
    ):
        failures.append(
            f"completeness {summary['mean_completeness']:.6f} < {min_completeness}"
        )
    if accurate and summary["accuracy_violations"] != 0:
        failures.append(
            f"{summary['accuracy_violations']:.0f} accuracy violation(s)"
        )
    return failures


def check_sim_latency(
    latencies: Sequence[float], crashes: int, anchor: float
) -> List[str]:
    """Simulated time is exact: every crash is detected, none before the
    anchor, and the median sits on it."""
    failures = []
    if len(latencies) != crashes:
        failures.append(f"{len(latencies)} of {crashes} crash(es) detected")
    if any(latency < anchor - 1e-9 for latency in latencies):
        failures.append("a detection precedes the 0.4*phi + 2*Thop anchor")
    if latencies:
        ratio = statistics.median(latencies) / anchor
        if abs(ratio - 1.0) > 1e-9:
            failures.append(f"latency_over_anchor {ratio:.6f} != 1.0")
    return failures


def check_clustered_crashes(
    completeness: Mapping[Any, float],
    is_clustered: Callable[[Any], bool],
    latencies: Sequence[float],
    anchor: float,
    min_completeness: float,
) -> List[str]:
    """Protocol formation under Gilbert bursts: the guarantee covers
    crashed nodes that formation clustered -- each is known to at least
    ``min_completeness`` of the observers -- and no detection precedes
    the anchor."""
    failures = [
        f"crash of clustered node {node}: completeness {share:.4f} "
        f"< {min_completeness}"
        for node, share in completeness.items()
        if is_clustered(node) and share < min_completeness
    ]
    if not latencies:
        failures.append("no crash detected")
    if any(latency < anchor - 1e-9 for latency in latencies):
        failures.append("a detection precedes the 0.4*phi + 2*Thop anchor")
    return failures


def check_rt(
    summary: Mapping[str, float], *, nodes: int, crashes: int
) -> List[str]:
    """A real-UDP run.  Only what wall-clock timing cannot change is
    checked per op: this VM stalls for tens of milliseconds about once a
    minute, a stalled round loses its heartbeats, and the protocol then
    (correctly, given what it saw) detects live nodes -- so verdicts of
    one op are reported through the run's median ``completeness`` and
    ``latency_over_anchor`` instead of failing the op."""
    failures = []
    if summary["nodes"] != nodes:
        failures.append(f"nodes {summary['nodes']:.0f} != {nodes}")
    if summary["crashes"] != crashes:
        failures.append(f"crashes {summary['crashes']:.0f} != {crashes}")
    if summary["codec_errors"] != 0:
        failures.append(f"{summary['codec_errors']:.0f} codec error(s)")
    return failures


def check_campaign(cold: Any, warm: Any, replications: int) -> List[str]:
    """Cold executes everything, warm executes nothing, results agree."""
    failures = []
    if not cold.complete or cold.executed != replications:
        failures.append(
            f"cold run {cold.status}: executed {cold.executed} of {replications}"
        )
    if (
        not warm.complete
        or warm.cache_hits != replications
        or warm.executed != 0
    ):
        failures.append(
            f"warm run {warm.status}: {warm.cache_hits} hit(s), "
            f"{warm.executed} executed"
        )
    if cold.merged != warm.merged:
        failures.append("merged result differs between cold and warm run")
    return failures


def check_pipeline(
    statuses: Mapping[str, int], summary_body: bytes, expected_summary: bytes
) -> List[str]:
    """Every dashboard GET answered 200 and ``/api/summary`` is byte for
    byte what the ``repro trace summarize --json`` reduction renders."""
    failures = [
        f"GET {url} -> {status}"
        for url, status in statuses.items()
        if status != 200
    ]
    if summary_body != expected_summary:
        failures.append("/api/summary differs from the offline reduction")
    return failures
