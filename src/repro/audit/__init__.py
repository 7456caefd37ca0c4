"""Runtime verification: audit recorded traces against protocol invariants,
and soak-test the whole stack with differential conformance runs."""

from repro.audit.differential import (
    Violation,
    check_spec,
    probe_forwarder_conformance,
    random_spec,
    repro_snippet,
    shrink_spec,
    trace_fingerprint,
)
from repro.audit.invariants import (
    AuditFinding,
    AuditStatus,
    audit_crash_silence,
    audit_detection_timing,
    audit_forwarder_conformance,
    audit_refutation_soundness,
    audit_round_structure,
    run_all_audits,
    run_audit_statuses,
)

from repro.audit.realnet import (
    check_realnet,
    realnet_spec,
    run_realnet_suite,
)

from repro.audit.soak import (
    SoakOptions,
    SoakResult,
    SoakViolation,
    run_soak,
    soak_iteration,
)

__all__ = [
    "check_realnet",
    "realnet_spec",
    "run_realnet_suite",
    "AuditFinding",
    "AuditStatus",
    "SoakOptions",
    "SoakResult",
    "SoakViolation",
    "Violation",
    "check_spec",
    "probe_forwarder_conformance",
    "random_spec",
    "repro_snippet",
    "run_soak",
    "shrink_spec",
    "soak_iteration",
    "trace_fingerprint",
    "audit_crash_silence",
    "audit_detection_timing",
    "audit_forwarder_conformance",
    "audit_refutation_soundness",
    "audit_round_structure",
    "run_all_audits",
    "run_audit_statuses",
]
