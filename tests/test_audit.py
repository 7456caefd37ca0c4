"""Tests for the trace auditor: clean runs audit clean; injected
violations are caught."""

import pytest

from repro.audit.invariants import (
    AuditFinding,
    audit_crash_silence,
    audit_detection_timing,
    audit_forwarder_conformance,
    audit_refutation_soundness,
    audit_round_structure,
    round_structure_applicable,
    run_all_audits,
    run_audit_statuses,
)
from repro.failure.injection import FailureInjector
from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.sim.trace import RecordingTracer
from repro.topology.generators import corridor_field

from tests.fds_helpers import deploy


@pytest.fixture(scope="module")
def audited_run():
    import numpy as np

    rng = np.random.default_rng(12345)
    placement = corridor_field(2, 20, 100.0, rng)
    deployment, layout, tracer, network = deploy(placement, p=0.2, seed=6)
    injector = FailureInjector(network, deployment.config)
    victim = sorted(layout.clusters[0].ordinary_members)[2]
    event = injector.crash_before_execution(victim, execution=1)
    deployment.run_executions(4)
    return deployment, tracer, {victim: event.time}


class TestCleanRunsAuditClean:
    def test_full_audit_empty(self, audited_run):
        deployment, tracer, crash_times = audited_run
        findings = run_all_audits(
            tracer, deployment.config, crash_times=crash_times
        )
        assert findings == []

    def test_each_audit_individually(self, audited_run):
        deployment, tracer, crash_times = audited_run
        assert audit_crash_silence(tracer, crash_times) == []
        assert audit_detection_timing(tracer, deployment.config) == []
        assert audit_refutation_soundness(tracer) == []
        assert audit_round_structure(tracer, deployment.config) == []


class TestViolationsCaught:
    def test_crash_silence_violation(self):
        tracer = RecordingTracer()
        tracer.record(5.0, "radio.tx", node=3)
        findings = audit_crash_silence(tracer, {3: 2.0})
        assert len(findings) == 1
        assert findings[0].audit == "crash-silence"
        assert findings[0].node == 3

    def test_crash_silence_allows_pre_crash_tx(self):
        tracer = RecordingTracer()
        tracer.record(1.0, "radio.tx", node=3)
        assert audit_crash_silence(tracer, {3: 2.0}) == []

    def test_detection_timing_violation(self):
        tracer = RecordingTracer()
        config = FdsConfig(phi=10.0, thop=0.5)
        # Legal: offset 1.0 (R-3) within some interval.
        tracer.record(21.0, ev.DETECTION, node=0, target=5, execution=2)
        # Illegal: offset 4.2.
        tracer.record(34.2, ev.DETECTION, node=0, target=6, execution=3)
        findings = audit_detection_timing(tracer, config)
        assert len(findings) == 1
        assert "4.2" in findings[0].description

    def test_refutation_without_detection(self):
        tracer = RecordingTracer()
        tracer.record(3.0, ev.REFUTATION, node=1, target=9)
        findings = audit_refutation_soundness(tracer)
        assert len(findings) == 1

    def test_refutation_before_detection(self):
        tracer = RecordingTracer()
        tracer.record(1.0, ev.REFUTATION, node=1, target=9)
        tracer.record(2.0, ev.DETECTION, node=0, target=9, execution=0)
        assert len(audit_refutation_soundness(tracer)) == 1

    def test_refutation_after_detection_clean(self):
        tracer = RecordingTracer()
        tracer.record(1.0, ev.DETECTION, node=0, target=9, execution=0)
        tracer.record(2.0, ev.REFUTATION, node=1, target=9)
        assert audit_refutation_soundness(tracer) == []

    def test_round_structure_violation(self):
        tracer = RecordingTracer()
        config = FdsConfig(phi=30.0, thop=0.5)
        tracer.record(29.0, "radio.tx", node=4)  # deep in the silent tail
        findings = audit_round_structure(tracer, config)
        assert len(findings) == 1

    def test_round_structure_skipped_when_whole_interval_active(self):
        tracer = RecordingTracer()
        config = FdsConfig(phi=4.0, thop=0.5)  # allowance exceeds phi
        tracer.record(3.9, "radio.tx", node=4)
        # No findings -- but that is "not checked", not "clean", and the
        # status report must say so rather than silently return all-clear.
        assert audit_round_structure(tracer, config) == []
        assert not round_structure_applicable(config)
        status = next(
            s
            for s in run_audit_statuses(tracer, config)
            if s.audit == "round-structure"
        )
        assert not status.applicable
        assert not status.clean
        assert "whole interval" in status.note

    def test_round_structure_abstains_for_digest_free_forwarding(self):
        """Digest-free configurations legitimately chain forwarding
        generations (relay -> fresh gateway duty -> forwarded report ->
        relay), so no single-ladder window short of phi is sound and the
        audit must abstain instead of flagging conformant cascades
        (found by soak spec seed 1342382291)."""
        tracer = RecordingTracer()
        config = FdsConfig(phi=20.0, thop=0.5, use_digests=False)
        tracer.record(18.4, "radio.tx", node=4)  # past the one-ladder window
        assert audit_round_structure(tracer, config) == []
        assert not round_structure_applicable(config)
        status = next(
            s
            for s in run_audit_statuses(tracer, config)
            if s.audit == "round-structure"
        )
        assert not status.applicable
        assert "digest-free" in status.note


class TestAuditStatuses:
    def test_statuses_cover_every_audit(self):
        tracer = RecordingTracer()
        config = FdsConfig(phi=20.0, thop=0.5)
        statuses = run_audit_statuses(tracer, config, crash_times={3: 1.0})
        assert {s.audit for s in statuses} == {
            "crash-silence",
            "detection-timing",
            "refutation-soundness",
            "forwarder-conformance",
            "round-structure",
        }
        assert all(s.applicable for s in statuses)

    def test_no_crash_schedule_reported_not_applicable(self):
        tracer = RecordingTracer()
        config = FdsConfig(phi=20.0, thop=0.5)
        status = next(
            s
            for s in run_audit_statuses(tracer, config)
            if s.audit == "crash-silence"
        )
        assert not status.applicable
        assert "no crash schedule" in status.note

    def test_run_all_audits_concatenates_status_findings(self):
        tracer = RecordingTracer()
        tracer.record(5.0, "radio.tx", node=3)
        config = FdsConfig(phi=20.0, thop=0.5)
        findings = run_all_audits(tracer, config, crash_times={3: 2.0})
        assert [f.audit for f in findings] == ["crash-silence"]


class TestForwarderConformanceAudit:
    def _config(self):
        return FdsConfig(phi=20.0, thop=0.5)

    def test_dropped_coverage_flagged(self):
        config = self._config()
        tracer = RecordingTracer()
        tracer.record(0.0, ev.INTER_DUTY, node=1, dest=9, origin=5, rank=0,
                      backup_count=1, failures=[7])
        tracer.record(0.0, ev.REPORT_FORWARDED, node=1, peer=9, origin=5,
                      failures=[7])
        tracer.record(0.0, ev.INTER_ARM, node=1, dest=9, origin=5, delay=2.0,
                      failures=[7], standby=False)
        # Re-arm that forgets failure 7 with retries still in budget.
        tracer.record(1.0, ev.INTER_ARM, node=1, dest=9, origin=5, delay=2.0,
                      failures=[8], standby=False)
        findings = audit_forwarder_conformance(tracer, config)
        assert len(findings) == 1
        assert "dropped retry coverage" in findings[0].description

    def test_wrong_ladder_wait_flagged(self):
        config = self._config()
        tracer = RecordingTracer()
        tracer.record(0.0, ev.INTER_DUTY, node=1, dest=9, origin=5, rank=0,
                      backup_count=1, failures=[7])
        tracer.record(0.0, ev.INTER_ARM, node=1, dest=9, origin=5,
                      delay=config.post_forward_wait(3), failures=[7],
                      standby=False)
        findings = audit_forwarder_conformance(tracer, config)
        assert len(findings) == 1
        assert "ladder" in findings[0].description

    def test_spurious_origin_rebroadcast_flagged(self):
        config = self._config()
        tracer = RecordingTracer()
        tracer.record(0.0, ev.ORIGIN_WATCH, node=1, failures=[7, 8])
        tracer.record(0.2, ev.ORIGIN_COVERED, node=1, covered=[7])
        tracer.record(0.4, ev.ORIGIN_COVERED, node=1, covered=[8])
        tracer.record(1.0, ev.ORIGIN_REBROADCAST, node=1, pending=[7, 8],
                      retry=1)
        findings = audit_forwarder_conformance(tracer, config)
        assert len(findings) == 1
        assert "already covered" in findings[0].description

    def test_acked_and_exhausted_failures_may_be_dropped(self):
        config = self._config()
        tracer = RecordingTracer()
        max_attempts = config.max_forward_retries + 1
        tracer.record(0.0, ev.INTER_DUTY, node=1, dest=9, origin=5, rank=0,
                      backup_count=1, failures=[6, 7, 8])
        for _ in range(max_attempts):
            tracer.record(0.0, ev.REPORT_FORWARDED, node=1, peer=9, origin=5,
                          failures=[6])
        tracer.record(0.0, ev.INTER_ARM, node=1, dest=9, origin=5, delay=2.0,
                      failures=[6, 7, 8], standby=False)
        tracer.record(0.5, ev.INTER_ACK, node=1, peer=9, covered=[7])
        # 6 exhausted its budget, 7 was acked: dropping both is legal.
        tracer.record(2.0, ev.INTER_ARM, node=1, dest=9, origin=5, delay=2.0,
                      failures=[8], standby=False)
        assert audit_forwarder_conformance(tracer, config) == []
