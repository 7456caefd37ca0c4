"""Tests for digest construction and report bookkeeping."""

import pytest

from repro.fds.digest import build_digest
from repro.fds.reports import BoundaryLedger, ReportHistory


class TestBuildDigest:
    def test_filters_to_cluster_members(self):
        # Overheard foreign-cluster heartbeats must not leak into the
        # digest (the disks overlap, feature F1).
        digest = build_digest(
            sender=1,
            execution=0,
            heard_heartbeats={2, 3, 99},
            cluster_members={1, 2, 3, 4},
        )
        assert digest.heard == frozenset({2, 3})

    def test_excludes_self(self):
        digest = build_digest(1, 0, {1, 2}, {1, 2})
        assert digest.heard == frozenset({2})

    def test_empty(self):
        assert build_digest(1, 0, set(), {1, 2}).heard == frozenset()


class TestReportHistory:
    def test_add_returns_novel_only(self):
        history = ReportHistory()
        assert history.add(frozenset({1, 2})) == frozenset({1, 2})
        assert history.add(frozenset({2, 3})) == frozenset({3})
        assert history.known == frozenset({1, 2, 3})
        assert len(history) == 3
        assert 2 in history

    def test_refute(self):
        history = ReportHistory()
        history.add(frozenset({1}))
        assert history.refute(1)
        assert 1 not in history
        assert history.refuted_total == 1
        assert not history.refute(1)  # second refute is a no-op

    def test_refuted_node_can_fail_again(self):
        history = ReportHistory()
        history.add(frozenset({1}))
        history.refute(1)
        assert history.add(frozenset({1})) == frozenset({1})


class TestBoundaryLedger:
    def test_pending_shrinks_with_acks(self):
        ledger = BoundaryLedger()
        failures = frozenset({1, 2, 3})
        assert ledger.pending(9, failures) == failures
        ledger.note_ack(9, frozenset({2}))
        assert ledger.pending(9, failures) == frozenset({1, 3})

    def test_acks_are_per_peer(self):
        ledger = BoundaryLedger()
        ledger.note_ack(9, frozenset({1}))
        assert ledger.pending(8, frozenset({1})) == frozenset({1})

    def test_attempt_budget(self):
        ledger = BoundaryLedger()
        failures = frozenset({1})
        ledger.note_attempt(9, failures)
        ledger.note_attempt(9, failures)
        assert ledger.attempts(9, 1) == 2
        assert ledger.within_budget(9, failures, max_attempts=3) == failures
        assert ledger.within_budget(9, failures, max_attempts=2) == frozenset()

    def test_clear_failure_resets_everything(self):
        ledger = BoundaryLedger()
        ledger.note_ack(9, frozenset({1}))
        ledger.note_attempt(9, frozenset({1}))
        ledger.clear_failure(1)
        assert ledger.pending(9, frozenset({1})) == frozenset({1})
        assert ledger.attempts(9, 1) == 0
