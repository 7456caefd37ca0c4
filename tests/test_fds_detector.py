"""Tests for the detection rules (Section 4.2), as boolean masks.

These are the heart of the paper's accuracy argument; every clause of
both rules is exercised separately.  ``detect`` and ``ch_fails`` pack
named evidence sets into the masks' rows the way the protocol does (one
row per node, sorted by NID) and read the flagged lanes back as NIDs.
"""

import numpy as np

from repro.fds.detector import (
    ch_failure_rule_mask,
    evidence_mask,
    failure_rule_mask,
)


def evidence(nodes, heartbeats=(), digests=None, use_digests=True):
    digests = digests or {}
    listed = set().union(*digests.values())

    def row(group):
        return np.array([v in group for v in nodes], dtype=bool)

    return evidence_mask(
        row(set(heartbeats)), row(digests), row(listed), use_digests=use_digests
    )


def detect(expected, heartbeats=(), digests=None, use_digests=True):
    """The CH's failure rule over ``expected``: the set of NIDs it flags."""
    nodes = sorted(expected)
    flagged = failure_rule_mask(
        np.ones(len(nodes), dtype=bool),
        evidence(nodes, heartbeats, digests, use_digests),
    )
    return frozenset(v for v, hit in zip(nodes, flagged) if hit)


def ch_fails(ch, heartbeats=(), digests=None, update_from=None, use_digests=True):
    """The DCH's CH-failure rule for head ``ch``."""
    fires = ch_failure_rule_mask(
        evidence([ch], heartbeats, digests, use_digests),
        np.array([update_from == ch]),
    )
    return bool(fires[0])


class TestEvidenceMask:
    def test_each_clause_is_evidence(self):
        heartbeat = np.array([True, False, False, False])
        digest_from = np.array([False, True, False, False])
        witnessed = np.array([False, False, True, False])
        assert evidence_mask(heartbeat, digest_from, witnessed).tolist() == [
            True, True, True, False,
        ]

    def test_use_digests_false_drops_only_the_witness_clause(self):
        heartbeat = np.array([True, False, False])
        digest_from = np.array([False, True, False])
        witnessed = np.array([False, False, True])
        assert evidence_mask(
            heartbeat, digest_from, witnessed, use_digests=False
        ).tolist() == [True, True, False]

    def test_any_common_shape(self):
        # The array engine evaluates (cluster, member slot) planes.
        heartbeat = np.array([[True, False], [False, False]])
        none = np.zeros((2, 2), dtype=bool)
        witnessed = np.array([[False, False], [False, True]])
        assert evidence_mask(heartbeat, none, witnessed).tolist() == [
            [True, False], [False, True],
        ]


class TestFailureRule:
    def test_silent_node_with_no_witness_detected(self):
        assert detect({5}) == frozenset({5})

    def test_heartbeat_clears_suspicion(self):
        assert detect({5}, heartbeats=[5]) == frozenset()

    def test_own_digest_clears_suspicion(self):
        # Clause 1: the digest *from* v counts even without its heartbeat.
        assert detect({5}, digests={5: []}) == frozenset()

    def test_witness_digest_clears_suspicion(self):
        # Clause 2: any member's digest reflecting v's heartbeat.
        assert detect({5}, digests={7: [5]}) == frozenset()

    def test_multiple_members_partitioned_correctly(self):
        result = detect({4, 5, 6, 7}, heartbeats=[4], digests={9: [5], 6: []})
        assert result == frozenset({7})

    def test_empty_expected_set(self):
        assert detect(set()) == frozenset()

    def test_unexpected_lanes_are_never_flagged(self):
        # Members already known failed are not expected: no verdict.
        expected = np.array([True, False, True])
        no_evidence = np.zeros(3, dtype=bool)
        assert failure_rule_mask(expected, no_evidence).tolist() == [
            True, False, True,
        ]

    def test_digest_clauses_disabled(self):
        # The R-2 ablation: witness digests no longer count...
        assert detect({5}, digests={7: [5]}, use_digests=False) == frozenset({5})
        # ...but the direct heartbeat still does.
        assert detect({5}, heartbeats=[5], use_digests=False) == frozenset()

    def test_digest_from_target_still_counts_when_disabled(self):
        # With R-2 disabled no digests exist at all, but the rule treats a
        # digest *from* the target as first-class evidence regardless,
        # since it proves liveness directly.
        assert detect({5}, digests={5: []}, use_digests=False) == frozenset()


class TestChFailureRule:
    def test_all_conditions_met_detects(self):
        assert ch_fails(0)

    def test_ch_heartbeat_blocks(self):
        assert not ch_fails(0, heartbeats=[0])

    def test_ch_digest_blocks(self):
        assert not ch_fails(0, digests={0: []})

    def test_witness_blocks(self):
        assert not ch_fails(0, digests={3: [0]})

    def test_witness_does_not_block_when_digests_disabled(self):
        assert ch_fails(0, digests={3: [0]}, use_digests=False)

    def test_update_blocks(self):
        # Condition 3: the R-3 update arrived -- the CH is alive.
        assert not ch_fails(0, update_from=0)

    def test_update_from_other_head_does_not_block(self):
        assert ch_fails(0, update_from=9)

    def test_one_lane_per_cluster(self):
        ch_evidence = np.array([False, True, False, False])
        update = np.array([False, False, True, False])
        assert ch_failure_rule_mask(ch_evidence, update).tolist() == [
            True, False, False, True,
        ]


class TestFailStopSoundness:
    def test_crashed_node_always_detected(self):
        # Under fail-stop a crashed node produces no evidence of any kind,
        # so whatever else arrives, the rule must flag it.
        assert detect(
            {9}, heartbeats=[1, 2, 3], digests={1: [2, 3], 2: [1, 3], 3: [1, 2]}
        ) == frozenset({9})

    def test_no_false_detection_with_complete_evidence(self):
        members = set(range(1, 20))
        assert detect(members, heartbeats=members) == frozenset()
