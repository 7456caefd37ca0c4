"""Tests that each ablation shows the effect it exists to show.

These run the real protocol with reduced sizes; thresholds are generous so
the tests assert *direction*, not magnitude.
"""

import functools

from repro.experiments.ablations import (
    AblationResult,
    AblationRow,
    ablation_bgw_count,
    ablation_dch,
    ablation_digest,
    ablation_implicit_ack,
    ablation_loss_model,
    ablation_peer_forwarding,
)
from repro.experiments.scenarios import (
    ValidationResult,
    single_cluster_validation,
)


@functools.cache
def _run(ablation, **kwargs) -> AblationResult:
    """One ablation run, shared by the direction tests and the pins."""
    return ablation(**kwargs)


class TestDigestAblation:
    def test_digests_reduce_false_detections(self):
        result = _run(ablation_digest, n=30, p=0.3, executions=25, seed=1)
        with_rate = result.metric("with-digests", "rate_per_member_execution")
        without_rate = result.metric(
            "without-digests", "rate_per_member_execution"
        )
        # Without R-2 the rate is ~p (heartbeat-only timeout); with R-2 it
        # collapses by orders of magnitude.
        assert without_rate > 0.15
        assert with_rate < without_rate / 10


class TestPeerForwardingAblation:
    def test_peer_forwarding_reduces_missed_updates(self):
        result = _run(ablation_peer_forwarding, n=30, p=0.3, executions=25, seed=1)
        with_rate = result.metric(
            "with-peer-forwarding", "rate_per_member_execution"
        )
        without_rate = result.metric(
            "without-peer-forwarding", "rate_per_member_execution"
        )
        # Without forwarding a member misses the update w.p. ~p.
        assert 0.15 < without_rate < 0.45
        assert with_rate < without_rate / 5


class TestDchAblation:
    def test_dch_keeps_cluster_alive(self):
        result = _run(ablation_dch, n=25, p=0.1, executions=6, seed=3)
        assert result.metric("with-dch", "aware_of_ch_failure") > 0.9
        assert result.metric("with-dch", "served_in_last_execution") > 0.9
        assert result.metric("without-dch", "aware_of_ch_failure") == 0.0
        assert result.metric("without-dch", "served_in_last_execution") == 0.0


class TestBoundaryAblations:
    def test_bgw_backups_improve_crossing(self):
        result = _run(ablation_bgw_count, p=0.45, trials=6, seed=2)
        none = result.metric("backups=0", "mean_cross_boundary_knowledge")
        two = result.metric("backups=2", "mean_cross_boundary_knowledge")
        assert two >= none
        # More forwarders also means more transmissions when losses bite.
        assert result.metric("backups=2", "mean_reports_sent") >= result.metric(
            "backups=0", "mean_reports_sent"
        )

    def test_implicit_ack_improves_crossing(self):
        result = _run(ablation_implicit_ack, p=0.45, trials=6, seed=2)
        with_ack = result.metric(
            "with-implicit-ack", "mean_cross_boundary_knowledge"
        )
        without_ack = result.metric(
            "without-implicit-ack", "mean_cross_boundary_knowledge"
        )
        assert with_ack >= without_ack


def _rows(name, *rows):
    return AblationResult(name, tuple(AblationRow(*row) for row in rows))


#: Every ablation at the arguments of the direction tests above and of
#: the ``repro claims`` rows, and the protocol validation at the seeds
#: the tests use -- exact values, so any change to the run assembly
#: that moves one draw shows here.
PINNED_ABLATIONS = (
    (ablation_digest, dict(n=30, p=0.3, executions=25, seed=1), _rows(
        "digest-round",
        ("with-digests", {"false_detections": 0.0,
                          "rate_per_member_execution": 0.0}),
        ("without-digests", {"false_detections": 147.0,
                             "rate_per_member_execution":
                             0.20275862068965517}))),
    (ablation_digest, dict(n=40, p=0.3, executions=40, seed=0), _rows(
        "digest-round",
        ("with-digests", {"false_detections": 0.0,
                          "rate_per_member_execution": 0.0}),
        ("without-digests", {"false_detections": 355.0,
                             "rate_per_member_execution":
                             0.22756410256410256}))),
    (ablation_peer_forwarding, dict(n=30, p=0.3, executions=25, seed=1),
     _rows(
        "peer-forwarding",
        ("with-peer-forwarding", {"missed_updates": 3.0,
                                  "rate_per_member_execution":
                                  0.004137931034482759}),
        ("without-peer-forwarding", {"missed_updates": 230.0,
                                     "rate_per_member_execution":
                                     0.31724137931034485}))),
    (ablation_peer_forwarding, dict(n=40, p=0.3, executions=40, seed=0),
     _rows(
        "peer-forwarding",
        ("with-peer-forwarding", {"missed_updates": 0.0,
                                  "rate_per_member_execution": 0.0}),
        ("without-peer-forwarding", {"missed_updates": 472.0,
                                     "rate_per_member_execution":
                                     0.30256410256410254}))),
    (ablation_dch, dict(n=25, p=0.1, executions=6, seed=3), _rows(
        "dch-takeover",
        ("with-dch", {"aware_of_ch_failure": 1.0,
                      "served_in_last_execution": 1.0}),
        ("without-dch", {"aware_of_ch_failure": 0.0,
                         "served_in_last_execution": 0.0}))),
    (ablation_dch, dict(n=30, p=0.15, executions=6, seed=0), _rows(
        "dch-takeover",
        ("with-dch", {"aware_of_ch_failure": 1.0,
                      "served_in_last_execution": 1.0}),
        ("without-dch", {"aware_of_ch_failure": 0.0,
                         "served_in_last_execution": 0.0}))),
    (ablation_bgw_count, dict(p=0.45, trials=6, seed=2), _rows(
        "bgw-count",
        ("backups=0", {"mean_cross_boundary_knowledge": 0.42582972582972584,
                       "mean_reports_sent": 9.666666666666666}),
        ("backups=1", {"mean_cross_boundary_knowledge": 0.721111111111111,
                       "mean_reports_sent": 13.5}),
        ("backups=2", {"mean_cross_boundary_knowledge": 0.7072222222222223,
                       "mean_reports_sent": 13.833333333333334}))),
    (ablation_bgw_count, dict(p=0.45, trials=8, seed=0), _rows(
        "bgw-count",
        ("backups=0", {"mean_cross_boundary_knowledge": 0.4789502164502164,
                       "mean_reports_sent": 4.25}),
        ("backups=1", {"mean_cross_boundary_knowledge": 0.8043181818181818,
                       "mean_reports_sent": 4.5}),
        ("backups=2", {"mean_cross_boundary_knowledge": 0.9,
                       "mean_reports_sent": 4.875}))),
    (ablation_implicit_ack, dict(p=0.45, trials=6, seed=2), _rows(
        "implicit-ack",
        ("with-implicit-ack", {"mean_cross_boundary_knowledge": 1.0,
                               "mean_reports_sent": 22.166666666666668}),
        ("without-implicit-ack", {"mean_cross_boundary_knowledge":
                                  0.42582972582972584,
                                  "mean_reports_sent": 9.666666666666666}))),
    (ablation_implicit_ack, dict(p=0.45, trials=8, seed=0), _rows(
        "implicit-ack",
        ("with-implicit-ack", {"mean_cross_boundary_knowledge": 1.0,
                               "mean_reports_sent": 6.25}),
        ("without-implicit-ack", {"mean_cross_boundary_knowledge":
                                  0.4789502164502164,
                                  "mean_reports_sent": 4.25}))),
    (ablation_loss_model, dict(), _rows(
        "loss-model",
        ("iid p=0.2", {"false_detections": 0.0, "crash_completeness": 1.0,
                       "residual_violations": 0.0}),
        ("gilbert-elliott mean=0.20", {"false_detections": 0.0,
                                       "crash_completeness": 1.0,
                                       "residual_violations": 0.0}))),
)

PINNED_VALIDATIONS = (
    (dict(n=40, p=0.5, executions=120, seed=2), ValidationResult(
        n=40, p=0.5, executions=120, watched_member=39, false_detections=0,
        incompleteness_events=6,
        analytic_false_detection=0.005015932801961874,
        analytic_incompleteness=0.07447214823691965,
        accuracy_violations_final=0)),
    (dict(n=30, p=0.4, executions=40, seed=5), ValidationResult(
        n=30, p=0.4, executions=40, watched_member=29, false_detections=0,
        incompleteness_events=0,
        analytic_false_detection=0.0022872534832007623,
        analytic_incompleteness=0.03381207384259668,
        accuracy_violations_final=0)),
)


class TestPinnedOutputs:
    def test_ablations_and_validation_equal_their_pinned_values(self):
        for ablation, kwargs, expected in PINNED_ABLATIONS:
            assert _run(ablation, **kwargs) == expected, (ablation, kwargs)
        for kwargs, expected in PINNED_VALIDATIONS:
            assert single_cluster_validation(**kwargs) == expected, kwargs
