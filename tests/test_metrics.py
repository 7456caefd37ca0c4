"""Tests for the metrics layer."""

import math

import pytest

from repro.errors import AnalysisError
from repro.failure.injection import FailureInjector
from repro.metrics.collectors import collect_message_counts
from repro.metrics.properties import detection_latency, evaluate_properties
from repro.experiments.repeat import summarize
from repro.topology.placement import cluster_disk_placement

from tests.fds_helpers import deploy


class TestPropertyReport:
    def test_clean_run(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, _layout, _tracer, _network = deploy(placement)
        deployment.run_executions(2)
        report = evaluate_properties(deployment)
        assert report.is_accurate and report.is_complete
        assert report.mean_completeness == 1.0
        assert report.crashed_count == 0

    def test_crash_scores(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, layout, _tracer, network = deploy(placement)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[0].ordinary_members)[0]
        injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(2)
        report = evaluate_properties(deployment)
        assert report.completeness == {victim: 1.0}
        assert report.crashed_count == 1
        assert report.operational_count == 10

    def test_detection_latency(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, layout, tracer, network = deploy(placement)
        injector = FailureInjector(network, deployment.config)
        victim = sorted(layout.clusters[0].ordinary_members)[0]
        event = injector.crash_before_execution(victim, execution=1)
        deployment.run_executions(2)
        latencies = detection_latency(tracer, {victim: event.time})
        assert latencies[victim] is not None
        assert 0 < latencies[victim] < deployment.config.phi

    def test_latency_none_when_never_detected(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        _deployment, _layout, tracer, _network = deploy(placement)
        assert detection_latency(tracer, {5: 1.0}) == {5: None}


class TestCollectors:
    def test_message_counts(self, rng):
        placement = cluster_disk_placement(10, 100.0, rng)
        deployment, _layout, _tracer, _network = deploy(placement, p=0.2, seed=1)
        deployment.run_executions(3)
        counts = collect_message_counts(deployment)
        assert counts.transmissions > 0
        assert 0.1 < counts.loss_rate < 0.3


class TestSummarize:
    def test_statistics(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.std == pytest.approx(1.1180339887)
        # Sample SD (1.2910) over sqrt(4).
        assert s.stderr == pytest.approx(0.6454972244)

    def test_single_sample_has_no_stderr(self):
        assert math.isnan(summarize([3.0]).stderr)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            summarize([])
