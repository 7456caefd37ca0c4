"""Tests for the multi-seed repetition harness."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.repeat import repeat_scenario
from repro.experiments.runner import ScenarioConfig


@pytest.fixture(scope="module")
def repeated():
    config = ScenarioConfig(
        cluster_count=2,
        members_per_cluster=12,
        loss_probability=0.1,
        crash_count=1,
        executions=3,
    )
    return repeat_scenario(config, seeds=[1, 2, 3])


class TestRepeat:
    def test_aggregates_all_metrics(self, repeated):
        assert repeated.metrics["mean_completeness"].count == 3
        assert "transmissions" in repeated.metrics

    def test_completeness_across_seeds(self, repeated):
        assert repeated.mean("mean_completeness") == 1.0
        assert repeated.worst("mean_completeness") == 1.0

    def test_accuracy_across_seeds(self, repeated):
        assert repeated.metrics["accuracy_violations"].maximum == 0.0

    def test_loss_rate_tracks_configuration(self, repeated):
        assert repeated.mean("observed_loss_rate") == pytest.approx(0.1, abs=0.02)

    def test_validation(self):
        config = ScenarioConfig(cluster_count=2, members_per_cluster=5)
        with pytest.raises(ExperimentError):
            repeat_scenario(config, seeds=[])
        with pytest.raises(ExperimentError):
            repeat_scenario(config, seeds=[1, 1])

    def test_unknown_metric(self, repeated):
        with pytest.raises(ExperimentError):
            repeated.mean("nope")
