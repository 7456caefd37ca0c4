"""Whole-simulation determinism: identical seeds replay bit-exactly.

Replayability is a design rule of the library (README): any run -- message
losses, delivery timing, protocol decisions, scored properties -- is a
pure function of its seed.  These tests run full scenarios twice and
compare everything observable.
"""

from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.experiments.scenarios import single_cluster_validation
from tests.scalar_medium import ScalarRadioMedium, scalar_medium_installed


def fingerprint(result):
    """Everything observable about a scenario run, hashable-comparable."""
    histories = {
        int(nid): tuple(sorted(map(int, p.history.known)))
        for nid, p in sorted(result.deployment.protocols.items())
    }
    trace = tuple(
        (round(r.time, 9), r.kind, r.node) for r in result.tracer.records
    )
    return (
        result.messages,
        result.properties.completeness,
        result.properties.accuracy_violations,
        histories,
        trace,
    )


class TestDeterminism:
    def test_identical_seeds_identical_everything(self):
        config = ScenarioConfig(
            cluster_count=3,
            members_per_cluster=15,
            loss_probability=0.2,
            crash_count=2,
            executions=4,
            seed=99,
        )
        a = fingerprint(run_scenario(config))
        b = fingerprint(run_scenario(config))
        assert a == b

    def test_vectorized_and_scalar_paths_identical(self):
        # The batched-RNG transmit path must replay the scalar reference
        # loop bit-exactly: same losses, same delivery times, same trace.
        config = ScenarioConfig(
            cluster_count=3,
            members_per_cluster=15,
            loss_probability=0.2,
            crash_count=2,
            executions=4,
            seed=99,
        )
        a = fingerprint(run_scenario(config))
        with scalar_medium_installed():
            scalar = run_scenario(config)
        assert isinstance(scalar.network.medium, ScalarRadioMedium)
        assert a == fingerprint(scalar)

    def test_different_seeds_differ(self):
        base = ScenarioConfig(
            cluster_count=3,
            members_per_cluster=15,
            loss_probability=0.2,
            crash_count=2,
            executions=4,
            seed=99,
        )
        from dataclasses import replace

        a = fingerprint(run_scenario(base))
        b = fingerprint(run_scenario(replace(base, seed=100)))
        assert a != b

    def test_formation_protocol_deterministic(self):
        config = ScenarioConfig(
            cluster_count=2,
            members_per_cluster=15,
            loss_probability=0.15,
            crash_count=1,
            executions=3,
            seed=7,
            formation="protocol",
        )
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.layout.heads == b.layout.heads
        assert {h: c.members for h, c in a.layout.clusters.items()} == {
            h: c.members for h, c in b.layout.clusters.items()
        }
        assert fingerprint(a) == fingerprint(b)

    def test_validation_runs_replay(self):
        a = single_cluster_validation(n=30, p=0.4, executions=40, seed=5)
        b = single_cluster_validation(n=30, p=0.4, executions=40, seed=5)
        assert a.false_detections == b.false_detections
        assert a.incompleteness_events == b.incompleteness_events
