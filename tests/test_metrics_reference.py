"""The one scorer against the scalar pair loops it replaced.

:func:`repro.metrics.properties.evaluate_properties` packs a run into
the knowledge matrix :func:`repro.metrics.properties.score_knowledge`
reads; ``tests/properties_reference.py`` scores the same run one node
and one pair at a time.  Reports must be equal, ``completeness`` key
order included, on event runs with oracle and protocol formation and
loss, on a field whose NIDs do not start at 0, and on rt runs.  The
kernel's own edge cases are pinned on hand-built matrices.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.state import ClusterLayout
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.failure.injection import FailureInjector
from repro.metrics.properties import evaluate_properties, score_knowledge
from repro.rt.runtime import RtScenario
from repro.topology.placement import uniform_rect_placement

from tests.fds_helpers import deploy
from tests.properties_reference import reference_properties


def assert_same_report(deployment):
    report = evaluate_properties(deployment)
    expected = reference_properties(deployment)
    assert report == expected
    assert list(report.completeness) == list(expected.completeness)
    return report


FIELD_RUNS = [
    dict(cluster_count=4, members_per_cluster=20, formation=formation,
         loss_probability=p, seed=seed)
    for formation, p, seed in itertools.product(
        ("oracle", "protocol"), (0.0, 0.2, 0.5), range(6)
    )
] + [
    dict(cluster_count=2, members_per_cluster=25, loss_probability=p,
         seed=seed)
    for p, seed in itertools.product((0.3, 0.5), range(8))
]


@pytest.fixture(scope="module")
def field_reports():
    """(run, report, reference report) for every run of the sweep
    (~14 s in all)."""
    reports = []
    for kwargs in FIELD_RUNS:
        deployment = run_scenario(ScenarioConfig(**kwargs)).deployment
        reports.append((
            kwargs,
            evaluate_properties(deployment),
            reference_properties(deployment),
        ))
    return reports


def test_event_runs_score_as_the_reference(field_reports):
    assert len(field_reports) == 52
    for kwargs, report, expected in field_reports:
        assert report == expected, kwargs
        assert list(report.completeness) == list(expected.completeness)


def test_sweep_exercises_every_branch(field_reports):
    """The sweep is only a check if it holds false suspicions, partial
    completeness and stragglers formation left unclustered."""
    reports = [expected for _kwargs, _report, expected in field_reports]
    assert sum(len(r.accuracy_violations) for r in reports) > 100
    assert any(r.incomplete_failures for r in reports)
    assert any(
        r.operational_count + r.crashed_count
        < kwargs["cluster_count"] * (kwargs["members_per_cluster"] + 1)
        for kwargs, _report, r in field_reports
    )


def test_offset_nids_score_as_the_reference():
    """NIDs from 1000 up, the layout a ``ClusterLayout`` view."""
    placement = uniform_rect_placement(
        90, 350.0, 350.0, np.random.default_rng(3), first_id=1000
    )
    deployment, layout, _tracer, network = deploy(placement, p=0.4, seed=5)
    assert isinstance(layout, ClusterLayout)
    injector = FailureInjector(network, deployment.config)
    members = sorted(
        nid for c in layout.clusters.values() for nid in c.ordinary_members
    )
    for i, victim in enumerate(members[::30]):
        injector.crash_before_execution(victim, execution=1 + i % 2)
    deployment.run_executions(4)
    report = assert_same_report(deployment)
    assert min(report.completeness) >= 1000
    assert report.crashed_count == len(members[::30])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rt_runs_score_as_the_reference(seed):
    result = run_scenario(RtScenario(seed=seed, loss_p=0.3))
    protocols = {
        nid: node.protocols[0] for nid, node in result.nodes.items()
    }
    deployment = SimpleNamespace(
        network=result.network, layout=result.layout, protocols=protocols
    )
    assert assert_same_report(deployment) == result.properties


class TestScoreKnowledge:
    """Rows are NIDs 10, 20, 30, 40; 30 crashed, 40 unclustered."""

    NODES = [10, 20, 30, 40]
    OPERATIONAL = np.array([True, True, False, True])
    CLUSTERED = np.array([True, True, True, False])

    def score(self, known, targets, operational=OPERATIONAL):
        return score_knowledge(
            self.NODES, np.array(known, dtype=bool), targets, operational,
            self.CLUSTERED,
        )

    def test_observers_are_operational_clustered_rows(self):
        # Only 10 knows of 30; the unclustered 40 is no observer.
        report = self.score([[1], [0], [0], [1]], [30])
        assert report.operational_count == 2
        assert report.completeness == {30: 0.5}
        assert report.incomplete_failures == (30,)

    def test_accuracy_pairs_sorted_by_suspector_then_suspected(self):
        # Columns out of order; 40 suspects though unclustered.
        known = [[1, 1, 0], [1, 0, 1], [0, 0, 0], [1, 1, 0]]
        report = self.score(known, [40, 20, 10])
        assert report.accuracy_violations == (
            (10, 20), (10, 40), (20, 10), (20, 40), (40, 20), (40, 40),
        )

    def test_crashed_node_without_column(self):
        assert self.score([[]] * 4, []).completeness == {30: 0.0}
        nobody = np.array([False, False, False, True])
        report = self.score([[]] * 4, [], operational=nobody)
        assert report.completeness == {10: 1.0, 20: 1.0, 30: 1.0}
        assert report.operational_count == 0
