"""Multi-seed repetition of scenarios with aggregate statistics.

One seeded run can get lucky; credible protocol claims need replication.
:func:`repeat_scenario` runs the same scenario under independent seeds and
aggregates each summary metric with mean/min/max and the standard error,
so benches and reports can state e.g. "completeness 1.0 across 20 seeds"
instead of "completeness 1.0 once".

The seeds run serially in-process.  Each run derives all randomness from
its own seed and results are aggregated in seed order, so the durable
pooled twin (:func:`repro.campaign.plans.scenario_repeat_plan` through
:func:`repro.campaign.runner.run_campaign`) is bit-identical to it: that
is how to use more than one core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.metrics.summary import SeriesSummary, summarize
from repro.util.tables import render_table


@dataclass(frozen=True)
class RepeatedResult:
    """Aggregated summaries over the repeated runs."""

    config: ScenarioConfig
    seeds: Tuple[int, ...]
    metrics: Dict[str, SeriesSummary]

    def mean(self, key: str) -> float:
        try:
            return self.metrics[key].mean
        except KeyError:
            raise ExperimentError(f"no metric {key!r} collected") from None

    def worst(self, key: str, lower_is_worse: bool = True) -> float:
        summary = self.metrics[key]
        return summary.minimum if lower_is_worse else summary.maximum

    def as_table(self) -> str:
        rows = [
            [key, s.mean, s.stderr, s.minimum, s.maximum]
            for key, s in sorted(self.metrics.items())
        ]
        return render_table(
            ["metric", "mean", "stderr", "min", "max"],
            rows,
            title=f"{len(self.seeds)} seeds",
        )


def check_seeds(seeds: Sequence[int]) -> Tuple[int, ...]:
    """Validate a replication seed list (non-empty, distinct)."""
    if not seeds:
        raise ExperimentError("seeds must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ExperimentError("seeds must be distinct")
    return tuple(int(s) for s in seeds)


def aggregate_summaries(
    config: ScenarioConfig,
    seeds: Sequence[int],
    summaries: Sequence[Dict[str, float]],
) -> RepeatedResult:
    """Fold per-seed summary dicts (in seed order) into a RepeatedResult.

    Shared by :func:`repeat_scenario` and the durable campaign runner
    (:mod:`repro.campaign`): both produce the same per-seed summaries, so
    routing them through one aggregation keeps a resumed or cache-served
    campaign bit-identical to a direct in-memory repeat.
    """
    collected: Dict[str, List[float]] = {}
    for summary in summaries:
        for key, value in summary.items():
            collected.setdefault(key, []).append(float(value))
    return RepeatedResult(
        config=config,
        seeds=tuple(int(s) for s in seeds),
        metrics={key: summarize(values) for key, values in collected.items()},
    )


def repeat_scenario(
    config: ScenarioConfig,
    seeds: Sequence[int],
) -> RepeatedResult:
    """Run ``config`` once per seed, in seed order; aggregate the scalar
    summaries."""
    seeds = check_seeds(seeds)
    summaries = [
        run_scenario(replace(config, seed=seed)).summary() for seed in seeds
    ]
    return aggregate_summaries(config, seeds, summaries)
