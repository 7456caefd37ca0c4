"""Experiment harness: figure regeneration, ablations, scenario runs."""

from repro.experiments.ablations import (
    ablation_bgw_count,
    ablation_dch,
    ablation_digest,
    ablation_implicit_ack,
    ablation_peer_forwarding,
)
from repro.experiments.figures import (
    PAPER_CLAIMS,
    check_paper_claims,
    figure5_false_detection,
    figure6_false_detection_on_ch,
    figure7_incompleteness,
    render_figure,
)
from repro.experiments.repeat import RepeatedResult, repeat_scenario
from repro.experiments.runner import (
    RunResult,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
    scenario_config,
)
from repro.experiments.scenarios import (
    single_cluster_validation,
    validation_summary,
)

__all__ = [
    "figure5_false_detection",
    "figure6_false_detection_on_ch",
    "figure7_incompleteness",
    "render_figure",
    "PAPER_CLAIMS",
    "check_paper_claims",
    "RunResult",
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "scenario_config",
    "RepeatedResult",
    "repeat_scenario",
    "single_cluster_validation",
    "validation_summary",
    "ablation_digest",
    "ablation_peer_forwarding",
    "ablation_bgw_count",
    "ablation_dch",
    "ablation_implicit_ack",
]
