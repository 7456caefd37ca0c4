"""Protocol-in-the-loop validation of the Section 5 measures.

The analytic formulas and their geometry-level Monte Carlo twins model the
protocol; :func:`single_cluster_validation` closes the loop by running the
*actual* FDS -- real rounds, real digests, real peer forwarding -- on the
paper's Section 5 setup (one cluster, CH at the center, N-1 uniform
members, the watched member on the circumference) and counting the same
events per execution:

- the watched member falsely detected by the CH (no crashes are injected,
  so every detection is false);
- the watched member ending an execution without the R-3 update despite
  peer forwarding (incompleteness).

Rates over many executions are compared against the closed forms with
Wilson intervals.  Event probabilities below ~1/executions are not
measurable this way (the paper's curves reach 1e-120); validation runs use
the high-p corner where the measures are observable, which is also where
the protocol is under the most stress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.analysis.confidence import wilson_interval
from repro.analysis.false_detection import p_false_detection
from repro.analysis.incompleteness import p_incompleteness
from repro.errors import ExperimentError
from repro.experiments.runner import EventEngine, ScenarioConfig, run_engine
from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.topology.placement import cluster_disk_placement
from repro.types import NodeId


@dataclass(frozen=True)
class ValidationResult:
    """Observed vs analytic rates for one (N, p) point."""

    n: int
    p: float
    executions: int
    watched_member: NodeId
    false_detections: int
    incompleteness_events: int
    analytic_false_detection: float
    analytic_incompleteness: float
    accuracy_violations_final: int

    @property
    def false_detection_rate(self) -> float:
        return self.false_detections / self.executions

    @property
    def incompleteness_rate(self) -> float:
        return self.incompleteness_events / self.executions

    def false_detection_interval(
        self, confidence: float = 0.99
    ) -> Tuple[float, float]:
        return wilson_interval(self.false_detections, self.executions, confidence)

    def incompleteness_interval(
        self, confidence: float = 0.99
    ) -> Tuple[float, float]:
        return wilson_interval(
            self.incompleteness_events, self.executions, confidence
        )


def single_cluster_config(
    n: int, p: float, executions: int, seed: int, fds: FdsConfig, **fields: Any
) -> ScenarioConfig:
    """Section 5's setting: one CH-centred cluster of ``n`` nodes (the
    paper's N, CH included) and no crashes drawn by the scenario."""
    return ScenarioConfig(
        cluster_count=1,
        members_per_cluster=n - 1,
        loss_probability=p,
        crash_count=0,
        executions=executions,
        seed=seed,
        fds=fds,
        **fields,
    )


class _WorstCaseCluster(EventEngine):
    """The event engine on Section 5's cluster: one CH at the centre and
    ``members_per_cluster`` members, the highest-NID one on the
    circumference."""

    def place_field(self) -> None:
        config = self.config
        self.positions = cluster_disk_placement(
            member_count=config.members_per_cluster,
            radius=config.transmission_range,
            rng=self.rngs.stream("placement"),
            worst_case_member=True,
        )
        self.node_count = len(self.positions)


def single_cluster_validation(
    n: int = 50,
    p: float = 0.5,
    executions: int = 300,
    seed: int = 0,
    fds_config: FdsConfig | None = None,
) -> ValidationResult:
    """Run the real FDS on the Section 5 cluster and count the events.

    ``n`` is the total cluster population (CH included), matching the
    paper's N.  The watched member is placed exactly on the circumference
    (the worst case both bounds are computed at).
    """
    if n < 3:
        raise ExperimentError(f"n must be >= 3, got {n}")
    result = run_engine(_WorstCaseCluster(single_cluster_config(
        n, p, executions, seed, fds_config or FdsConfig(phi=4.0, thop=0.5)
    )))
    if len(result.layout.clusters) != 1:
        raise ExperimentError(
            "single-cluster placement unexpectedly produced "
            f"{len(result.layout.clusters)} clusters"
        )
    watched = NodeId(n - 1)  # the circumference member

    false_detections = sum(
        1
        for record in result.tracer.iter_kind(ev.DETECTION)
        if int(record.detail["target"]) == int(watched)
    )
    received = result.deployment.protocols[watched].updates_received
    incompleteness_events = executions - len(
        [k for k in received if 0 <= k < executions]
    )
    return ValidationResult(
        n=n,
        p=p,
        executions=executions,
        watched_member=watched,
        false_detections=false_detections,
        incompleteness_events=incompleteness_events,
        analytic_false_detection=p_false_detection(n, p),
        analytic_incompleteness=p_incompleteness(n, p),
        accuracy_violations_final=len(result.properties.accuracy_violations),
    )


def validation_summary(result: ValidationResult) -> Dict[str, float]:
    """Flat dict for table rendering / EXPERIMENTS.md."""
    fd_low, fd_high = result.false_detection_interval()
    inc_low, inc_high = result.incompleteness_interval()
    return {
        "N": float(result.n),
        "p": result.p,
        "executions": float(result.executions),
        "fd_rate_measured": result.false_detection_rate,
        "fd_rate_analytic": result.analytic_false_detection,
        "fd_ci_low": fd_low,
        "fd_ci_high": fd_high,
        "inc_rate_measured": result.incompleteness_rate,
        "inc_rate_analytic": result.analytic_incompleteness,
        "inc_ci_low": inc_low,
        "inc_ci_high": inc_high,
    }
