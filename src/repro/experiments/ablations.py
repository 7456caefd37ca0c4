"""Ablations of the paper's design choices.

Each ablation toggles exactly one mechanism and measures the property it
exists to protect, using the real protocol on the real lossy medium:

==========================  ============================================
mechanism (paper section)   protected property measured
==========================  ============================================
digest round R-2 (4.2)      accuracy: false detections per member-round
peer forwarding (4.2)       completeness: missed R-3 updates per round
DCH takeover (4.2, F2)      cluster survival of a CH crash
BGW standby (4.3, F2)       across-boundary report delivery
implicit ack (4.3)          across-boundary delivery vs message cost
iid loss assumption (2.2)   completeness under bursty loss, same mean
==========================  ============================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.experiments.runner import EventEngine, ScenarioConfig, run_scenario
from repro.experiments.scenarios import single_cluster_config
from repro.failure.injection import FailureInjector
from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.metrics.collectors import collect_message_counts
from repro.sim.loss import GilbertElliottLoss
from repro.sim.trace import NullTracer
from repro.util.tables import render_table


@dataclass(frozen=True)
class AblationRow:
    """One configuration's measurements."""

    label: str
    metrics: Dict[str, float]


@dataclass(frozen=True)
class AblationResult:
    """A named set of configuration rows."""

    name: str
    rows: Tuple[AblationRow, ...]

    def metric(self, label: str, key: str) -> float:
        for row in self.rows:
            if row.label == label:
                return row.metrics[key]
        raise KeyError(f"no row labelled {label!r} in ablation {self.name!r}")


def render_ablation(result: AblationResult) -> str:
    """One ablation as a table: rows are configurations."""
    keys: list[str] = []
    for row in result.rows:
        for key in row.metrics:
            if key not in keys:
                keys.append(key)
    headers = ["configuration", *keys]
    rows = [
        [row.label, *(row.metrics.get(k, float("nan")) for k in keys)]
        for row in result.rows
    ]
    return render_table(headers, rows, title=f"ablation: {result.name}")


def ablation_digest(
    n: int = 40,
    p: float = 0.3,
    executions: int = 60,
    seed: int = 0,
) -> AblationResult:
    """R-2 on/off: false detections per member-execution (no crashes).

    Without digests the rule degenerates to a bare heartbeat timeout: a
    member is falsely detected iff its heartbeat copy to the CH is lost,
    with probability ``p``.  With digests the bound is Figure 5's.
    """
    base = FdsConfig(phi=4.0, thop=0.5)
    rows: List[AblationRow] = []
    for label, cfg in (
        ("with-digests", base),
        ("without-digests", replace(base, use_digests=False)),
    ):
        result = run_scenario(
            single_cluster_config(n, p, executions, seed, cfg)
        )
        false_detections = result.tracer.count(ev.DETECTION)
        rows.append(
            AblationRow(
                label=label,
                metrics={
                    "false_detections": float(false_detections),
                    "rate_per_member_execution": false_detections
                    / ((n - 1) * executions),
                },
            )
        )
    return AblationResult(name="digest-round", rows=tuple(rows))


def ablation_peer_forwarding(
    n: int = 40,
    p: float = 0.3,
    executions: int = 60,
    seed: int = 0,
) -> AblationResult:
    """Peer forwarding on/off: member-executions without the R-3 update."""
    base = FdsConfig(phi=4.0, thop=0.5)
    rows: List[AblationRow] = []
    for label, cfg in (
        ("with-peer-forwarding", base),
        ("without-peer-forwarding", replace(base, peer_forwarding=False)),
    ):
        result = run_scenario(
            single_cluster_config(n, p, executions, seed, cfg)
        )
        missing = 0
        for protocol in result.deployment.protocols.values():
            if protocol.is_head:
                continue
            received = protocol.updates_received
            missing += sum(1 for k in range(executions) if k not in received)
        rows.append(
            AblationRow(
                label=label,
                metrics={
                    "missed_updates": float(missing),
                    "rate_per_member_execution": missing
                    / ((n - 1) * executions),
                },
            )
        )
    return AblationResult(name="peer-forwarding", rows=tuple(rows))


# ----------------------------------------------------------------------
# Targeted crashes: the scenario's random faultload cannot pick the
# victim, so these drive the event engine's prepare/run directly and
# schedule their one crash in between.
# ----------------------------------------------------------------------


def ablation_dch(
    n: int = 40,
    p: float = 0.2,
    executions: int = 6,
    seed: int = 0,
) -> AblationResult:
    """DCH on/off: does the cluster survive its CH crashing?

    Measured as the fraction of surviving members that (a) learned of the
    CH failure and (b) received an R-3 update in the final execution
    (i.e. somebody is running the cluster again).
    """
    rows: List[AblationRow] = []
    for label, dch_enabled in (("with-dch", True), ("without-dch", False)):
        cfg = FdsConfig(phi=4.0, thop=0.5, dch_enabled=dch_enabled)
        engine = EventEngine(
            single_cluster_config(n, p, executions, seed, cfg)
        )
        engine.prepare()
        head = engine.layout.cluster_layout().heads[0]
        FailureInjector(engine.network, cfg).crash_before_execution(head, 2)
        engine.run()
        protocols = engine.deployment.protocols
        survivors = [
            nid for nid in engine.network.operational_ids() if nid != head
        ]
        aware = sum(1 for nid in survivors if head in protocols[nid].history)
        last_served = sum(
            1
            for nid in survivors
            if (executions - 1) in protocols[nid].updates_received
        )
        rows.append(
            AblationRow(
                label=label,
                metrics={
                    "aware_of_ch_failure": aware / len(survivors),
                    "served_in_last_execution": last_served / len(survivors),
                },
            )
        )
    return AblationResult(name="dch-takeover", rows=tuple(rows))


def _corridor_row(
    label: str,
    p: float,
    seed: int,
    trials: int,
    cfg: FdsConfig,
    max_backups: int,
) -> AblationRow:
    """Cross-boundary knowledge and report cost over ``trials`` runs
    (seeds ``seed + 1000 * t``) of two 25-member clusters side by side
    (the default 1x2 lattice), one member of the first crashed before
    execution 1, three executions."""
    fractions = []
    reports = 0
    for t in range(trials):
        engine = EventEngine(
            ScenarioConfig(
                cluster_count=2,
                members_per_cluster=25,
                loss_probability=p,
                crash_count=0,
                executions=3,
                seed=seed + 1000 * t,
                fds=cfg,
                max_backups=max_backups,
            ),
            tracer=NullTracer(),
        )
        engine.prepare()
        layout = engine.layout.cluster_layout()
        # Crash a member of the *first* cluster (the boundary owner), far
        # from the peer: the report then crosses via the owner's GW/BGW
        # outbound path only, isolating the standby-ladder mechanism.
        # (Failures on the peer side can also cross via overheard
        # peer-forwarded updates, which would mask the ablation.)
        first_head, last_head = layout.heads[0], layout.heads[-1]
        boundary_forwarders = {
            f for b in layout.boundaries.values() for f in b.all_forwarders
        }
        far = engine.positions[last_head]
        victim = max(
            layout.clusters[first_head].ordinary_members - boundary_forwarders,
            key=lambda nid: engine.positions[nid].distance_to(far),
        )
        FailureInjector(engine.network, cfg).crash_before_execution(victim, 1)
        engine.run()
        # Did the last cluster's members learn about the victim?
        observers = [
            nid
            for nid in layout.clusters[last_head].members
            if engine.network.nodes[nid].is_operational
        ]
        protocols = engine.deployment.protocols
        aware = sum(1 for nid in observers if victim in protocols[nid].history)
        fractions.append(aware / len(observers))
        reports += collect_message_counts(engine.deployment).reports_sent
    return AblationRow(
        label=label,
        metrics={
            "mean_cross_boundary_knowledge": sum(fractions) / len(fractions),
            "mean_reports_sent": reports / trials,
        },
    )


def ablation_bgw_count(
    p: float = 0.4,
    trials: int = 10,
    seed: int = 0,
) -> AblationResult:
    """BGW count 0/1/2: cross-boundary knowledge at high loss.

    Retries are disabled (``max_forward_retries=0``) so delivery hinges on
    the GW's single shot plus however many ranked BGW backups exist --
    isolating the mechanism the ``k * 2*Thop`` standby ladder provides.
    """
    cfg = FdsConfig(phi=6.0, thop=0.5, max_forward_retries=0)
    return AblationResult(
        name="bgw-count",
        rows=tuple(
            _corridor_row(f"backups={backups}", p, seed, trials, cfg, backups)
            for backups in (0, 1, 2)
        ),
    )


def ablation_implicit_ack(
    p: float = 0.4,
    trials: int = 10,
    seed: int = 0,
) -> AblationResult:
    """Implicit ack on/off: delivery robustness vs forwarding cost."""
    return AblationResult(
        name="implicit-ack",
        rows=tuple(
            _corridor_row(
                label,
                p,
                seed,
                trials,
                FdsConfig(phi=6.0, thop=0.5, implicit_ack=implicit),
                max_backups=2,
            )
            for label, implicit in (
                ("with-implicit-ack", True),
                ("without-implicit-ack", False),
            )
        ),
    )


def ablation_loss_model() -> AblationResult:
    """iid vs bursty loss at the same mean rate (Section 2.2's assumption).

    One 40-node cluster, member 11 crashed before execution 2, ten
    executions: once under iid loss p = 0.2, once under a Gilbert-Elliott
    channel whose stationary loss rate is also 0.2.
    """
    cfg = FdsConfig(phi=5.0, thop=0.5)
    gilbert = (("p_good", 0.05), ("p_bad", 0.8), ("p_gb", 0.05), ("p_bg", 0.2))
    mean = GilbertElliottLoss(**dict(gilbert)).stationary_loss_rate
    rows: List[AblationRow] = []
    for label, loss in (
        ("iid p=0.2", {}),
        (f"gilbert-elliott mean={mean:.2f}",
         dict(loss_kind="gilbert", loss_params=gilbert)),
    ):
        engine = EventEngine(
            single_cluster_config(40, 0.2, 10, 11, cfg, **loss)
        )
        engine.prepare()
        FailureInjector(engine.network, cfg).crash_before_execution(11, 2)
        engine.run()
        report = engine.score()["properties"]
        rows.append(
            AblationRow(
                label=label,
                metrics={
                    "false_detections": float(
                        sum(1 for r in engine.tracer.iter_kind(ev.DETECTION)
                            if r.detail["target"] != 11)
                    ),
                    "crash_completeness": report.completeness.get(11, 0.0),
                    "residual_violations": float(
                        len(report.accuracy_violations)
                    ),
                },
            )
        )
    return AblationResult(name="loss-model", rows=tuple(rows))
