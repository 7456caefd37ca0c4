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

import numpy as np

from repro.cluster.geometric import build_clusters
from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.fds.service import install_fds
from repro.metrics.collectors import collect_message_counts
from repro.metrics.properties import evaluate_properties
from repro.failure.injection import FailureInjector
from repro.sim.loss import GilbertElliottLoss
from repro.sim.network import NetworkConfig, build_network
from repro.sim.trace import RecordingTracer
from repro.topology.generators import corridor_field
from repro.topology.graph import UnitDiskGraph
from repro.topology.placement import cluster_disk_placement
from repro.types import NodeId
from repro.util.rng import RngFactory
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


# ----------------------------------------------------------------------
# Shared single-cluster runner
# ----------------------------------------------------------------------


def _run_single_cluster(
    n: int, p: float, executions: int, seed: int, cfg: FdsConfig
) -> Tuple[RecordingTracer, "object", int]:
    rngs = RngFactory(seed)
    placement = cluster_disk_placement(
        member_count=n - 1, radius=100.0, rng=rngs.stream("placement")
    )
    graph = UnitDiskGraph(placement, radius=100.0)
    layout = build_clusters(graph)
    tracer = RecordingTracer()
    network = build_network(
        placement, NetworkConfig(loss_probability=p, seed=seed), tracer=tracer
    )
    deployment = install_fds(network, layout, cfg)
    deployment.run_executions(executions)
    return tracer, deployment, n - 1


def ablation_digest(
    n: int = 40,
    p: float = 0.3,
    executions: int = 60,
    seed: int = 0,
) -> AblationResult:
    """R-2 on/off: false detections per member-execution (no crashes).

    Without digests the rule degenerates to a bare heartbeat timeout and
    the per-member false-detection probability is ``p**2`` (heartbeat and
    digest... the digest *message* still being absent, only the heartbeat
    matters: ``p``); with digests it is the Figure 5 bound.
    """
    base = FdsConfig(phi=4.0, thop=0.5)
    rows: List[AblationRow] = []
    for label, cfg in (
        ("with-digests", base),
        ("without-digests", replace(base, use_digests=False)),
    ):
        tracer, _deployment, members = _run_single_cluster(
            n, p, executions, seed, cfg
        )
        false_detections = tracer.count(ev.DETECTION)
        rows.append(
            AblationRow(
                label=label,
                metrics={
                    "false_detections": float(false_detections),
                    "rate_per_member_execution": false_detections
                    / (members * executions),
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
        _tracer, deployment, members = _run_single_cluster(
            n, p, executions, seed, cfg
        )
        missing = 0
        for nid, protocol in deployment.protocols.items():
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
                    / (members * executions),
                },
            )
        )
    return AblationResult(name="peer-forwarding", rows=tuple(rows))


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
        rngs = RngFactory(seed)
        placement = cluster_disk_placement(
            member_count=n - 1, radius=100.0, rng=rngs.stream("placement")
        )
        graph = UnitDiskGraph(placement, radius=100.0)
        layout = build_clusters(graph)
        network = build_network(
            placement, NetworkConfig(loss_probability=p, seed=seed)
        )
        deployment = install_fds(network, layout, cfg)
        injector = FailureInjector(network, cfg)
        head = layout.heads[0]
        injector.crash_before_execution(head, 2)
        deployment.run_executions(executions)
        survivors = [
            nid
            for nid in network.operational_ids()
            if nid != head
        ]
        aware = sum(
            1
            for nid in survivors
            if head in deployment.protocols[nid].history
        )
        last_served = sum(
            1
            for nid in survivors
            if (executions - 1) in deployment.protocols[nid].updates_received
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


# ----------------------------------------------------------------------
# Boundary ablations (two-or-more-cluster corridor)
# ----------------------------------------------------------------------


def _run_corridor(
    p: float,
    seed: int,
    cfg: FdsConfig,
    max_backups: int,
    clusters: int = 2,
    members: int = 25,
    executions: int = 3,
):
    rngs = RngFactory(seed)
    placement = corridor_field(
        cluster_count=clusters,
        members_per_cluster=members,
        radius=100.0,
        rng=rngs.stream("placement"),
    )
    graph = UnitDiskGraph(placement, radius=100.0)
    layout = build_clusters(graph, max_backups=max_backups)
    network = build_network(
        placement, NetworkConfig(loss_probability=p, seed=seed)
    )
    deployment = install_fds(network, layout, cfg)
    injector = FailureInjector(network, cfg)
    # Crash a member of the *first* cluster (the boundary owner), far from
    # the peer: the report then crosses via the owner's GW/BGW outbound
    # path only, isolating the standby-ladder mechanism.  (Failures on the
    # peer side can also cross via overheard peer-forwarded updates, which
    # would mask the ablation.)
    first_head = layout.heads[0]
    boundary_forwarders = {
        f for b in layout.boundaries.values() for f in b.all_forwarders
    }
    victim = max(
        layout.clusters[first_head].ordinary_members - boundary_forwarders,
        key=lambda nid: graph.distance(nid, layout.heads[-1]),
    )
    injector.crash_before_execution(victim, 1)
    deployment.run_executions(executions)
    # Did the last cluster's members learn about the victim?
    last_members = layout.clusters[layout.heads[-1]].members
    observers = [
        nid for nid in last_members if network.nodes[nid].is_operational
    ]
    aware = sum(
        1 for nid in observers if victim in deployment.protocols[nid].history
    )
    counts = collect_message_counts(deployment)
    return aware / len(observers), counts


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
    rows: List[AblationRow] = []
    for backups in (0, 1, 2):
        fractions = []
        reports = 0
        for t in range(trials):
            fraction, counts = _run_corridor(
                p, seed + 1000 * t, cfg, max_backups=backups
            )
            fractions.append(fraction)
            reports += counts.reports_sent
        rows.append(
            AblationRow(
                label=f"backups={backups}",
                metrics={
                    "mean_cross_boundary_knowledge": sum(fractions)
                    / len(fractions),
                    "mean_reports_sent": reports / trials,
                },
            )
        )
    return AblationResult(name="bgw-count", rows=tuple(rows))


def ablation_implicit_ack(
    p: float = 0.4,
    trials: int = 10,
    seed: int = 0,
) -> AblationResult:
    """Implicit ack on/off: delivery robustness vs forwarding cost."""
    rows: List[AblationRow] = []
    for label, implicit in (
        ("with-implicit-ack", True),
        ("without-implicit-ack", False),
    ):
        cfg = FdsConfig(phi=6.0, thop=0.5, implicit_ack=implicit)
        fractions = []
        reports = 0
        for t in range(trials):
            fraction, counts = _run_corridor(
                p, seed + 1000 * t, cfg, max_backups=2
            )
            fractions.append(fraction)
            reports += counts.reports_sent
        rows.append(
            AblationRow(
                label=label,
                metrics={
                    "mean_cross_boundary_knowledge": sum(fractions)
                    / len(fractions),
                    "mean_reports_sent": reports / trials,
                },
            )
        )
    return AblationResult(name="implicit-ack", rows=tuple(rows))


def ablation_loss_model() -> AblationResult:
    """iid vs bursty loss at the same mean rate (Section 2.2's assumption).

    One 40-node cluster, member 11 crashed before execution 2, ten
    executions: once under iid loss p = 0.2, once under a Gilbert-Elliott
    channel whose stationary loss rate is also 0.2.
    """
    bursty = GilbertElliottLoss(p_good=0.05, p_bad=0.8, p_gb=0.05, p_bg=0.2)
    rows: List[AblationRow] = []
    for label, loss_model in (
        ("iid p=0.2", None),
        (f"gilbert-elliott mean={bursty.stationary_loss_rate:.2f}", bursty),
    ):
        rng = np.random.default_rng(11)
        placement = cluster_disk_placement(39, 100.0, rng)
        layout = build_clusters(UnitDiskGraph(placement, 100.0))
        tracer = RecordingTracer()
        network = build_network(
            placement,
            NetworkConfig(loss_probability=0.2, seed=3),
            loss_model=loss_model,
            tracer=tracer,
        )
        cfg = FdsConfig(phi=5.0, thop=0.5)
        deployment = install_fds(network, layout, cfg)
        FailureInjector(network, cfg).crash_before_execution(11, 2)
        deployment.run_executions(10)
        report = evaluate_properties(deployment)
        rows.append(
            AblationRow(
                label=label,
                metrics={
                    "false_detections": float(
                        sum(1 for r in tracer.iter_kind(ev.DETECTION)
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
