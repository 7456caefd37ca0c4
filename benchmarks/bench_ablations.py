"""Ablation benches: what each of the paper's mechanisms buys.

Each bench toggles one mechanism on the real protocol, times the runs, and
writes the comparison table to ``benchmarks/results/ablation_*.txt``:

- digest round R-2          -> false-detection rate (accuracy)
- peer forwarding           -> missed-update rate (completeness)
- DCH takeover              -> cluster survival of a CH crash
- BGW standby ladder        -> cross-boundary delivery at high loss
- implicit acknowledgments  -> delivery vs forwarding cost
- iid loss assumption       -> the same protocol under bursty
  Gilbert-Elliott loss at the *same* mean rate (``loss_models.txt``)
"""

import numpy as np

from repro.cluster.geometric import build_clusters
from repro.experiments.ablations import (
    ablation_bgw_count,
    ablation_dch,
    ablation_digest,
    ablation_implicit_ack,
    ablation_peer_forwarding,
)
from repro.experiments.reporting import render_ablation
from repro.failure.injection import FailureInjector
from repro.fds import events as ev
from repro.fds.config import FdsConfig
from repro.fds.service import install_fds
from repro.metrics.properties import evaluate_properties
from repro.sim.loss import GilbertElliottLoss
from repro.sim.network import NetworkConfig, build_network
from repro.sim.trace import RecordingTracer
from repro.topology.graph import UnitDiskGraph
from repro.topology.placement import cluster_disk_placement
from repro.util.tables import render_table


def test_ablation_digest(benchmark, write_result):
    result = benchmark.pedantic(
        lambda: ablation_digest(n=40, p=0.3, executions=40, seed=0),
        rounds=1, iterations=1,
    )
    write_result("ablation_digest", render_ablation(result))
    with_rate = result.metric("with-digests", "rate_per_member_execution")
    without_rate = result.metric("without-digests", "rate_per_member_execution")
    assert with_rate < without_rate / 10


def test_ablation_peer_forwarding(benchmark, write_result):
    result = benchmark.pedantic(
        lambda: ablation_peer_forwarding(n=40, p=0.3, executions=40, seed=0),
        rounds=1, iterations=1,
    )
    write_result("ablation_peer_forwarding", render_ablation(result))
    with_rate = result.metric(
        "with-peer-forwarding", "rate_per_member_execution"
    )
    without_rate = result.metric(
        "without-peer-forwarding", "rate_per_member_execution"
    )
    assert with_rate < without_rate / 5


def test_ablation_dch(benchmark, write_result):
    result = benchmark.pedantic(
        lambda: ablation_dch(n=30, p=0.15, executions=6, seed=0),
        rounds=1, iterations=1,
    )
    write_result("ablation_dch", render_ablation(result))
    assert result.metric("with-dch", "served_in_last_execution") > 0.9
    assert result.metric("without-dch", "served_in_last_execution") == 0.0


def test_ablation_bgw_count(benchmark, write_result):
    result = benchmark.pedantic(
        lambda: ablation_bgw_count(p=0.45, trials=8, seed=0),
        rounds=1, iterations=1,
    )
    write_result("ablation_bgw", render_ablation(result))
    none = result.metric("backups=0", "mean_cross_boundary_knowledge")
    two = result.metric("backups=2", "mean_cross_boundary_knowledge")
    assert two >= none


def test_ablation_implicit_ack(benchmark, write_result):
    result = benchmark.pedantic(
        lambda: ablation_implicit_ack(p=0.45, trials=8, seed=0),
        rounds=1, iterations=1,
    )
    write_result("ablation_implicit_ack", render_ablation(result))
    with_ack = result.metric(
        "with-implicit-ack", "mean_cross_boundary_knowledge"
    )
    without_ack = result.metric(
        "without-implicit-ack", "mean_cross_boundary_knowledge"
    )
    assert with_ack >= without_ack


def test_loss_model_robustness(benchmark, write_result):
    """The protocol under bursty loss at the same mean rate as iid."""

    def run(loss_model, label, seed):
        rng = np.random.default_rng(11)
        placement = cluster_disk_placement(39, 100.0, rng)
        layout = build_clusters(UnitDiskGraph(placement, 100.0))
        tracer = RecordingTracer()
        network = build_network(
            placement,
            NetworkConfig(loss_probability=0.2, seed=seed),
            loss_model=loss_model,
            tracer=tracer,
        )
        cfg = FdsConfig(phi=5.0, thop=0.5)
        deployment = install_fds(network, layout, cfg)
        FailureInjector(network, cfg).crash_before_execution(11, 2)
        deployment.run_executions(10)
        report = evaluate_properties(deployment)
        return {
            "loss_model": label,
            "false_detections": float(
                sum(1 for r in tracer.iter_kind(ev.DETECTION)
                    if r.detail["target"] != 11)
            ),
            "crash_completeness": report.completeness.get(11, 0.0),
            "residual_violations": float(len(report.accuracy_violations)),
        }

    def run_all():
        bursty = GilbertElliottLoss(p_good=0.05, p_bad=0.8, p_gb=0.05, p_bg=0.2)
        rows = [run(None, f"iid p=0.2", 3)]
        rows.append(
            run(bursty, f"gilbert-elliott mean={bursty.stationary_loss_rate:.2f}", 3)
        )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    keys = ["loss_model", "false_detections", "crash_completeness",
            "residual_violations"]
    write_result(
        "loss_models",
        render_table(keys, [[r[k] for k in keys] for r in rows],
                     title="iid vs bursty loss at equal mean rate"),
    )
    for r in rows:
        assert r["crash_completeness"] == 1.0
