#!/usr/bin/env python3
"""Quickstart: deploy the cluster-based FDS on a small sensor field.

Builds a 4-cluster field of ~125 hosts with 100 m radios and 15% message
loss, forms clusters, runs the failure detection service, crashes two
nodes, and shows that every operational node learns of both failures while
nobody is falsely suspected.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    FdsConfig,
    NetworkConfig,
    RecordingTracer,
    UnitDiskGraph,
    build_clusters,
    build_network,
    collect_message_counts,
    evaluate_properties,
    install_fds,
)
from repro.failure.injection import FailureInjector
from repro.obs.verdicts import VerdictTimeline
from repro.topology.generators import multi_cluster_field


def main() -> None:
    rng = np.random.default_rng(seed=7)

    # 1. Place the field: 4 overlapping cluster disks, 30 members each.
    positions = multi_cluster_field(
        cluster_count=4, members_per_cluster=30, radius=100.0, rng=rng
    )
    print(f"deployed {len(positions)} hosts")

    # 2. Form clusters (geometric oracle -- see examples further down for
    #    the distributed formation protocol running over the lossy medium).
    graph = UnitDiskGraph(positions, radius=100.0)
    layout = build_clusters(graph)
    summary = layout.summary()
    print(
        f"clusters: {summary['clusters']:.0f}, "
        f"sizes {summary['min_cluster_size']:.0f}-"
        f"{summary['max_cluster_size']:.0f}, "
        f"boundaries: {summary['boundaries']:.0f}"
    )

    # 3. Build the simulated network: unit-disk radios, promiscuous
    #    receiving, 15% independent message loss -- the paper's model.
    tracer = RecordingTracer()
    network = build_network(
        positions,
        NetworkConfig(transmission_range=100.0, loss_probability=0.15, seed=7),
        tracer=tracer,
    )

    # 4. Install the FDS and schedule two fail-stop crashes between
    #    executions (the paper's timing assumption).
    config = FdsConfig(phi=30.0, thop=0.5)
    deployment = install_fds(network, layout, config)
    injector = FailureInjector(network, config)
    victims = [network.operational_ids()[37], network.operational_ids()[88]]
    crash_times = {}
    for i, victim in enumerate(victims):
        event = injector.crash_before_execution(victim, execution=i + 1)
        crash_times[victim] = event.time
        print(f"scheduled crash of node {victim} at t={event.time:.1f}s")

    # 5. Run five FDS executions (heartbeat interval 30 s).
    deployment.run_executions(5)

    # 6. Score completeness and accuracy against ground truth.
    report = evaluate_properties(deployment)
    print("\n--- results ---")
    for failure, fraction in report.completeness.items():
        print(f"failure of node {failure}: known by {fraction:.1%} of the field")
    print(f"accuracy violations: {len(report.accuracy_violations)}")
    latencies = VerdictTimeline.read(tracer, crash_times).latencies()
    for victim, latency in latencies.items():
        shown = f"{latency:.1f}s" if latency is not None else "never"
        print(f"detection latency for node {victim}: {shown}")
    counts = collect_message_counts(deployment)
    print(
        f"messages: {counts.transmissions} transmissions, "
        f"observed loss rate {counts.loss_rate:.1%}, "
        f"{counts.reports_sent} inter-cluster reports"
    )


if __name__ == "__main__":
    main()
