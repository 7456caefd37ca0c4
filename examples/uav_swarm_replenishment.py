#!/usr/bin/env python3
"""UAV swarm: clusterhead loss, DCH takeover, and resource replenishment.

Exercises the paper's redundancy features end to end:

- **F2 (deputy clusterheads):** the swarm loses a clusterhead mid-mission;
  the highest-ranked DCH detects it via the CH-failure detection rule,
  broadcasts the takeover, and keeps the cluster's FDS running.
- **F4/F5 (open-ended admission):** replacement vehicles arrive later as
  *unmarked* nodes; their heartbeats double as membership subscriptions
  and the CH admits them in its next health-status update.
- **Energy balancing:** peer forwarding answers update requests with
  waiting periods inversely proportional to remaining energy, so
  high-energy vehicles shoulder the relaying.

Run:  python examples/uav_swarm_replenishment.py
"""

import numpy as np

from repro import (
    EnergyModel,
    FdsConfig,
    NetworkConfig,
    RecordingTracer,
    UnitDiskGraph,
    build_clusters,
    build_network,
    evaluate_properties,
)
from repro.failure.injection import FailureInjector
from repro.fds import events as ev
from repro.fds.service import install_fds
from repro.topology.generators import corridor_field
from repro.types import NodeRole


def main() -> None:
    rng = np.random.default_rng(seed=23)

    # A patrol line: three overlapping clusters of 24 vehicles each.
    positions = corridor_field(
        cluster_count=3, members_per_cluster=24, radius=100.0, rng=rng
    )
    graph = UnitDiskGraph(positions, radius=100.0)
    layout = build_clusters(graph)
    middle_ch = layout.heads[1]
    middle_cluster = layout.clusters[middle_ch]
    print(
        f"swarm of {len(positions)} vehicles in {len(layout.heads)} clusters; "
        f"middle cluster head={middle_ch}, "
        f"deputies={list(middle_cluster.deputies)}"
    )

    tracer = RecordingTracer()
    network = build_network(
        positions,
        NetworkConfig(transmission_range=100.0, loss_probability=0.1, seed=23),
        tracer=tracer,
    )
    config = FdsConfig(phi=20.0, thop=0.5)
    energy = EnergyModel()
    deployment = install_fds(network, layout, config, energy=energy)

    # Phase 1: the middle clusterhead is lost to ground fire.
    injector = FailureInjector(network, config)
    injector.crash_before_execution(middle_ch, execution=2)
    deployment.run_executions(4)

    takeovers = tracer.filter(ev.TAKEOVER)
    assert takeovers, "the DCH should have taken over"
    new_head = int(takeovers[0].detail["new_head"])
    print(
        f"\nCH {middle_ch} lost at t~{injector.scheduled[0].time:.0f}s; "
        f"deputy {new_head} detected it and took over at "
        f"t={takeovers[0].time:.1f}s"
    )
    survivors = [
        nid
        for nid in middle_cluster.members
        if network.nodes[nid].is_operational
    ]
    adopted = sum(
        1 for nid in survivors if deployment.protocols[nid].head == new_head
    )
    print(f"{adopted}/{len(survivors)} surviving members follow the new head")

    # Phase 2: two replacement vehicles join near the weakened cluster.
    # They enter UNMARKED; their heartbeats act as membership
    # subscriptions (feature F5).
    center = network.medium.position_of(new_head)
    from repro.cluster.state import LocalClusterView
    from repro.sim.node import SimNode
    from repro.types import NodeId
    from repro.util.geometry import Vec2, sample_in_disk

    new_ids = []
    for k in range(2):
        nid = NodeId(max(network.nodes) + 1)
        pos = sample_in_disk(rng, Vec2(center.x, center.y), 60.0)
        node = SimNode(nid, pos, network.sim, network.medium)
        network.nodes[nid] = node
        view = LocalClusterView(
            node_id=nid,
            role=NodeRole.UNMARKED,
            head=nid,
            members=frozenset({nid}),
            deputies=(),
        )
        from repro.fds.service import FdsProtocol

        protocol = FdsProtocol(config, view, energy=None)
        node.add_protocol(protocol)
        deployment.protocols[nid] = protocol
        next_epoch = deployment.start_time + (
            deployment.executions_scheduled * config.phi
        )
        protocol.start(
            next_epoch, 3, first_index=deployment.executions_scheduled
        )
        new_ids.append(nid)
        print(f"replacement vehicle {nid} inserted at "
              f"({pos.x:.0f}, {pos.y:.0f}), unmarked")

    deployment.run_executions(3)

    print("\n--- after replenishment ---")
    for nid in new_ids:
        protocol = deployment.protocols[nid]
        status = (
            f"admitted to cluster of head {protocol.head}"
            if protocol.marked
            else "still unmarked"
        )
        print(f"vehicle {nid}: {status}")

    report = evaluate_properties(deployment)
    print(f"mean completeness : {report.mean_completeness:.1%}")
    print(f"false suspicions  : {len(report.accuracy_violations)}")
    spread = energy.spread()
    print(f"energy spread (max-min): {spread:.1f} units "
          "(peer forwarding balances the relaying load)")


if __name__ == "__main__":
    main()
