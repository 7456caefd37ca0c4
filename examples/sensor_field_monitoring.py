#!/usr/bin/env python3
"""Air-dropped sensor field monitoring -- the paper's motivating scenario.

A large field is seeded by discrete air-drops (Gaussian blobs of sensors),
clustered by the *distributed* formation protocol running over the lossy
radio medium, and monitored by the FDS while nodes attrit.  The operations
team's view -- how many resources remain, per the failure reports reaching
an arbitrary surviving node -- is compared against ground truth.

Run:  python examples/sensor_field_monitoring.py
"""

import numpy as np

from repro import (
    FdsConfig,
    FormationConfig,
    NetworkConfig,
    build_network,
    evaluate_properties,
    run_formation,
)
from repro.failure.injection import FailureInjector
from repro.fds.service import install_fds
from repro.topology.placement import gaussian_blobs_placement
from repro.util.geometry import Vec2


def main() -> None:
    rng = np.random.default_rng(seed=11)

    # Six air-drops of ~35 sensors each, release points 150 m apart so the
    # blobs merge into one connected field.
    drop_points = [
        Vec2(0.0, 0.0), Vec2(150.0, 40.0), Vec2(300.0, 0.0),
        Vec2(40.0, 160.0), Vec2(190.0, 190.0), Vec2(330.0, 150.0),
    ]
    positions = gaussian_blobs_placement(
        counts=[50] * len(drop_points), centers=drop_points, sigma=48.0, rng=rng
    )
    print(f"air-dropped {len(positions)} sensors in {len(drop_points)} releases")

    network = build_network(
        positions,
        NetworkConfig(transmission_range=100.0, loss_probability=0.12, seed=11),
    )

    # Distributed cluster formation over the lossy medium (features F1-F4).
    formation = FormationConfig(thop=0.5, iterations=4)
    layout = run_formation(network, formation).cluster_layout()
    summary = layout.summary()
    print(
        f"self-organized into {summary['clusters']:.0f} clusters covering "
        f"{summary['clustered_nodes']:.0f}/{len(positions)} sensors "
        f"({summary['unclustered_nodes']:.0f} unclustered)"
    )

    # Install the FDS after formation settles.
    fds_start = network.sim.now + 1.0
    config = FdsConfig(phi=30.0, thop=0.5)
    deployment = install_fds(network, layout, config, start_time=fds_start)

    # Attrition: 8 sensors die across the mission (environment, battery).
    injector = FailureInjector(network, config, fds_start=fds_start)
    candidates = [
        nid for nid in network.operational_ids() if nid not in layout.heads
    ]
    victims = rng.choice(np.asarray(candidates), size=8, replace=False)
    for i, victim in enumerate(sorted(int(v) for v in victims)):
        injector.crash_before_execution(victim, execution=1 + i % 4)

    deployment.run_executions(7)

    # The operations team reads any one surviving node.
    report = evaluate_properties(deployment)
    observer = network.operational_ids()[0]
    believed_lost = deployment.protocols[observer].history.known
    actually_lost = set(network.crashed_ids())
    print("\n--- operations view (read from one surviving sensor) ---")
    print(f"ground truth losses : {len(actually_lost)}")
    print(f"reported losses     : {len(believed_lost)}")
    print(f"mean completeness   : {report.mean_completeness:.1%}")
    print(f"false suspicions    : {len(report.accuracy_violations)}")
    if report.mean_completeness < 1.0:
        print(
            "(sub-100% completeness means some cluster pair has no member "
            "adjacent to the peer CH; the paper notes such boundaries can "
            "be bridged by two-intermediate-node gateways but does not "
            "adopt them, deferring to an inter-cluster routing protocol)"
        )


if __name__ == "__main__":
    main()
