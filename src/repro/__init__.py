"""repro -- Cluster-Based Failure Detection Service for Large-Scale Ad Hoc
Wireless Network Applications (Tai, Tso & Sanders, DSN 2004): a complete
reproduction.

The library has three layers:

1. **Substrate** (:mod:`repro.sim`, :mod:`repro.topology`): a deterministic
   discrete-event simulator with a unit-disk, promiscuous, lossy radio
   medium, plus placement/graph tooling.
2. **Protocols** (:mod:`repro.cluster`, :mod:`repro.fds`): distributed
   cluster formation with the paper's F1-F5 features and the three-round
   cluster-based FDS with peer forwarding and implicit-ack inter-cluster
   forwarding.
3. **Evaluation** (:mod:`repro.analysis`, :mod:`repro.metrics`,
   :mod:`repro.experiments`): the paper's closed-form probabilistic
   measures (Figures 2, 5-7), Monte Carlo twins, ground-truth
   completeness/accuracy scoring, and the claims registry that checks
   the paper's evaluation against all of them.

Quickstart::

    import numpy as np
    from repro import (
        NetworkConfig, build_network, build_clusters, install_fds,
        UnitDiskGraph, uniform_rect_placement, FdsConfig,
    )

    rng = np.random.default_rng(7)
    positions = uniform_rect_placement(300, 400.0, 400.0, rng)
    graph = UnitDiskGraph(positions, radius=100.0)
    layout = build_clusters(graph)
    network = build_network(positions, NetworkConfig(loss_probability=0.1))
    deployment = install_fds(network, layout, FdsConfig())
    deployment.run_executions(3)
"""

from repro.cluster import (
    Boundary,
    Cluster,
    ClusterLayout,
    FormationConfig,
    LocalClusterView,
    build_clusters,
    run_formation,
)
from repro.energy import EnergyModel
from repro.errors import ReproError
from repro.failure import FailureInjector, Faultload, make_random_crashes
from repro.fds import FdsConfig, FdsDeployment, FdsProtocol, install_fds
from repro.metrics import (
    collect_message_counts,
    evaluate_properties,
)
from repro.sim import (
    BernoulliLoss,
    GilbertElliottLoss,
    Network,
    NetworkConfig,
    PerfectLinks,
    RecordingTracer,
    Simulator,
    build_network,
)
from repro.topology import (
    UnitDiskGraph,
    multi_cluster_field,
    uniform_rect_placement,
)
from repro.types import NodeId, NodeRole, NodeStatus

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "NodeId",
    "NodeRole",
    "NodeStatus",
    "Simulator",
    "Network",
    "NetworkConfig",
    "build_network",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "PerfectLinks",
    "RecordingTracer",
    "UnitDiskGraph",
    "uniform_rect_placement",
    "multi_cluster_field",
    "Cluster",
    "Boundary",
    "ClusterLayout",
    "LocalClusterView",
    "build_clusters",
    "run_formation",
    "FormationConfig",
    "FdsConfig",
    "FdsProtocol",
    "FdsDeployment",
    "install_fds",
    "EnergyModel",
    "FailureInjector",
    "Faultload",
    "make_random_crashes",
    "evaluate_properties",
    "collect_message_counts",
]
