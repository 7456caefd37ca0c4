"""Cluster-based communication architecture (Section 3 of the paper).

Two ways to obtain a cluster structure:

- :func:`repro.cluster.geometric.build_clusters` -- a centralized *oracle*
  that computes the lowest-ID clustering directly from the unit-disk graph.
  Used to set up analysis experiments deterministically (the paper's
  Section 5 assumes the cluster already exists).  The oracle is built in
  one place, the array layout pipeline
  (:func:`repro.sim.array_engine.layout.geometric_layout`), and read off
  as a ``ClusterLayout``; the node-at-a-time reference walker it is
  tested against lives in ``tests/cluster_reference.py``.
- :class:`repro.cluster.formation.FormationProtocol` -- the distributed
  cluster-formation protocol itself, run over the lossy radio medium, with
  the paper's features F1-F5 (overlap, DCH/BGW redundancy, unique gateway
  affiliation, open-ended iterations, FDS round sharing).

Both produce a :class:`repro.cluster.state.ClusterLayout`.
"""

from repro.cluster.formation import FormationConfig, FormationProtocol, run_formation
from repro.cluster.geometric import build_clusters
from repro.cluster.state import (
    Boundary,
    Cluster,
    ClusterLayout,
    LocalClusterView,
)

__all__ = [
    "Cluster",
    "Boundary",
    "ClusterLayout",
    "LocalClusterView",
    "build_clusters",
    "FormationProtocol",
    "FormationConfig",
    "run_formation",
]
