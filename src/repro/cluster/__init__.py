"""Cluster-based communication architecture (Section 3 of the paper).

One cluster structure, the
:class:`~repro.sim.array_engine.layout.ArrayLayout`, with two ways to
obtain it:

- :func:`repro.cluster.geometric.build_clusters` -- a centralized *oracle*
  that computes the lowest-ID clustering directly from the unit-disk graph.
  Used to set up analysis experiments deterministically (the paper's
  Section 5 assumes the cluster already exists).  The oracle is built in
  one place, the array layout pipeline
  (:func:`repro.sim.array_engine.layout.geometric_layout`), and returned
  as its NID-keyed :class:`~repro.cluster.state.ClusterLayout` view; the
  node-at-a-time reference walker it is tested against lives in
  ``tests/cluster_reference.py``.
- :class:`repro.cluster.formation.FormationProtocol` -- the distributed
  cluster-formation protocol itself, run over the lossy radio medium, with
  the paper's features F1-F5 (overlap, DCH/BGW redundancy, unique gateway
  affiliation, open-ended iterations, FDS round sharing);
  :func:`~repro.cluster.formation.run_formation` packs its converged
  state into the array engine's formation-to-layout conversion.

A node's :class:`~repro.cluster.state.LocalClusterView` is derived once,
on the arrays (:meth:`ArrayLayout.local_views`).
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
