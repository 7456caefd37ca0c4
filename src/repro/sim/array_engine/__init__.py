"""Round-level numpy array engine for million-node fields.

The event engine (:mod:`repro.sim`) dispatches one Python callback per
message, which caps practical field sizes near 10^3 nodes.  This package
expresses an entire FDS φ-interval -- R-1 heartbeats, R-2 digests, R-3
updates and inter-cluster forwarding across *all* clusters at once -- as
batched boolean-array programs:

- :mod:`.layout` -- the field as flat arrays: member matrices, radio
  adjacency, deputy ranks, and boundary gateways, built bit-identically
  to the scalar topology/cluster pipeline from the same seeded stream;
- :mod:`.loss` -- vectorized per-copy Bernoulli/bounded/distance loss
  draws under the shared ``SeedSequence`` discipline;
- :mod:`.formation` -- the six-round distributed formation protocol
  (Section 3, F1-F5) as batched array programs over the unit-disk edge
  list; lossless runs extract a ``ClusterLayout`` bit-identical to the
  event engine's :func:`~repro.cluster.formation.run_formation`;
- :mod:`.rounds` -- the per-execution array program (detection and
  refutation as masked reductions over the whole field);
- :mod:`.runner` -- :func:`run_array_scenario`, the drop-in scenario
  entry point selected by ``ScenarioConfig(engine="array")``.

The event engine remains the scalar reference; the differential soak
harness (:mod:`repro.audit.differential`) proves verdict-level
equivalence between the two on every soak run.
"""

from repro.sim.array_engine.formation import (
    FormationOutcome,
    formation_array_layout,
    formation_cluster_layout,
    formation_shape_violations,
    run_array_formation,
)
from repro.sim.array_engine.layout import (
    ArrayLayout,
    build_array_layout,
    lattice_positions,
)
from repro.sim.array_engine.loss import ArrayLossDraw
from repro.sim.array_engine.rounds import ArrayRoundEngine
from repro.sim.array_engine.runner import (
    ArrayScenarioResult,
    run_array_scenario,
)

__all__ = [
    "ArrayLayout",
    "ArrayLossDraw",
    "ArrayRoundEngine",
    "ArrayScenarioResult",
    "FormationOutcome",
    "build_array_layout",
    "formation_array_layout",
    "formation_cluster_layout",
    "formation_shape_violations",
    "lattice_positions",
    "run_array_formation",
    "run_array_scenario",
]
