"""Round-level numpy array engine for million-node fields.

The event engine (:mod:`repro.sim`) dispatches one Python callback per
message, which caps practical field sizes near 10^3 nodes.  This package
expresses an entire FDS φ-interval -- R-1 heartbeats, R-2 digests, R-3
updates and inter-cluster forwarding across *all* clusters at once -- as
batched boolean-array programs:

- :mod:`.layout` -- the field as flat arrays: member matrices, radio
  adjacency, deputy ranks, and boundary gateways.  The
  :class:`~.layout.ArrayLayout` is the one cluster structure every
  engine runs on (event and rt included), with the one derivation of a
  node's local view; the oracle clustering is built here too;
- :mod:`.loss` -- vectorized per-copy Bernoulli/bounded/distance loss
  draws under the shared ``SeedSequence`` discipline;
- :mod:`.formation` -- the six-round distributed formation protocol
  (Section 3, F1-F5) as batched array programs over the unit-disk edge
  list, and the one formation-to-layout conversion; lossless runs yield
  an ``ArrayLayout`` equal, field for field, to the event engine's
  :func:`~repro.cluster.formation.run_formation`;
- :mod:`.rounds` -- the per-execution array program (detection and
  refutation as masked reductions over the whole field);
- :mod:`.runner` -- :func:`run_array_scenario`, the drop-in scenario
  entry point selected by ``ScenarioConfig(engine="array")``.

The event engine remains the scalar reference; the differential soak
harness (:mod:`repro.audit.differential`) proves verdict-level
equivalence between the two on every soak run.  The package imports
none of its modules, so reaching the oracle loads :mod:`.layout` alone;
import names from the modules.
"""
