"""End-to-end scenario execution through the array engine.

:func:`run_array_scenario` is the array-engine side of
:func:`repro.experiments.runner.run_scenario`: same
:class:`~repro.experiments.runner.ScenarioConfig` in, a result object
with the same scoring surface out (``summary()``, ``properties``,
``messages``, ``detection_latencies``, ``crash_times``, a trace with the
same verdict-bearing record kinds).  The field, the faultload, and the
crash schedule reuse the *identical* seeded streams as the event engine
(``stream("placement")``, ``stream("faultload")``), so a scenario's
topology and ground truth match bit-for-bit across engines; only the
per-copy loss draws come from the engine-private ``stream("array",
"loss")``.

Support matrix: every ``ScenarioConfig`` runs on this engine -- both
formation modes (``"oracle"`` builds the lattice layout directly;
``"protocol"`` runs the vectorized six-round distributed formation, see
:mod:`repro.sim.array_engine.formation`), every loss kind (including
the stateful ``gilbert`` chains, see
:mod:`repro.sim.array_engine.loss`), and energy tracking (see
:mod:`repro.sim.array_engine.energy`).  No config is rejected here.

With ``formation="protocol"`` the member positions still come from the
shared ``stream("placement")`` (bit-identical field across engines),
formation loss draws ride the engine-private loss stream under the
``"fm"`` chain family, the RCC backoff uniforms come from
``stream("array", "formation")``, and the FDS epoch starts one round
after formation parks the clock -- the event path's
``network.sim.now + thop``.  Nodes the protocol leaves unclustered run
no FDS: they are excluded from the completeness observer set (the
paper's scope) but remain crash candidates, exactly like the event
engine.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.energy.model import EnergyConfig
from repro.failure.faultload import Faultload, scenario_faultload
from repro.metrics.collectors import MessageCounts
from repro.metrics.properties import (
    LivenessView,
    PropertyReport,
    detection_latency,
    run_summary,
)
from repro.obs.analyze import TraceMeta, stamp_profile, stamp_run_header
from repro.obs.profiler import (
    PHASE_ARRAY_LAYOUT,
    PHASE_ARRAY_ROUNDS,
    PHASE_ARRAY_SCORE,
    PhaseProfiler,
)
from repro.obs.topology import array_topology_detail
from repro.sim.array_engine.energy import ArrayEnergyLedger
from repro.sim.array_engine.layout import ArrayLayout, build_array_layout
from repro.sim.array_engine.loss import ArrayLossDraw
from repro.sim.array_engine.rounds import ArrayRoundEngine
from repro.sim.trace import RecordingTracer, Tracer
from repro.types import NodeId, SimTime
from repro.util.rng import RngFactory


@dataclass
class ArrayScenarioResult:
    """Array-engine run product, summary-compatible with ScenarioResult."""

    config: "object"  # ScenarioConfig (kept untyped to avoid an import cycle)
    network: LivenessView
    layout: ArrayLayout
    faultload: Faultload
    properties: PropertyReport
    messages: MessageCounts
    tracer: Tracer
    crash_times: Dict[NodeId, SimTime]
    #: Per-node energy ledger (populated iff ``config.track_energy``);
    #: exposes the event engine's scoring surface (``totals()``,
    #: ``spread()``, ``remaining_fraction()``).
    energy: Optional[ArrayEnergyLedger] = None
    #: Converged formation state (populated iff
    #: ``config.formation == "protocol"``); feed it to
    #: :func:`~repro.sim.array_engine.formation.formation_cluster_layout`
    #: for the event-comparable ``ClusterLayout`` or to
    #: :func:`~repro.sim.array_engine.formation.formation_shape_violations`
    #: for the structural audit.
    formation: Optional["object"] = None

    @property
    def detection_latencies(self) -> Dict[NodeId, Optional[SimTime]]:
        return detection_latency(self.tracer, self.crash_times)

    def summary(self) -> Dict[str, float]:
        return run_summary(
            self, self.messages.transmissions, self.messages.loss_rate
        )


def _score_properties(
    engine: ArrayRoundEngine,
    crash_exec: np.ndarray,
    executions: int,
    clustered_mask: Optional[np.ndarray] = None,
) -> Tuple[PropertyReport, Tuple[NodeId, ...], Tuple[NodeId, ...]]:
    """Numpy translation of :func:`repro.metrics.properties.evaluate_properties`.

    Observers are the operational *clustered* nodes (the paper's scope;
    the oracle lattice clusters everyone, so ``clustered_mask=None``
    means all-True, while protocol layouts pass ``assign != PAD``).  A
    node is operational at the horizon iff its first dead execution lies
    beyond the run.  Accuracy pairs scan every operational node --
    clustered or not -- sorted by (suspector, suspected), matching the
    event-side scorer.
    """
    op_mask = crash_exec > executions
    op_ids = np.flatnonzero(op_mask)
    crashed_ids = np.flatnonzero(~op_mask)
    if clustered_mask is None:
        obs_ids = op_ids
    else:
        obs_ids = np.flatnonzero(op_mask & clustered_mask)
    known = engine.known
    t_ids = np.asarray(engine.t_ids, dtype=np.int64)

    completeness: Dict[NodeId, float] = {}
    incomplete: List[NodeId] = []
    for v in crashed_ids:
        col = engine.t_col.get(int(v))
        if col is None:
            frac = 0.0 if obs_ids.size else 1.0
        elif obs_ids.size:
            frac = float(known[obs_ids, col].sum()) / float(obs_ids.size)
        else:
            frac = 1.0
        completeness[NodeId(int(v))] = frac
        if frac < 1.0:
            incomplete.append(NodeId(int(v)))

    violations: List[Tuple[NodeId, NodeId]] = []
    if t_ids.size and op_ids.size:
        op_cols = np.flatnonzero(op_mask[t_ids])
        if op_cols.size:
            sub = known[np.ix_(op_ids, op_cols)]
            rows, cols = np.nonzero(sub)
            sus = t_ids[op_cols][cols]
            order = np.lexsort((sus, op_ids[rows]))
            violations = [
                (NodeId(int(op_ids[rows[i]])), NodeId(int(sus[i])))
                for i in order
            ]

    report = PropertyReport(
        completeness=completeness,
        accuracy_violations=tuple(violations),
        incomplete_failures=tuple(incomplete),
        operational_count=int(obs_ids.size),
        crashed_count=int(crashed_ids.size),
    )
    return report, tuple(op_ids.tolist()), tuple(crashed_ids.tolist())


def run_array_scenario(
    config,
    tracer: Optional[Tracer] = None,
    profiler: Optional[PhaseProfiler] = None,
    record_energy_journal: bool = False,
) -> ArrayScenarioResult:
    """Run one scenario through the round-level array engine.

    Accepts the same :class:`~repro.experiments.runner.ScenarioConfig`
    as the event path (callers normally go through
    ``run_scenario(config)`` with ``engine="array"``).
    """
    rngs = RngFactory(config.seed)
    if tracer is None:
        tracer = RecordingTracer()

    loss = ArrayLossDraw(
        config.loss_kind,
        config.loss_params,
        loss_probability=config.loss_probability,
        transmission_range=config.transmission_range,
        rng=rngs.stream("array", "loss"),
    )

    t0 = _time.perf_counter()
    outcome = None
    if config.formation == "oracle":
        layout = build_array_layout(
            cluster_count=config.cluster_count,
            members_per_cluster=config.members_per_cluster,
            radius=config.transmission_range,
            rng=rngs.stream("placement"),
            spacing_factor=config.spacing_factor,
            deputy_count=config.fds.deputy_count,
            max_backups=(
                config.max_backups if config.max_backups is not None else 2
            ),
            keep_pair_dist=(config.loss_kind == "distance"),
        )
        fds_start = 0.0
    else:
        from repro.cluster.formation import FormationConfig
        from repro.sim.array_engine.formation import (
            formation_array_layout,
            run_array_formation,
        )
        from repro.sim.array_engine.layout import lattice_positions

        xs, ys = lattice_positions(
            cluster_count=config.cluster_count,
            members_per_cluster=config.members_per_cluster,
            radius=config.transmission_range,
            rng=rngs.stream("placement"),
            spacing_factor=config.spacing_factor,
        )
        # Mirror the event path's construction exactly (defaults for
        # deputy_count/max_backups) so the extracted layouts agree.
        formation_config = FormationConfig(
            thop=config.fds.thop,
            iterations=config.formation_iterations,
            backoff_fraction=config.formation_backoff_fraction,
        )
        outcome = run_array_formation(
            xs, ys, config.transmission_range, formation_config,
            loss, rngs.stream("array", "formation"),
        )
        layout = formation_array_layout(
            outcome, keep_pair_dist=(config.loss_kind == "distance")
        )
        # The event path starts the FDS one round after formation parks
        # the clock (run_formation's total_duration, then + thop).
        fds_start = formation_config.total_duration() + config.fds.thop
    if profiler is not None:
        profiler.add_seconds(PHASE_ARRAY_LAYOUT, _time.perf_counter() - t0)

    # Same candidates as the event path: node IDs ascending, heads
    # excluded -- in the lattice that is every member NID; under the
    # protocol, heads sit anywhere, and unclustered nodes remain
    # candidates.
    candidates = np.setdiff1d(
        np.arange(layout.node_count, dtype=np.int64),
        layout.head_nids,
        assume_unique=True,
    )
    faultload = scenario_faultload(
        candidates,
        config.crash_count,
        config.executions,
        config.fds,
        rngs.stream("faultload"),
        fds_start=fds_start,
    )
    crash_times = {e.node_id: e.time for e in faultload.events}
    # First execution each node is silent in; nodes that never crash get
    # ``executions + 1`` (alive past the horizon).
    crash_exec = np.full(
        layout.node_count, config.executions + 1, dtype=np.int64
    )
    for event in faultload.events:
        crash_exec[int(event.node_id)] = config.fds.crash_execution(
            fds_start, event.time
        )

    if tracer.enabled:
        stamp_run_header(
            tracer,
            0.0,
            TraceMeta(
                phi=config.fds.phi,
                thop=config.fds.thop,
                nodes=layout.node_count,
                seed=config.seed,
                executions=config.executions,
                fds_start=fds_start,
            ),
            array_topology_detail(layout),
        )
        # Crash ground truth, as the event engine's node runtime emits
        # it -- the spool must stay self-describing (``repro trace
        # latency`` recovers crash times from ``sim.crash`` alone).
        for event in faultload.events:
            tracer.record(event.time, "sim.crash", node=int(event.node_id))

    energy = (
        ArrayEnergyLedger(
            layout.node_count,
            EnergyConfig(),
            start=fds_start,
            record_journal=record_energy_journal,
        )
        if config.track_energy
        else None
    )
    engine = ArrayRoundEngine(
        layout,
        config.fds,
        loss,
        tracer,
        crash_exec,
        fds_start=fds_start,
        profiler=profiler,
        energy=energy,
    )
    t0 = _time.perf_counter()
    for e in range(config.executions):
        engine.run_execution(e)
    if profiler is not None:
        profiler.add_seconds(
            PHASE_ARRAY_ROUNDS, _time.perf_counter() - t0,
            calls=config.executions,
        )

    # Where the event scheduler parks its clock, so latency/accuracy
    # horizons agree across engines.
    horizon = config.fds.run_end(fds_start, config.executions)

    t0 = _time.perf_counter()
    report, operational, crashed = _score_properties(
        engine, crash_exec, config.executions,
        clustered_mask=(layout.assign >= 0) if outcome is not None else None,
    )
    if profiler is not None:
        profiler.add_seconds(PHASE_ARRAY_SCORE, _time.perf_counter() - t0)

    formation_tx = outcome.transmissions if outcome is not None else 0
    messages = MessageCounts(
        transmissions=engine.transmissions + formation_tx,
        deliveries=loss.delivered_count,
        losses=loss.attempted - loss.delivered_count,
        peer_requests=engine.peer_requests,
        peer_forwards=engine.peer_forwards,
        peer_recoveries=engine.peer_recoveries,
        reports_sent=engine.reports_sent,
        report_retransmissions=engine.report_retransmissions,
        bgw_activations=engine.bgw_activations,
        origin_retransmissions=0,
    )

    stamp_profile(tracer, horizon, profiler)

    return ArrayScenarioResult(
        config=config,
        network=LivenessView(operational, crashed, horizon),
        layout=layout,
        faultload=faultload,
        properties=report,
        messages=messages,
        tracer=tracer,
        crash_times=crash_times,
        energy=energy,
        formation=outcome,
    )
