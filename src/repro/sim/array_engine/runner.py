"""End-to-end scenario execution through the array engine.

:class:`ArrayEngine` is the array-engine side of
:func:`repro.experiments.runner.run_scenario`: it supplies the layout,
the round program and the numpy scorer to the shared run skeleton, and
the run comes back as a :class:`~repro.experiments.runner.RunResult`
whose trace carries the same verdict-bearing record kinds.  The field
reuses the event engine's ``stream("placement")`` (the skeleton's
``stream("faultload")`` is shared by construction), so a scenario's
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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.runner import (
    Engine,
    RunResult,
    ScenarioConfig,
    run_engine,
)
from repro.failure.faultload import Faultload
from repro.metrics.collectors import MessageCounts
from repro.metrics.properties import LivenessView, PropertyReport
from repro.obs.profiler import (
    PHASE_ARRAY_LAYOUT,
    PHASE_ARRAY_ROUNDS,
    PHASE_ARRAY_SCORE,
    PhaseProfiler,
)
from repro.obs.topology import array_topology_detail
from repro.sim.array_engine.energy import ArrayEnergyLedger
from repro.sim.array_engine.formation import (
    FormationOutcome,
    formation_array_layout,
    run_array_formation,
)
from repro.sim.array_engine.layout import build_array_layout, lattice_positions
from repro.sim.array_engine.loss import ArrayLossDraw
from repro.sim.array_engine.rounds import ArrayRoundEngine
from repro.sim.trace import Tracer
from repro.types import NodeId


@dataclass
class ArrayScenarioResult(RunResult):
    """An array-engine run (``energy`` is an
    :class:`~repro.sim.array_engine.energy.ArrayEnergyLedger`)."""

    #: Converged formation state (populated iff
    #: ``config.formation == "protocol"``; ``layout.cluster_layout()`` is
    #: the event-comparable ``ClusterLayout``); feed it to
    #: :func:`~repro.sim.array_engine.formation.formation_shape_violations`
    #: for the structural audit.
    formation: Optional[FormationOutcome] = None


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


class ArrayEngine(Engine):
    """The round-level numpy engine behind :func:`run_array_scenario`."""

    result_class = ArrayScenarioResult

    def __init__(
        self,
        config: ScenarioConfig,
        tracer: Optional[Tracer] = None,
        profiler: Optional[PhaseProfiler] = None,
        record_energy_journal: bool = False,
    ) -> None:
        super().__init__(config, tracer, profiler)
        self.record_energy_journal = record_energy_journal
        self.formation: Optional[FormationOutcome] = None

    def prepare(self) -> None:
        config, rngs = self.config, self.rngs
        self.loss = ArrayLossDraw(
            config.loss_kind,
            config.loss_params,
            loss_probability=config.loss_probability,
            transmission_range=config.transmission_range,
            rng=rngs.stream("array", "loss"),
        )
        field = dict(
            cluster_count=config.cluster_count,
            members_per_cluster=config.members_per_cluster,
            radius=config.transmission_range,
            rng=rngs.stream("placement"),
            spacing_factor=config.spacing_factor,
        )
        keep_pair_dist = config.loss_kind == "distance"
        t0 = _time.perf_counter()
        if config.formation == "oracle":
            self.layout = build_array_layout(
                **field, **config.layout_knobs(), keep_pair_dist=keep_pair_dist
            )
            self.fds_start = 0.0
        else:
            xs, ys = lattice_positions(**field)
            formation_config = config.formation_config()
            self.formation = run_array_formation(
                xs, ys, config.transmission_range, formation_config,
                self.loss, rngs.stream("array", "formation"),
            )
            self.layout = formation_array_layout(
                self.formation, keep_pair_dist=keep_pair_dist
            )
            # The event path starts the FDS one round after formation parks
            # the clock (run_formation's total_duration, then + thop).
            self.fds_start = formation_config.total_duration() + config.fds.thop
        if self.profiler is not None:
            self.profiler.add_seconds(
                PHASE_ARRAY_LAYOUT, _time.perf_counter() - t0
            )
        self.node_count = self.layout.node_count

    def heads(self) -> np.ndarray:
        return self.layout.head_nids

    def topology_detail(self) -> Dict[str, object]:
        return array_topology_detail(self.layout)

    def arm(self, faultload: Faultload) -> None:
        config, fds_start = self.config, self.fds_start
        # First execution each node is silent in; nodes that never crash
        # get ``executions + 1`` (alive past the horizon).
        self.crash_exec = np.full(
            self.node_count, config.executions + 1, dtype=np.int64
        )
        for event in faultload.events:
            self.crash_exec[int(event.node_id)] = self.fds.crash_execution(
                fds_start, event.time
            )
        if self.tracer.enabled:
            # Crash ground truth, as the event engine's node runtime emits
            # it -- the spool must stay self-describing (``repro trace
            # latency`` recovers crash times from ``sim.crash`` alone).
            for event in faultload.events:
                self.tracer.record(
                    event.time, "sim.crash", node=int(event.node_id)
                )
        self.energy = (
            ArrayEnergyLedger(
                self.node_count,
                start=fds_start,
                record_journal=self.record_energy_journal,
            )
            if config.track_energy
            else None
        )
        self.rounds = ArrayRoundEngine(
            self.layout,
            self.fds,
            self.loss,
            self.tracer,
            self.crash_exec,
            fds_start=fds_start,
            profiler=self.profiler,
            energy=self.energy,
        )

    def run(self) -> None:
        t0 = _time.perf_counter()
        for e in range(self.config.executions):
            self.rounds.run_execution(e)
        if self.profiler is not None:
            self.profiler.add_seconds(
                PHASE_ARRAY_ROUNDS, _time.perf_counter() - t0,
                calls=self.config.executions,
            )

    def score(self) -> Dict[str, Any]:
        rounds, loss, outcome = self.rounds, self.loss, self.formation
        executions = self.config.executions
        t0 = _time.perf_counter()
        report, operational, crashed = _score_properties(
            rounds, self.crash_exec, executions,
            clustered_mask=(
                (self.layout.assign >= 0) if outcome is not None else None
            ),
        )
        if self.profiler is not None:
            self.profiler.add_seconds(
                PHASE_ARRAY_SCORE, _time.perf_counter() - t0
            )
        formation_tx = outcome.transmissions if outcome is not None else 0
        return dict(
            # Where the event scheduler parks its clock, so latency and
            # accuracy horizons agree across engines.
            network=LivenessView(
                operational, crashed,
                self.fds.run_end(self.fds_start, executions),
            ),
            properties=report,
            messages=MessageCounts(
                transmissions=rounds.transmissions + formation_tx,
                deliveries=loss.delivered_count,
                losses=loss.attempted - loss.delivered_count,
                peer_requests=rounds.peer_requests,
                peer_forwards=rounds.peer_forwards,
                peer_recoveries=rounds.peer_recoveries,
                reports_sent=rounds.reports_sent,
                report_retransmissions=rounds.report_retransmissions,
                bgw_activations=rounds.bgw_activations,
                origin_retransmissions=0,
            ),
            energy=self.energy,
            formation=outcome,
        )


def run_array_scenario(
    config: ScenarioConfig,
    tracer: Optional[Tracer] = None,
    profiler: Optional[PhaseProfiler] = None,
    record_energy_journal: bool = False,
) -> ArrayScenarioResult:
    """Run one scenario through the round-level array engine (what
    ``run_scenario(config)`` dispatches to for ``engine="array"``)."""
    return run_engine(
        ArrayEngine(config, tracer, profiler, record_energy_journal)
    )
