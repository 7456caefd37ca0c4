"""Generic end-to-end scenario runner.

One call builds the field, forms clusters (oracle by default, or the
distributed protocol), installs the FDS, injects the faultload, runs the
requested executions, and scores the result -- the shared engine behind
the examples, the ablations, and the scenario benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cluster.formation import FormationConfig, run_formation
from repro.cluster.geometric import build_clusters
from repro.cluster.state import ClusterLayout
from repro.energy.model import EnergyConfig, EnergyModel
from repro.errors import ConfigurationError, ExperimentError
from repro.failure.faultload import Faultload, scenario_faultload
from repro.failure.injection import FailureInjector
from repro.fds.config import FdsConfig
from repro.fds.service import FdsDeployment, install_fds
from repro.metrics.collectors import MessageCounts, collect_message_counts
from repro.metrics.properties import (
    PropertyReport,
    detection_latency,
    evaluate_properties,
    run_summary,
)
from repro.obs.analyze import TraceMeta, stamp_profile, stamp_run_header
from repro.obs.profiler import PhaseProfiler
from repro.obs.topology import layout_topology_detail
from repro.sim.loss import LossModel, build_loss_model
from repro.sim.network import Network, NetworkConfig, build_network
from repro.sim.trace import RecordingTracer, Tracer
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.types import NodeId, SimTime
from repro.util.rng import RngFactory


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete end-to-end scenario description."""

    cluster_count: int = 4
    members_per_cluster: int = 30
    transmission_range: float = 100.0
    loss_probability: float = 0.1
    crash_count: int = 2
    executions: int = 5
    seed: int = 0
    fds: FdsConfig = field(default_factory=FdsConfig)
    #: ``"oracle"`` builds clusters geometrically; ``"protocol"`` runs the
    #: distributed formation over the lossy medium first.
    formation: str = "oracle"
    #: Formation iterations (F4 has no termination rule; this is how many
    #: six-round iterations the protocol runs).  Only used with
    #: ``formation="protocol"``.
    formation_iterations: int = 3
    #: Upper bound of the RCC declaration backoff as a fraction of a
    #: round (see :func:`repro.cluster.rcc.declaration_backoff`).
    formation_backoff_fraction: float = 0.4
    track_energy: bool = False
    #: Declarative loss-model spec (see :func:`repro.sim.loss.build_loss_model`).
    #: ``"bernoulli"`` with empty params reproduces the classic behaviour
    #: driven by ``loss_probability``; the spec stays a plain (kind, tuple)
    #: pair so configs remain frozen, hashable, and picklable for the
    #: campaign pool.
    loss_kind: str = "bernoulli"
    loss_params: Tuple[Tuple[str, float], ...] = ()
    #: CH lattice spacing as a fraction of the radio range (must stay in
    #: (1, 2)); tighter spacing widens the lens overlaps, giving nodes
    #: multiple boundary duties.
    spacing_factor: float = 1.6
    #: Per-boundary BGW cap (``None`` = clustering default).
    max_backups: Optional[int] = None
    #: Execution engine: ``"event"`` runs the discrete-event simulator
    #: (the scalar reference -- every message is a scheduled callback);
    #: ``"array"`` runs the round-level numpy engine
    #: (:mod:`repro.sim.array_engine`), which batches each φ-interval
    #: across the whole field and scales to 10^6 nodes.  Same placement
    #: and faultload streams either way; loss draws are engine-private.
    engine: str = "event"

    def __post_init__(self) -> None:
        if self.formation not in ("oracle", "protocol"):
            raise ExperimentError(
                f"formation must be 'oracle' or 'protocol', got "
                f"{self.formation!r}"
            )
        if self.engine not in ("event", "array"):
            raise ExperimentError(
                f"engine must be 'event' or 'array', got {self.engine!r}"
            )
        try:
            self.loss_model()
        except ConfigurationError as exc:
            raise ExperimentError(str(exc)) from exc
        if self.crash_count < 0:
            raise ExperimentError("crash_count must be >= 0")
        if self.formation_iterations < 1:
            raise ExperimentError("formation_iterations must be >= 1")
        if not 0.0 < self.formation_backoff_fraction <= 0.9:
            raise ExperimentError(
                "formation_backoff_fraction must be in (0, 0.9], got "
                f"{self.formation_backoff_fraction!r}"
            )
        if self.executions < 1:
            raise ExperimentError("executions must be >= 1")

    def loss_model(self) -> LossModel:
        """A fresh loss model parsed from the (kind, params) spec."""
        return build_loss_model(
            self.loss_kind,
            self.loss_params,
            loss_probability=self.loss_probability,
            transmission_range=self.transmission_range,
        )


@dataclass
class ScenarioResult:
    """Everything a scenario run produced."""

    config: ScenarioConfig
    network: Network
    layout: ClusterLayout
    deployment: FdsDeployment
    faultload: Faultload
    properties: PropertyReport
    messages: MessageCounts
    tracer: Tracer
    crash_times: Dict[NodeId, SimTime]

    @property
    def detection_latencies(self) -> Dict[NodeId, Optional[SimTime]]:
        """Crash-to-first-detection seconds per crashed node.

        Needs a tracer with full in-memory records (the default
        :class:`RecordingTracer`).  With a disk-spooling tracer every
        entry is ``None`` here -- run ``repro trace latency`` on the
        spool instead.
        """
        return detection_latency(self.tracer, self.crash_times)

    @property
    def energy(self) -> Optional[EnergyModel]:
        """The deployment's energy model (``None`` unless
        ``config.track_energy``); same surface as the array result's
        ``energy`` ledger (``totals()``, ``spread()``)."""
        return self.deployment.energy

    def summary(self) -> Dict[str, float]:
        return run_summary(
            self, self.messages.transmissions, self.messages.loss_rate
        )


def run_scenario(
    config: ScenarioConfig,
    tracer: Optional[Tracer] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> "ScenarioResult":
    """Build, run, and score one end-to-end scenario.

    ``tracer`` overrides the default in-memory :class:`RecordingTracer`
    -- pass a :class:`~repro.obs.spool.SpoolingTracer` to stream the
    trace to disk instead of holding it (soaks, campaigns).  ``profiler``
    attaches a :class:`~repro.obs.profiler.PhaseProfiler` to the
    simulator; its per-phase totals are appended to the trace as
    ``profile.phase`` records at run end.  Either way the run is stamped
    with a ``meta.scenario`` record so post-hoc analysis (``repro
    trace``) can recover phi/thop/seed from the trace alone.

    With ``engine="array"`` the run is delegated to
    :func:`repro.sim.array_engine.run_array_scenario`; the returned
    :class:`~repro.sim.array_engine.ArrayScenarioResult` exposes the
    same scoring surface (``summary()``, ``properties``, ``messages``,
    ``detection_latencies``, ``crash_times``, verdict-kind trace).
    """
    if config.engine == "array":
        from repro.sim.array_engine import run_array_scenario

        return run_array_scenario(config, tracer=tracer, profiler=profiler)

    rngs = RngFactory(config.seed)
    positions = multi_cluster_field(
        cluster_count=config.cluster_count,
        members_per_cluster=config.members_per_cluster,
        radius=config.transmission_range,
        rng=rngs.stream("placement"),
        spacing_factor=config.spacing_factor,
    )
    if tracer is None:
        tracer = RecordingTracer()
    network = build_network(
        positions,
        NetworkConfig(
            transmission_range=config.transmission_range,
            loss_probability=config.loss_probability,
            seed=config.seed,
        ),
        loss_model=config.loss_model(),
        tracer=tracer,
    )
    if profiler is not None:
        network.sim.profiler = profiler

    if config.formation == "oracle":
        graph = UnitDiskGraph(positions, radius=config.transmission_range)
        if config.max_backups is None:
            layout = build_clusters(graph)
        else:
            layout = build_clusters(graph, max_backups=config.max_backups)
        fds_start = 0.0
    else:
        formation_config = FormationConfig(
            thop=config.fds.thop,
            iterations=config.formation_iterations,
            backoff_fraction=config.formation_backoff_fraction,
        )
        layout = run_formation(network, formation_config)
        fds_start = network.sim.now + config.fds.thop

    energy = EnergyModel(EnergyConfig()) if config.track_energy else None
    deployment = install_fds(
        network, layout, config.fds, energy=energy, start_time=fds_start
    )

    injector = FailureInjector(network, config.fds, fds_start=fds_start)
    faultload = scenario_faultload(
        tuple(
            nid for nid in network.operational_ids() if nid not in layout.heads
        ),
        config.crash_count,
        config.executions,
        config.fds,
        rngs.stream("faultload"),
        fds_start=fds_start,
    )
    faultload.inject(injector)
    crash_times = {e.node_id: e.time for e in faultload.events}

    if tracer.enabled:
        stamp_run_header(
            tracer,
            network.sim.now,
            TraceMeta(
                phi=config.fds.phi,
                thop=config.fds.thop,
                nodes=len(network),
                seed=config.seed,
                executions=config.executions,
                fds_start=fds_start,
            ),
            layout_topology_detail(layout, positions),
        )

    deployment.run_executions(config.executions)
    stamp_profile(tracer, network.sim.now, profiler)

    return ScenarioResult(
        config=config,
        network=network,
        layout=layout,
        deployment=deployment,
        faultload=faultload,
        properties=evaluate_properties(deployment),
        messages=collect_message_counts(deployment),
        tracer=tracer,
        crash_times=crash_times,
    )
