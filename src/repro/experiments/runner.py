"""The scenario description and the run skeleton, for every substrate.

:class:`ScenarioConfig` is the one description of a run (the field, the
crash schedule, the loss model, phi/Thop, which engine executes it) and
:func:`run_scenario` the one way to run it.  The skeleton
(:func:`run_engine`) owns the order -- seed, field and layout, FDS
epoch, faultload, run header, run, score, profile stamp, result -- and
an :class:`Engine` (event here, array in
:mod:`repro.sim.array_engine.runner`, rt in :mod:`repro.rt.runtime`)
supplies only what is substrate-specific.  Every engine returns a
:class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.formation import (
    FormationConfig,
    check_round_synchrony,
    run_formation,
)
from repro.cluster.geometric import build_clusters
from repro.energy.model import EnergyModel
from repro.errors import ConfigurationError, ExperimentError
from repro.failure.faultload import Faultload, scenario_faultload
from repro.failure.injection import FailureInjector
from repro.fds.config import FdsConfig
from repro.fds.service import FdsDeployment, install_fds
from repro.metrics.collectors import MessageCounts, collect_message_counts
from repro.metrics.properties import PropertyReport, evaluate_properties
from repro.obs.analyze import TraceMeta, stamp_profile, stamp_run_header
from repro.obs.profiler import PhaseProfiler
from repro.obs.spool import iter_spool
from repro.obs.topology import array_topology_detail
from repro.obs.verdicts import VerdictTimeline
from repro.sim.loss import LossModel, build_loss_model, loss_params
from repro.sim.network import NetworkConfig, build_network
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
    #: Protocol timing in scenario seconds (``engine="rt"`` runs it
    #: scaled by ``time_scale``, see :meth:`wall_config`).
    fds: FdsConfig = field(default_factory=FdsConfig)
    #: ``"oracle"`` builds clusters geometrically; ``"protocol"`` runs the
    #: distributed formation over the lossy medium first.
    formation: str = "oracle"
    #: Formation iterations (F4 has no termination rule; this is how many
    #: six-round iterations the protocol runs).  Only used with
    #: ``formation="protocol"``.
    formation_iterations: int = 3
    #: Upper bound of the RCC declaration backoff as a fraction of a
    #: round (see :func:`repro.cluster.rcc.declaration_backoff`); must
    #: keep formation rounds synchronous (``check_round_synchrony``).
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
    #: across the whole field and scales to 10^6 nodes; ``"rt"`` runs the
    #: same protocol objects over localhost UDP sockets and wall-clock
    #: timers (:mod:`repro.rt.runtime`).  Same placement and faultload
    #: streams on all three; loss draws are engine-private.
    engine: str = "event"
    #: Wall seconds per scenario second (``engine="rt"`` only).  The
    #: default maps ``thop=0.5`` to a 25 ms round -- wide enough that
    #: asyncio timer jitter and socket latency stay well inside the round
    #: budget on a loaded CI host.
    time_scale: float = 0.05
    #: Wall seconds between the rt run epoch (every socket bound) and the
    #: first FDS execution (``engine="rt"`` only).
    warmup: float = 0.25

    def __post_init__(self) -> None:
        if self.formation not in ("oracle", "protocol"):
            raise ExperimentError(
                f"formation must be 'oracle' or 'protocol', got "
                f"{self.formation!r}"
            )
        if self.engine not in ("event", "array", "rt"):
            raise ExperimentError(
                f"engine must be 'event', 'array' or 'rt', got "
                f"{self.engine!r}"
            )
        if self.engine == "rt" and (
            self.formation != "oracle" or self.track_energy
        ):
            raise ExperimentError(
                "engine 'rt' runs oracle formation without the energy ledger"
            )
        try:
            self.loss_model()
        except ConfigurationError as exc:
            raise ExperimentError(str(exc)) from exc
        if self.crash_count < 0:
            raise ExperimentError("crash_count must be >= 0")
        # Every crash lands at the same offset into its interval, and on
        # every engine (rt scales phi and thop alike) it must miss the
        # execution window.
        crash = self.fds.crash_time(0.0, 1)
        window = self.fds.execution_duration()
        if self.crash_count and crash < window:
            raise ExperimentError(
                f"a crash {crash} s into the interval falls inside the FDS "
                f"execution window ({window} s); increase phi or shrink thop"
            )
        if self.formation_iterations < 1:
            raise ExperimentError("formation_iterations must be >= 1")
        if not 0.0 < self.formation_backoff_fraction <= 0.9:
            raise ExperimentError(
                "formation_backoff_fraction must be in (0, 0.9], got "
                f"{self.formation_backoff_fraction!r}"
            )
        if self.executions < 1:
            raise ExperimentError("executions must be >= 1")
        if self.formation == "protocol":
            # On every engine, against the event engine's medium (its
            # NetworkConfig keeps the default max_delay).
            check_round_synchrony(
                self.fds.thop, self.formation_backoff_fraction,
                NetworkConfig.max_delay, ExperimentError,
            )
        if self.time_scale <= 0:
            raise ConfigurationError(
                f"time_scale must be positive, got {self.time_scale}"
            )
        if self.warmup < 0:
            raise ConfigurationError(
                f"warmup must be >= 0, got {self.warmup}"
            )

    def loss_model(self) -> LossModel:
        """A fresh loss model parsed from the (kind, params) spec."""
        return build_loss_model(
            self.loss_kind,
            self.loss_params,
            loss_probability=self.loss_probability,
            transmission_range=self.transmission_range,
        )

    def layout_knobs(self) -> Dict[str, int]:
        """Deputies per cluster and backups per boundary -- the keywords
        of every layout builder (oracle or protocol, any engine)."""
        return {
            "deputy_count": self.fds.deputy_count,
            "max_backups": 2 if self.max_backups is None else self.max_backups,
        }

    def formation_config(self) -> FormationConfig:
        """The distributed-formation tuning (``formation="protocol"``)."""
        return FormationConfig(
            thop=self.fds.thop,
            iterations=self.formation_iterations,
            backoff_fraction=self.formation_backoff_fraction,
            **self.layout_knobs(),
        )

    def wall_config(self) -> FdsConfig:
        """The protocol config in rt wall seconds (all timing knobs scaled
        uniformly, so relative protocol timing is preserved exactly)."""
        return replace(
            self.fds,
            phi=self.fds.phi * self.time_scale,
            thop=self.fds.thop * self.time_scale,
            wait_slot=self.fds.wait_slot * self.time_scale,
        )


def scenario_config(
    *,
    loss_p: float = 0.3,
    loss_budget: int = 2,
    phi: float = 20.0,
    thop: float = 0.5,
    **config_fields: Any,
) -> ScenarioConfig:
    """The flat soak/runtime spelling of a :class:`ScenarioConfig`.

    One loss intensity ``loss_p`` (plus the bounded adversary's
    ``loss_budget``) expands per ``loss_kind`` through
    :func:`repro.sim.loss.loss_params`, and ``phi``/``thop`` become the
    ``fds`` timing.  ``phi`` defaults generously relative to ``thop`` so
    the round-structure audit stays applicable (simulated idle time is
    free); the other defaults are the centre of the soak distribution
    (tight 12-member clusters over perfect links).
    """
    unknown = set(config_fields) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        raise ConfigurationError(
            f"unknown scenario keywords {sorted(unknown)}"
        )
    values: Dict[str, Any] = dict(
        members_per_cluster=12,
        loss_kind="perfect",
        spacing_factor=1.25,
        max_backups=2,
        loss_probability=loss_p,
        fds=FdsConfig(phi=phi, thop=thop),
    )
    values.update(config_fields)
    values.setdefault(
        "loss_params", loss_params(values["loss_kind"], loss_p, loss_budget)
    )
    return ScenarioConfig(**values)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """What one run produced, on any engine."""

    config: ScenarioConfig
    #: The protocol config in the run's own timebase (``config.fds``, or
    #: its wall-scaled copy on rt); ``fds_start`` and every trace and
    #: crash time are in the same timebase.
    fds: FdsConfig
    fds_start: SimTime
    #: The run's ``ArrayLayout`` (node index = NID), on every engine.
    layout: Any
    #: Ground-truth liveness at the end of the run: ``operational_ids()``,
    #: ``crashed_ids()``, ``len()`` and the clock ``sim.now``.
    network: Any
    faultload: Faultload
    crash_times: Dict[NodeId, SimTime]
    properties: PropertyReport
    messages: MessageCounts
    tracer: Tracer
    #: Per-node energy accounting (``totals()``, ``spread()``), populated
    #: iff ``config.track_energy``.
    energy: Optional[Any] = None

    @property
    def losses(self) -> int:
        """Copies the run's loss model dropped."""
        return self.messages.losses

    @property
    def spool(self) -> Optional[Path]:
        """The complete trace on disk, if the run left one: the file of a
        spooling tracer, once it is closed."""
        tracer = self.tracer
        return tracer.path if getattr(tracer, "closed", False) else None

    @property
    def verdicts(self) -> Optional[VerdictTimeline]:
        """The run's detections and refutations against its
        :attr:`crash_times`: from the in-memory trace, else from
        :attr:`spool`; ``None`` with neither (a ``NullTracer``, a spooler
        still open -- ``repro trace`` reads the file once it is closed)."""
        if isinstance(self.tracer, RecordingTracer):
            return VerdictTimeline.read(self.tracer, self.crash_times)
        if self.spool is not None:
            return VerdictTimeline.read(iter_spool(self.spool), self.crash_times)
        return None

    @property
    def detection_latencies(self) -> Dict[NodeId, Optional[SimTime]]:
        """Seconds from each crash to its first detection at or after it
        (``None`` if none, or if the run kept no :attr:`verdicts`).

        The anchor is :attr:`crash_times`, the scheduled crash instants.
        On rt that is the schedule, not the wall-clock instant the kill
        ran, which is what the spool's ``sim.crash`` record holds and
        ``repro trace latency`` measures from; the two differ by the
        scheduler's lateness.
        """
        verdicts = self.verdicts
        if verdicts is None:
            return dict.fromkeys(self.crash_times)
        return verdicts.latencies()

    def summary(self) -> Dict[str, float]:
        """The headline numbers of the run -- same keys on every engine."""
        detected = [
            v for v in self.detection_latencies.values() if v is not None
        ]
        return {
            "nodes": float(len(self.network)),
            "clusters": float(len(self.layout.clusters)),
            "crashes": float(len(self.faultload)),
            "mean_completeness": self.properties.mean_completeness,
            "accuracy_violations": float(
                len(self.properties.accuracy_violations)
            ),
            "transmissions": float(self.messages.transmissions),
            "observed_loss_rate": self.messages.loss_rate,
            "mean_detection_latency": (
                float(sum(detected) / len(detected)) if detected else 0.0
            ),
        }


@dataclass
class ScenarioResult(RunResult):
    """An event-engine run: the live deployment rides along."""

    deployment: Optional[FdsDeployment] = None


# ----------------------------------------------------------------------
# Engines and the skeleton
# ----------------------------------------------------------------------
class Engine:
    """What a substrate supplies to :func:`run_engine`.

    :meth:`prepare` sets ``layout``, ``fds_start``, ``node_count`` and
    ``header_time``; the other hooks are called in the order they are
    declared here.
    """

    #: The ``meta.scenario`` timebase of the engine's traces.
    timebase = "phi"
    result_class = RunResult
    #: When the run header is stamped, in the run's timebase.
    header_time: SimTime = 0.0

    def __init__(
        self,
        config: ScenarioConfig,
        tracer: Optional[Tracer] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.config = config
        self.rngs = RngFactory(config.seed)
        self.tracer = tracer if tracer is not None else RecordingTracer()
        self.profiler = profiler
        #: The protocol config in the run's timebase.
        self.fds = config.fds

    def prepare(self) -> None:
        """Place the field, build the layout, fix the FDS epoch."""
        raise NotImplementedError

    def place_field(self) -> None:
        """The seeded lattice of the scalar engines (``positions``)."""
        config = self.config
        self.positions = multi_cluster_field(
            cluster_count=config.cluster_count,
            members_per_cluster=config.members_per_cluster,
            radius=config.transmission_range,
            rng=self.rngs.stream("placement"),
            spacing_factor=config.spacing_factor,
        )
        self.node_count = len(self.positions)

    def oracle_layout(self) -> UnitDiskGraph:
        """Set the geometric ``layout`` of the placed field; returns the
        radio graph it was cut from."""
        graph = UnitDiskGraph(
            self.positions, radius=self.config.transmission_range
        )
        self.layout = build_clusters(graph, **self.config.layout_knobs()).array
        return graph

    def heads(self) -> Sequence[int]:
        """Clusterhead NIDs (never crash candidates)."""
        return self.layout.head_nids

    def topology_detail(self) -> Dict[str, object]:
        return array_topology_detail(self.layout)

    def arm(self, faultload: Faultload) -> None:
        """Schedule the crashes."""
        raise NotImplementedError

    def run(self) -> None:
        """Execute ``config.executions`` FDS executions."""
        raise NotImplementedError

    def score(self) -> Dict[str, Any]:
        """The engine's share of the result: ``network``, ``properties``,
        ``messages`` and any field of its own result class."""
        raise NotImplementedError


class EventEngine(Engine):
    """The discrete-event simulator: the scalar reference."""

    result_class = ScenarioResult

    def prepare(self) -> None:
        config = self.config
        self.place_field()
        network = self.network = build_network(
            self.positions,
            NetworkConfig(
                transmission_range=config.transmission_range,
                loss_probability=config.loss_probability,
                seed=config.seed,
            ),
            loss_model=config.loss_model(),
            tracer=self.tracer,
        )
        if self.profiler is not None:
            network.sim.profiler = self.profiler
        if config.formation == "oracle":
            self.oracle_layout()
            self.fds_start = 0.0
        else:
            self.layout = run_formation(network, config.formation_config())
            self.fds_start = network.sim.now + config.fds.thop
        self.header_time = network.sim.now
        self.deployment = install_fds(
            network,
            self.layout,
            config.fds,
            energy=EnergyModel() if config.track_energy else None,
            start_time=self.fds_start,
        )

    def arm(self, faultload: Faultload) -> None:
        faultload.inject(
            FailureInjector(self.network, self.fds, fds_start=self.fds_start)
        )

    def run(self) -> None:
        self.deployment.run_executions(self.config.executions)

    def score(self) -> Dict[str, Any]:
        return dict(
            network=self.network,
            properties=evaluate_properties(self.deployment),
            messages=collect_message_counts(self.deployment),
            energy=self.deployment.energy,
            deployment=self.deployment,
        )


def run_engine(engine: Engine) -> RunResult:
    """The run skeleton: the one order every substrate runs in."""
    config, tracer = engine.config, engine.tracer
    engine.prepare()
    # Crash candidates: NIDs ascending, heads excluded (unclustered
    # nodes stay candidates).  One stream, one draw order, so a seed
    # crashes the same nodes in the same executions on every engine.
    faultload = scenario_faultload(
        np.setdiff1d(
            np.arange(engine.node_count, dtype=np.int64),
            engine.heads(),
            assume_unique=True,
        ),
        config.crash_count,
        config.executions,
        engine.fds,
        engine.rngs.stream("faultload"),
        fds_start=engine.fds_start,
    )
    if tracer.enabled:
        stamp_run_header(
            tracer,
            engine.header_time,
            TraceMeta(
                phi=engine.fds.phi,
                thop=engine.fds.thop,
                nodes=engine.node_count,
                seed=config.seed,
                executions=config.executions,
                fds_start=engine.fds_start,
                timebase=engine.timebase,
                time_scale=config.time_scale,
            ),
            engine.topology_detail(),
        )
    engine.arm(faultload)
    engine.run()
    result = engine.result_class(
        config=config,
        fds=engine.fds,
        fds_start=engine.fds_start,
        layout=engine.layout,
        faultload=faultload,
        crash_times={e.node_id: e.time for e in faultload.events},
        tracer=tracer,
        **engine.score(),
    )
    stamp_profile(tracer, result.network.sim.now, engine.profiler)
    return result


def run_scenario(
    config: ScenarioConfig,
    tracer: Optional[Tracer] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> RunResult:
    """Build, run, and score one end-to-end scenario on ``config.engine``.

    ``tracer`` overrides the default in-memory :class:`RecordingTracer`
    -- pass a :class:`~repro.obs.spool.SpoolingTracer` to stream the
    trace to disk instead of holding it (soaks, campaigns).  ``profiler``
    attaches a :class:`~repro.obs.profiler.PhaseProfiler` (event and
    array; rt is timer-bound and has no phases); its per-phase totals are
    appended to the trace as ``profile.phase`` records at run end.
    Either way the run is stamped with a ``meta.scenario`` record
    so post-hoc analysis (``repro trace``) can recover phi/thop/seed from
    the trace alone.
    """
    if config.engine == "array":
        from repro.sim.array_engine.runner import run_array_scenario

        return run_array_scenario(config, tracer=tracer, profiler=profiler)
    if config.engine == "rt":
        from repro.rt.runtime import run_rt_scenario

        return run_rt_scenario(config, tracer=tracer)
    return run_engine(EventEngine(config, tracer, profiler))
