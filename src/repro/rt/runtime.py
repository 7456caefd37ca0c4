"""The asyncio-UDP scenario runtime.

:func:`run_rt_scenario` is the runtime side of
:func:`repro.experiments.runner.run_scenario`: it builds the same seeded
field and cluster layout from the same named RNG streams, installs the
same :class:`~repro.fds.service.FdsProtocol` objects on the same
:class:`~repro.sim.node.SimNode` hosts -- but each host's ``sim`` is a
:class:`~repro.rt.substrate.WallClockScheduler` over the asyncio loop and
its ``medium`` is its own :class:`~repro.rt.substrate.UdpLink`: timers are
wall-clock callbacks, and every message crosses a real localhost socket
as a length-prefixed JSON frame (:mod:`repro.rt.codec`).

**Clock model.**  Protocol timing constants are *pre-scaled*: the wall
:class:`~repro.fds.config.FdsConfig` carries ``phi * time_scale`` and
``thop * time_scale`` seconds, and every trace timestamp is wall seconds
since the run epoch.  Because the trace's ``meta.scenario`` record
carries the *same* scaled phi/thop, all phi-unit analysis (``repro
trace latency``, the audit oracles) works unchanged; the meta record
additionally carries ``timebase="wall_ms"`` so displays label latencies
in milliseconds instead of phi units.

**Broadcast emulation.**  The unit-disk radio has no UDP analogue, so a
send fans out as one unicast datagram per in-range neighbor (computed
from the same seeded placement the simulator uses), each copy subject to
a seeded drop draw (the spec's loss model, private stream) and a uniform
``(0, max_delay]`` artificial delay -- mirroring
:class:`~repro.sim.medium.RadioMedium` semantics at the socket layer
(:meth:`UdpLink.transmit <repro.rt.substrate.UdpLink.transmit>`; the
graph, loss model, streams and counters it reads live on the runtime).

**Crash injection.**  The faultload (the simulator's own
:func:`~repro.failure.faultload.scenario_faultload`, so stream-identical)
is armed as ``scheduler.schedule_at(event.time, node.crash)``:
:meth:`SimNode.crash <repro.sim.node.SimNode.crash>` is the one
fail-stop procedure, and its ``medium.set_receiving(False)`` step is
where the victim's supervisor task is cancelled and its socket closes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Optional

from repro.cluster.geometric import build_clusters
from repro.cluster.state import ClusterLayout
from repro.errors import ConfigurationError
from repro.failure.faultload import Faultload, scenario_faultload
from repro.fds.config import FdsConfig
from repro.fds.service import FdsProtocol
from repro.metrics.properties import (
    LivenessView,
    PropertyReport,
    detection_latency,
    evaluate_properties,
    run_summary,
)
from repro.obs.analyze import WALL_TIMEBASE, TraceMeta, stamp_run_header
from repro.obs.spool import SpoolingTracer
from repro.obs.topology import layout_topology_detail
from repro.rt.collector import merge_spools
from repro.rt.substrate import UdpLink, WallClockScheduler
from repro.sim.loss import build_loss_model, loss_params
from repro.sim.node import SimNode
from repro.sim.trace import RecordingTracer, Tracer
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.types import NodeId
from repro.util.rng import RngFactory


@dataclass(frozen=True)
class RtScenario:
    """A seeded runtime scenario (field-compatible with
    :class:`repro.audit.differential.ScenarioSpec`, plus wall knobs).

    ``phi``/``thop`` are in *spec* (simulated) seconds; the runtime
    multiplies them by ``time_scale`` to get wall seconds, so one spec
    describes both the simulated and the real run of a differential
    pair.
    """

    seed: int = 0
    cluster_count: int = 2
    members_per_cluster: int = 8
    crash_count: int = 1
    executions: int = 3
    loss_kind: str = "perfect"
    loss_p: float = 0.1
    loss_budget: int = 2
    spacing_factor: float = 1.25
    max_backups: int = 2
    phi: float = 8.0
    thop: float = 0.5
    #: Wall seconds per spec second.  The default maps ``thop=0.5`` to a
    #: 25 ms round -- wide enough that asyncio timer jitter and socket
    #: latency stay well inside the round budget on a loaded CI host.
    time_scale: float = 0.05
    #: Wall seconds between the run epoch (socket binding) and the first
    #: FDS execution.
    warmup: float = 0.25
    transmission_range: float = 100.0

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ConfigurationError(
                f"time_scale must be positive, got {self.time_scale}"
            )
        if self.warmup < 0:
            raise ConfigurationError(
                f"warmup must be >= 0, got {self.warmup}"
            )

    @classmethod
    def from_spec(cls, spec, **overrides) -> "RtScenario":
        """Adopt a differential :class:`ScenarioSpec`-shaped object:
        every field the two share, then ``overrides``."""
        kwargs = {
            f.name: getattr(spec, f.name)
            for f in fields(cls)
            if hasattr(spec, f.name)
        }
        kwargs.update(overrides)
        return cls(**kwargs)

    def wall_config(self) -> FdsConfig:
        """The protocol config in wall seconds (all timing knobs scaled
        uniformly, so relative protocol timing is preserved exactly)."""
        spec_config = FdsConfig(phi=self.phi, thop=self.thop)
        return replace(
            spec_config,
            phi=spec_config.phi * self.time_scale,
            thop=spec_config.thop * self.time_scale,
            wait_slot=spec_config.wait_slot * self.time_scale,
        )


@dataclass
class RtResult:
    """Everything one runtime run produced."""

    scenario: RtScenario
    layout: ClusterLayout
    protocols: Dict[NodeId, FdsProtocol]
    nodes: Dict[NodeId, SimNode]
    config: FdsConfig
    fds_start: float
    faultload: Faultload
    crash_times: Dict[NodeId, float]
    tracer: Optional[Tracer]
    spool_dir: Optional[Path]
    merged_spool: Optional[Path]
    codec_errors: int = 0
    #: Copies the socket-layer loss model dropped.
    losses: int = 0
    network: LivenessView = field(init=False)
    properties: PropertyReport = field(init=False)

    def __post_init__(self) -> None:
        nodes = sorted(self.nodes.items())
        self.network = LivenessView(
            tuple(nid for nid, n in nodes if n.is_operational),
            tuple(nid for nid, n in nodes if not n.is_operational),
            self.config.run_end(self.fds_start, self.scenario.executions),
        )
        # The property oracles read ``network``/``layout``/``protocols``
        # off an FdsDeployment; this result carries the same three.
        self.properties = evaluate_properties(self)

    @property
    def detection_latencies(self) -> Dict[NodeId, Optional[float]]:
        """Crash-to-first-detection wall seconds per crashed node (from
        the in-memory tracer, or for spooled runs the merged spool)."""
        return detection_latency(
            self.tracer, self.crash_times, spool=self.merged_spool
        )

    def summary(self) -> Dict[str, float]:
        received = sum(n.received_count for n in self.nodes.values())
        attempted = received + self.losses
        summary = run_summary(
            self,
            sum(n.sent_count for n in self.nodes.values()),
            self.losses / attempted if attempted else 0.0,
        )
        summary["deliveries"] = float(received)
        summary["codec_errors"] = float(self.codec_errors)
        return summary


class RtRuntime:
    """One scenario's worth of UDP nodes on the running event loop.

    Build it, then ``await run()`` (or use :func:`run_rt_scenario` from
    synchronous code).  ``spool_dir`` switches tracing from one shared
    in-memory tracer to per-node JSONL spools in the existing spool
    format, merged at shutdown for ``repro trace``.
    """

    def __init__(
        self,
        scenario: RtScenario,
        tracer: Optional[Tracer] = None,
        spool_dir: Optional[Path] = None,
    ) -> None:
        self.scenario = scenario
        self.config = scenario.wall_config()
        rngs = RngFactory(scenario.seed)
        self.positions = multi_cluster_field(
            cluster_count=scenario.cluster_count,
            members_per_cluster=scenario.members_per_cluster,
            radius=scenario.transmission_range,
            rng=rngs.stream("placement"),
            spacing_factor=scenario.spacing_factor,
        )
        self.graph = UnitDiskGraph(
            self.positions, radius=scenario.transmission_range
        )
        self.layout = build_clusters(
            self.graph, max_backups=scenario.max_backups
        )
        self._faultload_rng = rngs.stream("faultload")
        # Loss and delay draws are runtime-private streams: the
        # differential never compares per-copy outcomes, only
        # loss-independent anchors (same policy as the array engine).
        self.loss_model = build_loss_model(
            scenario.loss_kind,
            loss_params(
                scenario.loss_kind, scenario.loss_p, scenario.loss_budget
            ),
            loss_probability=scenario.loss_p,
            transmission_range=scenario.transmission_range,
        )
        self.loss_rng = rngs.stream("rt", "loss")
        self.delay_rng = rngs.stream("rt", "delay")
        #: Artificial per-copy delay bound; same 0.2 * thop proportion as
        #: the simulator's default (max_delay=0.1 against thop=0.5).
        self.max_delay = 0.2 * self.config.thop

        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        if self.spool_dir is not None:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            self._shared_tracer: Optional[Tracer] = None
            self._run_tracer: Tracer = SpoolingTracer(
                self.spool_dir / "run.jsonl", flush_every=64
            )
        else:
            self._shared_tracer = tracer if tracer is not None else RecordingTracer()
            self._run_tracer = self._shared_tracer

        #: Made by :meth:`run` (it needs the running loop).
        self.scheduler: Optional[WallClockScheduler] = None
        self.nodes: Dict[NodeId, SimNode] = {}
        self.links: Dict[NodeId, UdpLink] = {}
        self.protocols: Dict[NodeId, FdsProtocol] = {}
        self._stop = asyncio.Event()
        self.codec_errors = 0
        self.losses = 0
        self.fds_start = 0.0
        self.faultload: Optional[Faultload] = None

    def _node_tracer(self, node_id: NodeId) -> Tracer:
        if self._shared_tracer is not None:
            return self._shared_tracer
        return SpoolingTracer(
            self.spool_dir / f"node-{int(node_id):05d}.jsonl", flush_every=64
        )

    async def run(self) -> RtResult:
        scenario = self.scenario
        config = self.config
        scheduler = self.scheduler = WallClockScheduler(
            asyncio.get_running_loop()
        )

        # One host per node, its socket bound before any protocol starts
        # (a link's address is its entry in the address book).
        for nid in sorted(self.positions):
            link = UdpLink(self, self._node_tracer(NodeId(nid)))
            self.links[NodeId(nid)] = link
            self.nodes[NodeId(nid)] = SimNode(
                NodeId(nid), self.positions[nid], scheduler, link
            )
            await link.open(self._stop)

        # First execution epoch: after warmup, and strictly in the future.
        self.fds_start = max(scenario.warmup, scheduler.now + 0.05)

        if self._run_tracer.enabled:
            # The run spool carries the cluster map too, so a merged rt
            # trace feeds the dashboard's /api/topology unchanged.
            stamp_run_header(
                self._run_tracer,
                scheduler.now,
                TraceMeta(
                    phi=config.phi,
                    thop=config.thop,
                    nodes=len(self.nodes),
                    seed=scenario.seed,
                    executions=scenario.executions,
                    fds_start=self.fds_start,
                    timebase=WALL_TIMEBASE,
                    time_scale=scenario.time_scale,
                ),
                layout_topology_detail(self.layout, self.positions),
            )

        # Same protocol objects as the simulator, on the same host class.
        for nid, node in sorted(self.nodes.items()):
            view = self.layout.local_view(nid)
            protocol = FdsProtocol(config, view)
            node.add_protocol(protocol)
            self.protocols[nid] = protocol
            protocol.start(self.fds_start, scenario.executions, first_index=0)

        self.faultload = scenario_faultload(
            tuple(
                nid for nid in sorted(self.nodes)
                if nid not in self.layout.heads
            ),
            scenario.crash_count,
            scenario.executions,
            config,
            self._faultload_rng,
            fds_start=self.fds_start,
        )
        crashes = [
            scheduler.schedule_at(event.time, self.nodes[event.node_id].crash)
            for event in self.faultload.events
        ]

        # A short drain past the run end lets the last delayed copies
        # land before sockets close.
        end = config.run_end(self.fds_start, scenario.executions)
        await asyncio.sleep(
            max(0.0, end - scheduler.now) + 2 * self.max_delay
        )

        # Clean shutdown: crashes that never fired stay unfired, timers
        # disarm, supervisor tasks end, sockets close, spools flush.
        for crash in crashes:
            scheduler.cancel(crash)
        for node in self.nodes.values():
            node.timers.stop_all()
        self._stop.set()
        for link in self.links.values():
            link.close()
        await asyncio.gather(
            *(link.task for link in self.links.values()),
            return_exceptions=True,
        )
        await asyncio.sleep(0)

        merged: Optional[Path] = None
        if self.spool_dir is not None:
            for link in self.links.values():
                link.tracer.close()
            self._run_tracer.close()
            merged = merge_spools(self.spool_dir)

        crash_times = {e.node_id: e.time for e in self.faultload.events}
        return RtResult(
            scenario=scenario,
            layout=self.layout,
            protocols=self.protocols,
            nodes=self.nodes,
            config=config,
            fds_start=self.fds_start,
            faultload=self.faultload,
            crash_times=crash_times,
            tracer=self._shared_tracer,
            spool_dir=self.spool_dir,
            merged_spool=merged,
            codec_errors=self.codec_errors,
            losses=self.losses,
        )


def run_rt_scenario(
    scenario: RtScenario,
    tracer: Optional[Tracer] = None,
    spool_dir: Optional[Path] = None,
) -> RtResult:
    """Run one runtime scenario to completion (synchronous entry point)."""
    runtime = RtRuntime(scenario, tracer=tracer, spool_dir=spool_dir)
    return asyncio.run(runtime.run())
