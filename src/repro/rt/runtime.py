"""The asyncio-UDP scenario runtime.

:func:`run_rt_scenario` is the runtime side of
:func:`repro.experiments.runner.run_scenario`: it builds the same seeded
field and cluster layout from the same named RNG streams, installs the
same :class:`~repro.fds.service.FdsProtocol` objects -- but each node is
an :class:`~repro.rt.substrate.RtNode` hosted by an asyncio task and
bound to its own localhost UDP socket, timers are wall-clock
``call_later`` callbacks, and every message crosses a real socket as a
length-prefixed JSON frame (:mod:`repro.rt.codec`).

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
:class:`~repro.sim.medium.RadioMedium` semantics at the socket layer.

**Crash injection.**  The faultload (the simulator's own
:func:`~repro.failure.faultload.scenario_faultload`, so stream-identical)
kills each victim at its
wall-scaled crash time: the node fail-stops, its supervisor task is
cancelled, and its socket closes.
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
from repro.obs.profiler import NULL_PROFILER
from repro.obs.spool import SpoolingTracer
from repro.obs.topology import layout_topology_detail
from repro.rt.codec import CodecError, decode_frame, encode_frame
from repro.rt.collector import merge_spools
from repro.rt.faults import CrashDriver
from repro.rt.substrate import RtNode
from repro.sim.loss import build_loss_model, loss_params
from repro.sim.medium import Envelope, draw_delays
from repro.sim.trace import RecordingTracer, Tracer
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.types import NodeId
from repro.util.rng import RngFactory

#: Trace kind emitted when an undecodable datagram is dropped.
CODEC_ERROR_KIND = "rt.codec_error"


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
    nodes: Dict[NodeId, RtNode]
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


class _NodeDatagramProtocol(asyncio.DatagramProtocol):
    """One node's socket: decode, trace, deliver -- and never die."""

    def __init__(self, runtime: "RtRuntime", node: RtNode) -> None:
        self._runtime = runtime
        self._node = node

    def datagram_received(self, data: bytes, addr) -> None:
        runtime = self._runtime
        node = self._node
        now = runtime.now
        try:
            frame = decode_frame(data)
        except CodecError as exc:
            runtime.codec_errors += 1
            if node.tracer.enabled:
                node.tracer.record(
                    now,
                    CODEC_ERROR_KIND,
                    node=int(node.node_id),
                    error=str(exc),
                )
            return
        envelope = Envelope(
            sender=frame.sender,
            recipient=frame.recipient,
            payload=frame.payload,
            sent_at=frame.sent_at,
            received_at=now,
            overheard=(
                frame.recipient is not None
                and frame.recipient != node.node_id
            ),
        )
        if node.is_operational and node.tracer.enabled:
            node.tracer.record(
                now,
                "radio.rx",
                node=int(node.node_id),
                sender=int(frame.sender),
                overheard=envelope.overheard,
                latency=now - frame.sent_at,
            )
        node.deliver(envelope)

    def error_received(self, exc) -> None:  # pragma: no cover - platform
        # ICMP errors from a crashed peer's closed port are expected noise.
        pass


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
        self._loss_rng = rngs.stream("rt", "loss")
        self._delay_rng = rngs.stream("rt", "delay")
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
        self._node_spools: Dict[NodeId, SpoolingTracer] = {}

        self.nodes: Dict[NodeId, RtNode] = {}
        self.protocols: Dict[NodeId, FdsProtocol] = {}
        self._transports: Dict[NodeId, asyncio.DatagramTransport] = {}
        self._addrs: Dict[NodeId, tuple] = {}
        self._tasks: Dict[NodeId, asyncio.Task] = {}
        self._stop = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epoch = 0.0
        self.codec_errors = 0
        self.losses = 0
        self.fds_start = 0.0
        self.faultload: Optional[Faultload] = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall seconds since the run epoch (the substrate clock)."""
        assert self._loop is not None
        return self._loop.time() - self._epoch

    def _node_tracer(self, node_id: NodeId) -> Tracer:
        if self.spool_dir is None:
            assert self._shared_tracer is not None
            return self._shared_tracer
        spool = SpoolingTracer(
            self.spool_dir / f"node-{int(node_id):05d}.jsonl", flush_every=64
        )
        self._node_spools[node_id] = spool
        return spool

    # ------------------------------------------------------------------
    # Link layer (broadcast emulation over unicast UDP)
    # ------------------------------------------------------------------
    def transmit(
        self, sender: NodeId, payload: object, recipient: Optional[NodeId]
    ) -> int:
        """Fan ``payload`` out to every in-range neighbor of ``sender``."""
        now = self.now
        frame = encode_frame(sender, recipient, now, payload)
        tracer = self.nodes[sender].tracer
        if tracer.enabled:
            tracer.record(
                now,
                "radio.tx",
                node=int(sender),
                recipient=None if recipient is None else int(recipient),
            )
        assert self._loop is not None
        sent = 0
        for neighbor in self.graph.neighbors(sender):
            distance = self.graph.distance(sender, neighbor)
            if self.loss_model.is_lost(
                sender, neighbor, distance, now, self._loss_rng
            ):
                self.losses += 1
                if tracer.enabled:
                    tracer.record(
                        now,
                        "radio.loss",
                        node=int(neighbor),
                        sender=int(sender),
                    )
                continue
            delay = float(draw_delays(self._delay_rng, self.max_delay, 1)[0])
            self._loop.call_later(
                delay, self._sendto, sender, frame, neighbor
            )
            sent += 1
        return sent

    def _sendto(self, sender: NodeId, frame: bytes, neighbor: NodeId) -> None:
        transport = self._transports.get(sender)
        if transport is None or transport.is_closing():
            return  # the sender crashed while the copy was in flight
        addr = self._addrs.get(neighbor)
        if addr is not None:
            transport.sendto(frame, addr)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash_node(self, node_id: NodeId) -> None:
        """Fail-stop one node: mute it, kill its task, close its socket."""
        node = self.nodes[node_id]
        if not node.is_operational:
            return
        node.crash()
        task = self._tasks.get(node_id)
        if task is not None and not task.done():
            task.cancel()
        transport = self._transports.pop(node_id, None)
        if transport is not None:
            transport.close()

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    async def _node_main(self, node: RtNode) -> None:
        """Per-node supervisor: alive until shutdown or crash-cancel."""
        try:
            await self._stop.wait()
        except asyncio.CancelledError:
            pass

    async def run(self) -> RtResult:
        scenario = self.scenario
        config = self.config
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._epoch = loop.time()

        # Bind one UDP socket per node, then publish the address book.
        for nid in sorted(self.positions):
            node = RtNode(
                NodeId(nid),
                self.positions[nid],
                loop,
                link=self,
                clock=lambda: self.now,
                tracer=self._node_tracer(NodeId(nid)),
                profiler=NULL_PROFILER,
            )
            self.nodes[NodeId(nid)] = node
            transport, _protocol = await loop.create_datagram_endpoint(
                lambda node=node: _NodeDatagramProtocol(self, node),
                local_addr=("127.0.0.1", 0),
            )
            self._transports[NodeId(nid)] = transport
            self._addrs[NodeId(nid)] = transport.get_extra_info("sockname")

        # First execution epoch: after warmup, and strictly in the future.
        self.fds_start = max(scenario.warmup, self.now + 0.05)

        if self._run_tracer.enabled:
            # The run spool carries the cluster map too, so a merged rt
            # trace feeds the dashboard's /api/topology unchanged.
            stamp_run_header(
                self._run_tracer,
                self.now,
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

        # Same protocol objects as the simulator, on the rt substrate.
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
        driver = CrashDriver(loop, self)
        driver.schedule(self.faultload)

        for nid, node in self.nodes.items():
            self._tasks[nid] = loop.create_task(self._node_main(node))

        # A short drain past the run end lets the last delayed copies
        # land before sockets close.
        end = config.run_end(self.fds_start, scenario.executions)
        await asyncio.sleep(max(0.0, end - self.now) + 2 * self.max_delay)

        # Clean shutdown: crashes that never fired stay unfired, timers
        # disarm, supervisor tasks end, sockets close, spools flush.
        driver.cancel_pending()
        for node in self.nodes.values():
            node.timers.stop_all()
        self._stop.set()
        for task in self._tasks.values():
            if not task.done():
                task.cancel()
        await asyncio.gather(*self._tasks.values(), return_exceptions=True)
        for transport in self._transports.values():
            transport.close()
        self._transports.clear()
        await asyncio.sleep(0)

        merged: Optional[Path] = None
        if self.spool_dir is not None:
            for spool in self._node_spools.values():
                spool.close()
            if isinstance(self._run_tracer, SpoolingTracer):
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
