"""The asyncio-UDP scenario runtime.

:class:`RtRuntime` is the runtime side of
:func:`repro.experiments.runner.run_scenario`: under the shared run
skeleton it builds the same seeded field and cluster layout from the
same named RNG streams, installs the same
:class:`~repro.fds.service.FdsProtocol` objects on the same
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

**Crash injection.**  The faultload is the skeleton's (so
stream-identical to the simulator's) and is armed as
``scheduler.schedule_at(event.time, node.crash)``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, Optional

from repro.experiments.runner import (
    Engine,
    RunResult,
    ScenarioConfig,
    run_engine,
    scenario_config,
)
from repro.failure.faultload import Faultload
from repro.fds.service import FdsProtocol
from repro.metrics.collectors import collect_message_counts
from repro.metrics.properties import LivenessView, evaluate_properties
from repro.obs.analyze import WALL_TIMEBASE
from repro.obs.spool import SpoolingTracer
from repro.rt.collector import merge_spools
from repro.rt.substrate import UdpLink, WallClockScheduler
from repro.sim.node import SimNode
from repro.sim.trace import Tracer
from repro.types import NodeId

#: A runtime-sized scenario in the flat spelling: the
#: :func:`~repro.experiments.runner.scenario_config` shorthand with
#: ``engine="rt"`` and a field small enough for wall time (``phi=8``
#: scenario seconds is 0.4 wall seconds at the default ``time_scale``).
RtScenario = partial(
    scenario_config,
    engine="rt",
    cluster_count=2,
    members_per_cluster=8,
    crash_count=1,
    executions=3,
    loss_p=0.1,
    phi=8.0,
)


@dataclass
class RtResult(RunResult):
    """A runtime run: the hosts and what the sockets saw ride along."""

    nodes: Dict[NodeId, SimNode] = field(default_factory=dict)
    merged_spool: Optional[Path] = None
    codec_errors: int = 0

    @property
    def spool(self) -> Optional[Path]:
        return self.merged_spool

    def summary(self) -> Dict[str, float]:
        summary = super().summary()
        summary["deliveries"] = float(self.messages.deliveries)
        summary["codec_errors"] = float(self.codec_errors)
        return summary


class RtRuntime(Engine):
    """One scenario's worth of UDP nodes (the ``"rt"`` engine).

    ``spool_dir`` switches tracing from one shared in-memory tracer to
    per-node JSONL spools in the existing spool format, merged at
    shutdown for ``repro trace``.
    """

    timebase = WALL_TIMEBASE
    result_class = RtResult

    def __init__(
        self,
        config: ScenarioConfig,
        tracer: Optional[Tracer] = None,
        spool_dir: Optional[Path] = None,
    ) -> None:
        # No profiler: wall-clock runs are timer-bound, phases are not
        # profiled (``WallClockScheduler.profiler`` is the null one).
        super().__init__(config, tracer)
        self.fds = config.wall_config()
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        if self.spool_dir is not None:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            #: The run-level spool (header, cluster map); nodes get their own.
            self.tracer = SpoolingTracer(
                self.spool_dir / "run.jsonl", flush_every=64
            )
        # Loss and delay draws are runtime-private streams: the
        # differential never compares per-copy outcomes, only
        # loss-independent anchors (same policy as the array engine).
        self.loss_model = config.loss_model()
        self.loss_rng = self.rngs.stream("rt", "loss")
        self.delay_rng = self.rngs.stream("rt", "delay")
        #: Artificial per-copy delay bound; same 0.2 * thop proportion as
        #: the simulator's default (max_delay=0.1 against thop=0.5).
        self.max_delay = 0.2 * self.fds.thop
        #: Made by :meth:`run` (it needs the running loop).
        self.scheduler: Optional[WallClockScheduler] = None
        self.nodes: Dict[NodeId, SimNode] = {}
        self.links: Dict[NodeId, UdpLink] = {}
        self.protocols: Dict[NodeId, FdsProtocol] = {}
        self.codec_errors = 0
        self.losses = 0
        self.merged_spool: Optional[Path] = None

    def prepare(self) -> None:
        self.place_field()
        self.graph = self.oracle_layout()
        # The run epoch is the instant the last socket is bound; the
        # first execution follows after warmup, strictly in the future.
        self.fds_start = max(self.config.warmup, 0.05)

    def arm(self, faultload: Faultload) -> None:
        self.faultload = faultload

    def _node_tracer(self, node_id: NodeId) -> Tracer:
        if self.spool_dir is None:
            return self.tracer
        return SpoolingTracer(
            self.spool_dir / f"node-{int(node_id):05d}.jsonl", flush_every=64
        )

    def run(self) -> None:
        asyncio.run(self._run())

    async def _run(self) -> None:
        stop = asyncio.Event()
        # One link per node, its socket bound before any protocol starts
        # (a link's address is its entry in the address book).
        for nid in sorted(self.positions):
            link = self.links[NodeId(nid)] = UdpLink(
                self, self._node_tracer(NodeId(nid))
            )
            await link.open(stop)
        scheduler = self.scheduler = WallClockScheduler(
            asyncio.get_running_loop()
        )

        # Same protocol objects as the simulator, on the same host class.
        for nid, link in self.links.items():
            node = self.nodes[nid] = SimNode(
                nid, self.positions[nid], scheduler, link
            )
            protocol = self.protocols[nid] = FdsProtocol(
                self.fds, self.layout.local_view(nid)
            )
            node.add_protocol(protocol)
            protocol.start(
                self.fds_start, self.config.executions, first_index=0
            )
        # SimNode.crash is the one fail-stop procedure; its
        # ``medium.set_receiving(False)`` step is where the victim's
        # supervisor task is cancelled and its socket closes.
        crashes = [
            scheduler.schedule_at(event.time, self.nodes[event.node_id].crash)
            for event in self.faultload.events
        ]

        # A short drain past the run end lets the last delayed copies
        # land before sockets close.
        end = self.fds.run_end(self.fds_start, self.config.executions)
        await asyncio.sleep(
            max(0.0, end - scheduler.now) + 2 * self.max_delay
        )

        # Clean shutdown: crashes that never fired stay unfired, timers
        # disarm, supervisor tasks end, sockets close, spools flush.
        for crash in crashes:
            scheduler.cancel(crash)
        for node in self.nodes.values():
            node.timers.stop_all()
        stop.set()
        for link in self.links.values():
            link.close()
        await asyncio.gather(
            *(link.task for link in self.links.values()),
            return_exceptions=True,
        )
        await asyncio.sleep(0)

        if self.spool_dir is not None:
            for link in self.links.values():
                link.tracer.close()
            self.tracer.close()
            self.merged_spool = merge_spools(self.spool_dir)

    def score(self) -> Dict[str, Any]:
        nodes = sorted(self.nodes.items())
        self.network = LivenessView(
            tuple(nid for nid, n in nodes if n.is_operational),
            tuple(nid for nid, n in nodes if not n.is_operational),
            self.fds.run_end(self.fds_start, self.config.executions),
        )
        # The scorers read ``network``/``layout``/``protocols`` off an
        # FdsDeployment; this engine carries the same three.
        return dict(
            network=self.network,
            properties=evaluate_properties(self),
            messages=collect_message_counts(self, {
                "transmissions": sum(n.sent_count for _, n in nodes),
                "deliveries": sum(n.received_count for _, n in nodes),
                "losses": self.losses,
            }),
            nodes=self.nodes,
            merged_spool=self.merged_spool,
            codec_errors=self.codec_errors,
        )


def run_rt_scenario(
    config: ScenarioConfig,
    tracer: Optional[Tracer] = None,
    spool_dir: Optional[Path] = None,
) -> RtResult:
    """Run one scenario over real sockets to completion (what
    ``run_scenario(config)`` dispatches to for ``engine="rt"``)."""
    return run_engine(RtRuntime(config, tracer, spool_dir))
