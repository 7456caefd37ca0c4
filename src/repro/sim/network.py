"""Network assembly: engine + medium + nodes from a placement.

:func:`build_network` is the main entry point used by examples, tests and
experiments: give it positions (or a placement from
:mod:`repro.topology.placement`), a loss model, and a seed, and it returns a
ready :class:`Network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss, LossModel
from repro.sim.medium import RadioMedium
from repro.sim.node import SimNode
from repro.sim.trace import NullTracer, Tracer
from repro.types import NodeId
from repro.util.geometry import Vec2
from repro.util.rng import RngFactory


@dataclass
class NetworkConfig:
    """Parameters shared by a whole simulated network.

    Defaults mirror the paper's analysis setting: transmission range of
    100 meters and iid message loss with probability ``loss_probability``.
    ``max_delay`` is the per-hop delivery bound; protocol round durations
    (``Thop``) must be chosen at least this large.
    """

    transmission_range: float = 100.0
    loss_probability: float = 0.1
    max_delay: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.transmission_range <= 0:
            raise ConfigurationError("transmission_range must be positive")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigurationError("loss_probability must be in [0, 1]")
        if self.max_delay <= 0:
            raise ConfigurationError("max_delay must be positive")


class Network:
    """A fully wired simulated network."""

    def __init__(
        self,
        sim: Simulator,
        medium: RadioMedium,
        nodes: Mapping[NodeId, SimNode],
        rngs: RngFactory,
        tracer: Tracer,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.nodes: Dict[NodeId, SimNode] = dict(nodes)
        self.rngs = rngs
        self.tracer = tracer

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: NodeId) -> SimNode:
        """The node with the given NID."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ConfigurationError(f"no node with id {node_id}") from None

    def operational_ids(self) -> tuple[NodeId, ...]:
        """Ground-truth operational NIDs, sorted."""
        return tuple(
            sorted(nid for nid, n in self.nodes.items() if n.is_operational)
        )

    def crashed_ids(self) -> tuple[NodeId, ...]:
        """Ground-truth crashed NIDs, sorted."""
        return tuple(
            sorted(nid for nid, n in self.nodes.items() if not n.is_operational)
        )

    def crash(self, node_id: NodeId) -> None:
        """Fail-stop the given node now."""
        self.node(node_id).crash()


def build_network(
    positions: Mapping[int, Vec2] | Sequence[Vec2],
    config: Optional[NetworkConfig] = None,
    loss_model: Optional[LossModel] = None,
    tracer: Optional[Tracer] = None,
) -> Network:
    """Assemble a :class:`Network` from node positions.

    ``positions`` is either a mapping NID -> position or a sequence (NIDs
    are then assigned 0..n-1).  If ``loss_model`` is omitted, a
    :class:`BernoulliLoss` with ``config.loss_probability`` is used -- the
    paper's model.
    """
    cfg = config if config is not None else NetworkConfig()
    if not isinstance(positions, Mapping):
        positions = {NodeId(i): pos for i, pos in enumerate(positions)}
    if not positions:
        raise ConfigurationError("a network needs at least one node")
    rngs = RngFactory(cfg.seed)
    sim = Simulator()
    model = loss_model if loss_model is not None else BernoulliLoss(cfg.loss_probability)
    trc = tracer if tracer is not None else NullTracer()
    medium = RadioMedium(
        sim,
        transmission_range=cfg.transmission_range,
        loss_model=model,
        rng=rngs.stream("medium"),
        max_delay=cfg.max_delay,
        tracer=trc,
    )
    nodes = {
        NodeId(nid): SimNode(NodeId(nid), pos, sim, medium)
        for nid, pos in sorted(positions.items())
    }
    return Network(sim=sim, medium=medium, nodes=nodes, rngs=rngs, tracer=trc)
