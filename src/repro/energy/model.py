"""Per-node energy accounting.

The paper assumes hosts harvest solar energy, making low-frequency heartbeat
diffusion sustainable, and prefers peer forwarding over CH/DCH
retransmission "because of energy-balancing considerations".  Absolute
joule figures are irrelevant to the protocol; what matters is each node's
*remaining energy fraction*, which drives the waiting-period policy.  The
model therefore tracks a normalized budget with fixed transmit/receive
costs and a linear harvest rate -- the four constants below, shared by
every node and by the array engine's
:class:`~repro.sim.array_engine.energy.ArrayEnergyLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.types import NodeId, SimTime

#: A full battery, in normalized units; every node starts full.
CAPACITY = 1000.0
#: Cost of one transmission.
TX_COST = 1.0
#: Cost of receiving one message.
RX_COST = 0.2
#: Units restored per simulated second, capped at :data:`CAPACITY`.
HARVEST_RATE = 0.05


@dataclass
class NodeEnergy:
    """One node's energy ledger."""

    level: float
    last_update: SimTime
    tx_count: int = 0
    rx_count: int = 0

    def fraction(self) -> float:
        """Remaining energy as a fraction of capacity, in ``[0, 1]``."""
        return max(0.0, min(1.0, self.level / CAPACITY))


class EnergyModel:
    """Tracks energy for a set of nodes.

    The model is observational: it never prevents a transmission (the paper
    does not model battery exhaustion), but its per-node remaining-energy
    fractions feed the waiting-period policy, and its totals feed the
    energy-cost metrics of the ablation benchmarks.
    """

    def __init__(self) -> None:
        self._nodes: Dict[NodeId, NodeEnergy] = {}

    def register(self, node_id: NodeId, now: SimTime) -> None:
        """Start tracking a node, with a full battery."""
        if node_id in self._nodes:
            raise ConfigurationError(f"node {node_id} already tracked")
        self._nodes[node_id] = NodeEnergy(level=CAPACITY, last_update=now)

    def _entry(self, node_id: NodeId) -> NodeEnergy:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigurationError(f"node {node_id} not tracked") from None

    def _harvest(self, entry: NodeEnergy, now: SimTime) -> None:
        elapsed = max(0.0, now - entry.last_update)
        entry.level = min(CAPACITY, entry.level + elapsed * HARVEST_RATE)
        entry.last_update = now

    def on_transmit(self, node_id: NodeId, now: SimTime) -> None:
        """Charge one transmission to a node."""
        entry = self._entry(node_id)
        self._harvest(entry, now)
        entry.level = max(0.0, entry.level - TX_COST)
        entry.tx_count += 1

    def on_receive(self, node_id: NodeId, now: SimTime) -> None:
        """Charge one reception to a node."""
        entry = self._entry(node_id)
        self._harvest(entry, now)
        entry.level = max(0.0, entry.level - RX_COST)
        entry.rx_count += 1

    def remaining_fraction(self, node_id: NodeId, now: SimTime) -> float:
        """Remaining energy fraction at ``now`` (harvest applied)."""
        entry = self._entry(node_id)
        self._harvest(entry, now)
        return entry.fraction()

    def totals(self) -> Dict[str, float]:
        """Aggregate counters for metrics."""
        return {
            "tx_total": float(sum(e.tx_count for e in self._nodes.values())),
            "rx_total": float(sum(e.rx_count for e in self._nodes.values())),
            "min_level": min((e.level for e in self._nodes.values()), default=0.0),
            "mean_level": (
                sum(e.level for e in self._nodes.values()) / len(self._nodes)
                if self._nodes
                else 0.0
            ),
        }

    def spread(self) -> float:
        """Max minus min remaining level -- the energy-balance figure.

        The ablation benchmark for peer forwarding vs CH retransmission
        reports this: balanced strategies keep the spread small.
        """
        if not self._nodes:
            return 0.0
        levels = [e.level for e in self._nodes.values()]
        return max(levels) - min(levels)
