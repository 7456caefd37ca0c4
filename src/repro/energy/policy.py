"""The energy-balanced waiting-period policy for peer forwarding.

Section 4.2: when a node broadcasts a forwarding request, each in-cluster
neighbor "will set a waiting period for the requested forwarding.  The
waiting period could be a function of the node's NID (which is globally
unique in the network) and be inversely proportional to the node's
remaining energy, which would allow each of v's neighbors to have a unique
waiting period and would balance energy."

Our concrete instantiation::

    wait(nid, e) = slot * (1 + (nid mod WAIT_MODULUS)) / max(e, ENERGY_FLOOR)

- the NID term gives every neighbor a distinct base slot (NIDs are unique,
  and :data:`WAIT_MODULUS` is larger than any plausible cluster
  population, so the modulus preserves distinctness within a cluster);
- dividing by the remaining-energy fraction ``e`` pushes low-energy nodes
  later, so high-energy nodes win the race and pay the forwarding cost;
- :data:`ENERGY_FLOOR` bounds the delay for nearly drained nodes.

``slot`` is the protocol's ``FdsConfig.wait_slot``; the modulus and the
floor are the constants below.
"""

from __future__ import annotations

from repro.types import NodeId
from repro.util.validation import check_positive, check_probability

#: NID slots the waiting period spreads a cluster's neighbors over.
WAIT_MODULUS = 128
#: Lowest remaining-energy fraction the waiting period divides by.
ENERGY_FLOOR = 0.1


class WaitingPeriodPolicy:
    """Computes unique, energy-aware waiting periods."""

    def __init__(self, slot: float) -> None:
        self.slot = check_positive("slot", slot)

    def waiting_period(self, node_id: NodeId, energy_fraction: float) -> float:
        """The delay before this node answers a forwarding request."""
        check_probability("energy_fraction", energy_fraction)
        base = self.slot * (1 + (int(node_id) % WAIT_MODULUS))
        return base / max(energy_fraction, ENERGY_FLOOR)

    def max_period(self) -> float:
        """Upper bound of any waiting period (for window sizing)."""
        return self.slot * WAIT_MODULUS / ENERGY_FLOOR
