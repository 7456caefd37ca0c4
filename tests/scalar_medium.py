"""The per-receiver reference radio: what ``RadioMedium`` must replay.

:class:`ScalarRadioMedium` is the pre-vectorization fan-out kept as a
test oracle: one scalar RNG draw, one distance recomputation and one
tracer dispatch per receiver.  It follows the production path's
canonical draw schedule -- all loss draws first (ascending receiver id),
then all delay draws for the survivors -- so a seeded run must come out
bit-identical under either class.  Everything else is deliberately
naive.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Iterator, List, Optional
from unittest import mock

from repro.sim.medium import Envelope, RadioMedium
from repro.types import NodeId


class ScalarRadioMedium(RadioMedium):
    def _fan_out(
        self,
        sender: NodeId,
        payload: object,
        recipient: Optional[NodeId],
    ) -> int:
        now = self.sim.now
        self.transmissions += 1
        self.tracer.record(now, "radio.tx", node=int(sender), recipient=recipient)
        survivors: List[NodeId] = []
        for receiver in self.neighbors_of(sender):
            if not self._receiving[receiver]:
                continue
            dist = self.distance(sender, receiver)
            if self.loss_model.is_lost(sender, receiver, dist, now, self.rng):
                self.losses += 1
                self.tracer.record(
                    now, "radio.loss", node=int(receiver), sender=int(sender)
                )
                continue
            survivors.append(receiver)
        for receiver in survivors:
            delay = float(self.max_delay * (1.0 - self.rng.random()))
            envelope = Envelope(
                sender=sender,
                recipient=recipient,
                payload=payload,
                sent_at=now,
                received_at=now + delay,
                overheard=(recipient is not None and receiver != recipient),
            )
            self.sim.schedule_at(
                envelope.received_at,
                partial(self._deliver, receiver, envelope),
                label="radio.delivery",
            )
        return len(survivors)


@contextmanager
def scalar_medium_installed() -> Iterator[None]:
    """Make ``build_network`` (and so ``run_scenario``) wire the scalar
    reference medium for the duration of the block."""
    with mock.patch("repro.sim.network.RadioMedium", ScalarRadioMedium):
        yield
