"""Batched per-node energy accounting for the array engine.

:class:`ArrayEnergyLedger` is the vectorized twin of
:class:`repro.energy.model.EnergyModel`: the same harvest-then-debit
semantics (lazy linear harvest capped at capacity, per-debit floor at
zero), applied to whole batches of same-instant charges instead of one
scalar call per message.  The equivalence contract, verified bit-for-bit
by the tests and the soak's energy sub-pair:

- replaying the ledger's charge batches through a scalar
  :class:`~repro.energy.model.EnergyModel` -- node by node, one debit
  per count, transmit debits before receive debits at equal timestamps
  -- produces *identical* levels, counts, totals, and spread;
- the debit population is exactly what the round engine models: every
  ``transmissions`` increment becomes a transmit debit of its sender,
  every delivered copy drawn from :class:`~repro.sim.array_engine.loss.
  ArrayLossDraw` becomes a receive debit of its receiver, both charged
  at the enclosing round's nominal instant (per-message timing inside a
  round is collapsed, like everything else in the array engine).

The bit-identity holds because each node's ledger is independent and
the vectorized ops mirror the scalar arithmetic operation for
operation: one harvest per (node, instant) -- later same-instant
harvests are exact no-ops in the scalar model too -- then ``count``
iterated ``max(0, level - cost)`` subtractions (a closed-form
``level - count * cost`` would round differently).

The event engine's energy surface also *feeds back* into its
waiting-period policy; the array engine's ledger is observational only
(the recovery ladder is modeled as independent attempts), which is a
documented approximation, not a divergence the soak compares.

Capacity, costs and harvest rate are the constants of
:mod:`repro.energy.model`, shared with the scalar model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.energy.model import (
    CAPACITY,
    HARVEST_RATE,
    RX_COST,
    TX_COST,
    EnergyModel,
)


class ArrayEnergyLedger:
    """Vectorized per-node energy state (see module docstring).

    With ``record_journal=True`` every charge batch is appended (as a
    sparse ``(kind, now, node_ids, counts)`` tuple) to :attr:`journal`,
    which :func:`replay_journal` feeds through a scalar
    :class:`~repro.energy.model.EnergyModel` to prove the batched
    arithmetic bit-identical.  Off by default -- the journal grows with
    the message volume, which the big-N runs cannot afford.
    """

    def __init__(
        self,
        node_count: int,
        start: float = 0.0,
        record_journal: bool = False,
    ) -> None:
        self.node_count = int(node_count)
        self.start = float(start)
        self.level = np.full(self.node_count, CAPACITY, dtype=np.float64)
        self.last_update = np.full(self.node_count, float(start))
        self.tx_count = np.zeros(self.node_count, dtype=np.int64)
        self.rx_count = np.zeros(self.node_count, dtype=np.int64)
        self.journal: Optional[
            List[Tuple[str, float, np.ndarray, np.ndarray]]
        ] = [] if record_journal else None

    # ------------------------------------------------------------------
    def _charge(self, now: float, counts: np.ndarray, cost: float) -> None:
        counts = np.asarray(counts)
        idx = np.flatnonzero(counts > 0)
        if idx.size == 0:
            return
        # Harvest exactly once per (node, instant): the scalar model's
        # per-debit harvest is a bit-exact no-op once elapsed == 0.
        elapsed = np.maximum(0.0, now - self.last_update[idx])
        self.level[idx] = np.minimum(
            CAPACITY, self.level[idx] + elapsed * HARVEST_RATE
        )
        self.last_update[idx] = now
        # Iterated subtraction with a per-debit zero floor, mirroring
        # EnergyModel.on_transmit/on_receive debit by debit.
        k = counts[idx]
        levels = self.level[idx]
        for i in range(int(k.max())):
            hit = k > i
            levels[hit] = np.maximum(0.0, levels[hit] - cost)
        self.level[idx] = levels

    def _journal_append(self, kind: str, now: float, counts) -> None:
        counts = np.asarray(counts)
        idx = np.flatnonzero(counts > 0)
        self.journal.append(
            (kind, float(now), idx.copy(), counts[idx].copy())
        )

    def charge_tx(self, now: float, counts: np.ndarray) -> None:
        """Charge ``counts[n]`` transmissions to each node at ``now``."""
        if self.journal is not None:
            self._journal_append("tx", now, counts)
        self._charge(now, counts, TX_COST)
        self.tx_count += np.asarray(counts, dtype=np.int64)

    def charge_rx(self, now: float, counts: np.ndarray) -> None:
        """Charge ``counts[n]`` received copies to each node at ``now``."""
        if self.journal is not None:
            self._journal_append("rx", now, counts)
        self._charge(now, counts, RX_COST)
        self.rx_count += np.asarray(counts, dtype=np.int64)

    # ------------------------------------------------------------------
    # The EnergyModel scoring surface
    # ------------------------------------------------------------------
    def remaining_fraction(self, node_id: int, now: float) -> float:
        """Remaining energy fraction at ``now`` (harvest applied)."""
        idx = int(node_id)
        elapsed = max(0.0, now - float(self.last_update[idx]))
        level = min(CAPACITY, float(self.level[idx]) + elapsed * HARVEST_RATE)
        self.level[idx] = level
        self.last_update[idx] = now
        return max(0.0, min(1.0, level / CAPACITY))

    def totals(self) -> Dict[str, float]:
        """Aggregate counters, same keys and arithmetic as EnergyModel.

        Sums run through Python floats in node order so the figures are
        bit-identical to the scalar model's ``sum()`` over its entries.
        """
        levels = self.level.tolist()
        return {
            "tx_total": float(int(self.tx_count.sum())),
            "rx_total": float(int(self.rx_count.sum())),
            "min_level": min(levels, default=0.0),
            "mean_level": (sum(levels) / len(levels)) if levels else 0.0,
        }

    def spread(self) -> float:
        """Max minus min remaining level -- the energy-balance figure."""
        if not self.node_count:
            return 0.0
        return float(self.level.max() - self.level.min())


def replay_journal(ledger: ArrayEnergyLedger) -> EnergyModel:
    """Replay a recorded ledger's charges through the scalar model.

    Nodes are registered in id order at the ledger's start time, then
    every journal batch is applied node by node, one debit per count, in
    the batch order the engine produced (transmit batches precede
    receive batches at equal timestamps by the engine's charging
    contract).  The returned :class:`~repro.energy.model.EnergyModel`
    must agree with the ledger bit-for-bit -- levels, counts, totals and
    spread -- which is what the tests and the soak's energy sub-pair
    assert.
    """
    if ledger.journal is None:
        raise ValueError(
            "ledger was not constructed with record_journal=True"
        )
    model = EnergyModel()
    for node in range(ledger.node_count):
        model.register(node, ledger.start)
    for kind, now, ids, counts in ledger.journal:
        debit = model.on_transmit if kind == "tx" else model.on_receive
        for node, count in zip(ids.tolist(), counts.tolist()):
            for _ in range(count):
                debit(node, now)
    return model
