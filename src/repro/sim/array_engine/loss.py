"""Vectorized per-copy loss draws for the array engine.

Takes the same declarative ``(kind, params)`` specs as the event engine
-- parsed by :func:`repro.sim.loss.build_loss_model`, whose validated
model supplies every parameter here -- but produces *delivered* masks
for whole batches of copies in one call.  The array engine owns its
draw order (documented in the engine module): it consumes a dedicated
named stream (``stream("array", "loss")``) under the same
:class:`~repro.util.rng.RngFactory` discipline as every other consumer,
so array runs replay bit-exactly from the scenario seed without
perturbing the event engine's streams.

Kinds:

- ``perfect`` -- everything delivered, no stream consumption;
- ``bernoulli`` -- iid loss with probability ``p`` (the ``p in {0, 1}``
  shortcuts consume no randomness, like the scalar model);
- ``bounded`` -- Bernoulli until ``budget`` copies have been dropped
  over the whole run, then perfect.  The budget is spent in flat draw
  order, which is deterministic because the engine's draw sequence is;
- ``distance`` -- loss probability rising with link distance (callers
  pass per-copy distances);
- ``gilbert`` -- bursty loss via per-directed-link two-state Markov
  chains (Good/Bad), the vectorized twin of
  :class:`repro.sim.loss.GilbertElliottLoss` (its p_good, p_bad, p_gb,
  p_bg).

Gilbert chain contract (engine-private, like the draw order itself):

- chain state lives in named *families* of boolean arrays (True = Bad),
  one entry per directed link the engine models: ``"mc"`` member ->
  own-CH, ``"cm"`` own-CH -> member, ``"mm"`` member -> clustermate,
  ``"over"`` source-CH -> gateway overhear, ``"rep"`` gateway ->
  destination-CH report, and ``"fm"`` the per-edge formation family
  (one entry per directed unit-disk edge, see
  :mod:`repro.sim.array_engine.formation`).  Draw sites that reuse a
  physical link reuse its family entry (heartbeats, digests, updates,
  peer traffic, relays all ride the same ``mc``/``cm``/``mm`` chains);
- every draw advances the chain exactly once per copy, in the scalar
  model's order: transition first (Good->Bad with ``p_gb``, Bad->Good
  with ``p_bg``), then the loss draw in the *new* state -- two uniforms
  per active copy;
- only active copies advance their chain or consume the stream,
  mirroring the event medium where absent links and crashed senders
  produce no transmissions;
- attempt ladders (:meth:`ArrayLossDraw.delivered` with ``chain``/
  ``at``) advance one link's chain sequentially, once per attempt --
  retries on a bursty link are correlated, which is the entire point of
  the model.

All chains start in the Good state, like the scalar model's fresh
per-link dictionary.

Blocking never moves the stream.  ``bernoulli`` / ``bounded`` /
``distance`` draws fetch their uniforms ``_DRAW_BLOCK`` at a time into
one reused buffer; ``Generator.random`` spends one 64-bit output per
double, so the stream ends where a single ``random(count)`` would leave
it and a draw of at most one block *is* a single call.  Draws of at
most ``_SMALL_DRAW`` copies skip the buffer altogether.  ``bounded``
applies its budget after the whole call's uniforms are drawn: the call
in which the budget runs out consumes all ``count`` of them, the next
call none.  ``gilbert`` draws every transition, then every loss, per
call -- blocking would interleave the two, so it stays one-shot.

The member-pair pass.  A round's clustermate copies are the cells
``[c, hearer u, sender v]`` of the layout's member adjacency whose
hearer and sender are both alive (``draw_into`` with ``alive``).  The
adjacency and the returned delivered cube are packed along the sender
axis (:mod:`repro.sim.array_engine.bits`: ``(C, M, ceil(M/8))`` uint8),
and the active cells are formed in those bytes, straight into the
returned cube: adjacency AND the packed alive senders, dead hearers'
rows zeroed.  :func:`pair_blocks` then cuts the clusters into blocks
of at most ``_PAIR_BLOCK_CELLS`` cells (one cluster at least), and each
block is unpacked once into a block-sized bool scratch (its padded
cells), gathered with one ``flatnonzero``, drawn, and packed back with
the lost cells cleared.  The set and C order of the active cells are
those of the bool cube, so the blocks still make one logical draw: the
uniforms go in C order, the ``bounded`` budget is spent in that order
and, as above, dies with the call (the block in which it runs out and
every later block still consume their uniforms), ``distance`` takes
each block's ``pair_dist`` cells (an unpacked ``(C, M, M)`` float32
cube), and ``gilbert`` sweeps the blocks twice -- every transition,
then every loss -- with the active cells of the first sweep held in the
packed cube itself (its ``mm`` chain family stays one bool per cell).
Beyond the cube, the pass holds block-sized scratch only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.sim.array_engine import bits
from repro.sim.loss import build_loss_model

#: Uniforms drawn per ``Generator.random(out=...)`` call (module
#: docstring: blocking never moves the stream).
_DRAW_BLOCK = 1 << 16

#: Largest draw taken in one ``Generator.random(count)`` with no scratch
#: buffer: attempt ladders and one cluster's relay.  Larger draws go
#: through the block buffer, allocated before the draw (a full block
#: drawn this way allocates after it and shows in peak RSS).
_SMALL_DRAW = 1 << 10

#: Member-pair cells per block of the pair pass (module docstring): a
#: 64 KiB bool scratch, whose index and uniform scratch stay within a
#: core's L2 cache.
_PAIR_BLOCK_CELLS = 1 << 16


def pair_blocks(c: int, m: int) -> List[Tuple[int, int]]:
    """``(lo, hi)`` ranges of whole clusters, ``_PAIR_BLOCK_CELLS`` pair
    cells per range at most (one cluster at least)."""
    step = max(1, _PAIR_BLOCK_CELLS // max(1, m * m))
    return [(lo, min(c, lo + step)) for lo in range(0, c, step)]


class ArrayLossDraw:
    """Batched delivered-mask source for one run (see module docstring)."""

    def __init__(
        self,
        kind: str,
        params,
        loss_probability: float,
        transmission_range: float,
        rng: np.random.Generator,
    ) -> None:
        #: The parsed spec: validated parameters, defaults filled in.
        #: Only its attributes are read; draws never go through it.
        self.model = build_loss_model(
            kind,
            params,
            loss_probability=loss_probability,
            transmission_range=transmission_range,
        )
        self.kind = kind
        self.rng = rng
        self.budget_left = self.model.budget if kind == "bounded" else 0
        #: Per-family Markov state arrays, True = Bad (gilbert only).
        self._chains: Dict[str, np.ndarray] = {}
        #: Copy accounting for :class:`~repro.metrics.collectors.MessageCounts`.
        self.attempted = 0
        self.delivered_count = 0

    # ------------------------------------------------------------------
    # Gilbert chain state
    # ------------------------------------------------------------------
    def ensure_chain(self, name: str, shape: Tuple[int, ...]) -> None:
        """Pre-create a chain family (no-op for stateless kinds)."""
        if self.kind == "gilbert" and name not in self._chains:
            self._chains[name] = np.zeros(shape, dtype=bool)

    def _chain_view(self, chain: Optional[str], at, shape) -> np.ndarray:
        """The (gathered) state array for a draw site, creating lazily."""
        if chain is None:
            raise ExperimentError(
                "gilbert draws require a chain family name (engine bug)"
            )
        state = self._chains.get(chain)
        if state is None:
            if at is not None:
                raise ExperimentError(
                    f"chain family {chain!r} indexed before creation "
                    "(engine bug)"
                )
            state = np.zeros(shape, dtype=bool)
            self._chains[chain] = state
        return state

    def _gilbert_flat(self, states: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Advance the link chains one step and draw their losses.

        ``states`` is a flat boolean array (True = Bad) of the active
        links; returns ``(new_states, lost)``.  Transition first, then
        the loss draw in the new state -- the scalar model's order.
        """
        new_states = self._gilbert_step(states)
        return new_states, self._gilbert_lost(new_states)

    def _gilbert_step(self, states: np.ndarray) -> np.ndarray:
        """The chains' next states: Good->Bad with ``p_gb``, Bad->Good
        with ``p_bg``; one uniform per link."""
        model = self.model
        u = self.rng.random(states.size)
        return states ^ (u < np.where(states, model.p_bg, model.p_gb))

    def _gilbert_lost(self, states: np.ndarray) -> np.ndarray:
        """One loss draw per link in its (new) state; one uniform each."""
        model = self.model
        u = self.rng.random(states.size)
        return u < np.where(states, model.p_bad, model.p_good)

    # ------------------------------------------------------------------
    # Stateless kinds (bernoulli / bounded / distance)
    # ------------------------------------------------------------------
    def _delivers_all(self) -> bool:
        """Whether a draw now delivers every copy and takes no uniform:
        ``perfect``, the ``p == 0`` shortcut, a spent ``bounded`` budget."""
        if self.kind == "perfect":
            return True
        if self.kind not in ("bernoulli", "bounded"):
            return False
        return self.model.p == 0.0 or (
            self.kind == "bounded" and self.budget_left <= 0
        )

    def _draw_stateless(self, out: np.ndarray, distances) -> None:
        """Fill the flat ``out`` with ``out.size`` copies' delivered
        flags, then spend the ``bounded`` budget on their losses.

        Takes one uniform per copy (none at ``p >= 1``), through the
        uniform block above ``_SMALL_DRAW`` copies.  Called again within
        one logical draw (the pair pass's blocks) it continues the
        stream, and after the budget died it still takes its uniforms.
        """
        count = out.size
        by_distance = self.kind == "distance"
        if by_distance and distances is None:
            raise ExperimentError(
                "distance loss draws require per-copy distances"
            )
        p = None if by_distance else self.model.p
        if not by_distance and p >= 1.0:
            out[...] = False  # all lost, no uniforms
        elif count <= _SMALL_DRAW:
            if by_distance:
                p = self.model.loss_probabilities(distances)
            np.greater_equal(self.rng.random(count), p, out=out)
        else:
            uniforms = np.empty(min(count, _DRAW_BLOCK))
            for lo in range(0, count, _DRAW_BLOCK):
                hi = lo + _DRAW_BLOCK  # slices clip at ``count``
                u = self.rng.random(out=uniforms[: count - lo])
                if by_distance:
                    p = self.model.loss_probabilities(distances[lo:hi])
                np.greater_equal(u, p, out=out[lo:hi])
        if self.kind == "bounded":
            # Spend the budget in flat draw order; later losses revert
            # to deliveries once the adversary is out of drops.  All of
            # this call's uniforms are consumed by then -- only the
            # *next* call stops drawing.
            idx = np.flatnonzero(~out)
            if idx.size > self.budget_left:
                out[idx[self.budget_left:]] = True
                self.budget_left = 0
            else:
                self.budget_left -= int(idx.size)

    # ------------------------------------------------------------------
    def delivered(
        self,
        count: int,
        distances: Optional[np.ndarray] = None,
        chain: Optional[str] = None,
        at=None,
    ) -> np.ndarray:
        """A delivered mask for ``count`` copies (True = arrives).

        For ``gilbert`` the ``count`` copies are *sequential attempts on
        one directed link* -- ``chain``/``at`` name its state cell, and
        the chain advances once per attempt.

        Up to ``_SMALL_DRAW`` copies (an attempt ladder, one cluster's
        relay) take one ``rng.random(count)`` and a compare, with no
        scratch buffer; larger draws go through the uniform block.  Both
        leave the stream where ``random(count)`` does.
        """
        if count <= 0:
            return np.zeros(0, dtype=bool)
        self.attempted += count
        if self.kind == "gilbert":
            state = self._chain_view(chain, at, ())
            cell = at if at is not None else ()
            s = np.asarray([state[cell]])
            out = np.empty(count, dtype=bool)
            for i in range(count):
                s, lost = self._gilbert_flat(s)
                out[i] = not lost[0]
            state[cell] = bool(s[0])
            self.delivered_count += int(out.sum())
            return out
        if self._delivers_all():
            self.delivered_count += count
            return np.ones(count, dtype=bool)
        out = np.empty(count, dtype=bool)
        self._draw_stateless(out, distances)
        self.delivered_count += int(np.count_nonzero(out))
        return out

    def draw_into(
        self,
        active: np.ndarray,
        distances: Optional[np.ndarray] = None,
        chain: Optional[str] = None,
        at=None,
        alive: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Delivered mask shaped like ``active``; False wherever inactive.

        Beyond the returned mask this allocates one bool per *active*
        copy plus one uniform block (``distance`` adds the active
        copies' distances, ``gilbert`` two uniforms per active copy) --
        never an index array or a uniform per cell.  A small draw (at
        most ``_SMALL_DRAW`` active copies, e.g. one cluster's relay)
        skips the block, as in :meth:`delivered`, and only ``distance``
        gathers the distances it is passed.  When every copy is
        active (the formation's heartbeat flood over all edges, and its
        edge-list draws) the copies are the cells in C order: no gather
        or scatter, and the delivered array is the returned mask.

        Only active copies consume the stream (and, for ``bounded``, the
        budget; for ``gilbert``, their link's chain step), mirroring the
        event medium where crashed senders and absent links produce no
        transmissions at all.  ``chain`` names the gilbert state family
        (position in ``active`` identifies the directed link); ``at``
        optionally indexes into a larger family so a draw site can
        address a slice of it (e.g. one cluster's CH -> member row).

        With ``alive`` (``(C, M)``), ``active`` is the packed member
        adjacency and the copies are its cells whose hearer and sender
        are both alive: the pair pass of the module docstring, with
        ``distances`` the ``(C, M, M)`` pair distances.  The delivered
        cube comes back packed like ``active``.
        """
        if alive is not None:
            return self._draw_pairs(active, alive, distances, chain)
        count = int(np.count_nonzero(active))
        if count == 0:
            return np.zeros(active.shape, dtype=bool)
        every = count == active.size
        # Allocate before drawing: allocated after the draw, it raises the
        # peak RSS of an N = 10**5 array run by ~4 %.
        out = None if every else np.zeros(active.shape, dtype=bool)
        if self.kind == "gilbert":
            self.attempted += count
            state = self._chain_view(chain, at, active.shape)
            if every:
                cells = Ellipsis if at is None else at
                new_states, lost = self._gilbert_flat(state[cells].ravel())
                state[cells] = new_states.reshape(active.shape)
            else:
                # Gather-copy under ``at`` (advanced indexing may not
                # yield a writable view), mutate, scatter back.
                gathered = state[at].copy() if at is not None else state
                gathered[active], lost = self._gilbert_flat(gathered[active])
                if at is not None:
                    state[at] = gathered
            delivered = ~lost
            self.delivered_count += int(delivered.sum())
        else:
            if self.kind == "distance" and distances is not None:
                distances = np.asarray(distances)
                distances = distances.ravel() if every else distances[active]
            delivered = self.delivered(count, distances=distances)
        if out is None:
            return delivered.reshape(active.shape)
        out[active] = delivered
        return out

    def _draw_pairs(
        self,
        adjacency: np.ndarray,
        alive: np.ndarray,
        distances: Optional[np.ndarray],
        chain: Optional[str],
    ) -> np.ndarray:
        """The member-pair pass (module docstring): one logical draw
        over ``adjacency & alive[:, None, :] & alive[:, :, None]``, all
        three and the result packed along the sender axis."""
        c, m = alive.shape
        out = np.bitwise_and(adjacency, bits.pack(alive)[:, None, :])
        out &= np.where(alive, np.uint8(0xFF), np.uint8(0))[:, :, None]
        if self._delivers_all():
            count = int(bits.popcount(out).sum())
            self.attempted += count
            self.delivered_count += count
            return out
        gilbert = self.kind == "gilbert"
        state = None  # the gilbert family, created by the first copy
        attempted = delivered = 0
        blocks = pair_blocks(c, m)
        for lo, hi in blocks:
            rows = out[lo:hi]
            cells = bits.padded_cells(rows)
            idx = np.flatnonzero(cells)
            attempted += idx.size
            if gilbert:
                if idx.size:
                    if state is None:
                        state = self._chain_view(chain, None, (c, m, m))
                    at, chains = bits.cube_index(idx, m), state[lo:hi]
                    chains.put(at, self._gilbert_step(chains.take(at)))
                continue
            got = np.empty(idx.size, dtype=bool)
            self._draw_stateless(got, None if distances is None else (
                distances[lo:hi].take(bits.cube_index(idx, m))
            ))
            delivered += _clear_lost(rows, cells, idx, ~got)
        if state is not None:
            # Every transition is drawn; the cube still holds the active
            # cells, now every loss in the same order.
            for lo, hi in blocks:
                rows = out[lo:hi]
                cells = bits.padded_cells(rows)
                idx = np.flatnonzero(cells)
                at = bits.cube_index(idx, m)
                lost = self._gilbert_lost(state[lo:hi].take(at))
                delivered += _clear_lost(rows, cells, idx, lost)
        self.attempted += attempted
        self.delivered_count += delivered
        return out


def _clear_lost(
    rows: np.ndarray, cells: np.ndarray, idx: np.ndarray, lost: np.ndarray
) -> int:
    """Clear the lost copies of one pair block: ``cells`` are ``rows``'
    padded cells, ``idx`` the active ones and ``lost`` their flags.
    Returns the delivered count."""
    gone = idx.take(np.flatnonzero(lost))
    if gone.size:
        cells.put(gone, False)
        bits.repack(cells, rows)
    return idx.size - gone.size
