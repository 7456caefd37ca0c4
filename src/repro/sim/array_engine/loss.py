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
- attempt ladders (:meth:`UniformTape.ladder`) advance one link's
  chain sequentially, once per attempt -- transition, then loss, per
  attempt -- so retries on a bursty link are correlated, which is the
  entire point of the model.

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
Neither does a tape's read-ahead: closing the tape restores the stream
and advances it past the consumed uniforms only (below).

The tape.  The inter-cluster fixpoint makes many small draws -- two
attempt ladders and a relay broadcast per crossing -- whose per-call
numpy overhead dwarfs their uniforms.  :meth:`ArrayLossDraw.tape`
snapshots ``rng.bit_generator.state`` and reads uniforms ahead
(``_TAPE_FIRST`` at first, refills doubling up to ``_TAPE_MAX``), and
for ``bernoulli`` / ``bounded`` compares each block with ``p`` once.
:meth:`UniformTape.ladder` and :meth:`UniformTape.broadcast` consume the
uniforms in order, each giving exactly the per-call draw it replaces:
same flags, counters, ``bounded`` budget (spent after the draw's
uniforms, in flat order) and gilbert chains (a ladder steps one cell,
transition then loss per attempt; a broadcast draws every transition,
then every loss).  On close, after an exception too, the tape restores
the snapshot and calls ``advance(consumed)``: PCG64 spends one 64-bit
output per double, so the stream is left where the per-call draws leave
it, and the uniforms read ahead but not consumed are never seen.  While
a tape is open, any other draw on ``loss.rng`` raises.

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
#: buffer: a small field's rows, the peer ladder's stragglers.  Larger
#: draws go through the block buffer, allocated before the draw (a full block
#: drawn this way allocates after it and shows in peak RSS).
_SMALL_DRAW = 1 << 10

#: Uniforms a tape reads ahead when it opens, and the most one refill
#: reads (module docstring: the tape).  Kept small: the fixpoint runs
#: once per execution, often on a handful of crossings.
_TAPE_FIRST = 1 << 8
_TAPE_MAX = 1 << 12

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

    def link_loss(self, distances: np.ndarray) -> Optional[np.ndarray]:
        """Per-link loss probabilities at ``distances`` for a tape's
        draws (``distance`` only; None for every other kind)."""
        if self.kind != "distance":
            return None
        return self.model.loss_probabilities(distances)

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
            self._spend_budget(out)

    def _spend_budget(self, out: np.ndarray) -> None:
        """Spend the ``bounded`` budget on the losses of ``out`` in flat
        draw order; later losses revert to deliveries once the adversary
        is out of drops.  All of the call's uniforms are consumed by
        then -- only the *next* call stops drawing."""
        idx = np.flatnonzero(~out)
        if idx.size > self.budget_left:
            out[idx[self.budget_left:]] = True
            self.budget_left = 0
        else:
            self.budget_left -= int(idx.size)

    # ------------------------------------------------------------------
    def delivered(
        self, count: int, distances: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """A delivered mask for ``count`` independent copies (True =
        arrives); not for ``gilbert``, whose copies ride link chains
        (:meth:`draw_into`, :meth:`UniformTape.ladder`).

        Up to ``_SMALL_DRAW`` copies take one ``rng.random(count)`` and
        a compare, with no scratch buffer; larger draws go through the
        uniform block.  Both leave the stream where ``random(count)``
        does.
        """
        if count <= 0:
            return np.zeros(0, dtype=bool)
        if self.kind == "gilbert":
            raise ExperimentError(
                "gilbert draws name their links: draw_into or a tape ladder"
            )
        self.attempted += count
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
        most ``_SMALL_DRAW`` active copies) skips the block, as in
        :meth:`delivered`, and only ``distance``
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

    def tape(self) -> "UniformTape":
        """Open a uniform tape on this draw's stream (module docstring:
        the tape); use it as a context manager."""
        return UniformTape(self)

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


class _Sealed:
    """Stands in for ``ArrayLossDraw.rng`` while a tape reads it ahead."""

    def __getattr__(self, name: str):
        raise ExperimentError(
            "loss stream drawn while a uniform tape is open (engine bug)"
        )


class UniformTape:
    """The loss stream read ahead for a run of small draws (module
    docstring: the tape).  Open it with :meth:`ArrayLossDraw.tape`; on
    exit it leaves the stream where the per-call draws would."""

    def __init__(self, loss: ArrayLossDraw) -> None:
        self._loss = loss
        self._rng = rng = loss.rng
        self._snapshot = rng.bit_generator.state
        self._block = rng.random(_TAPE_FIRST)
        self._pos = 0  # next uniform of ``_block``
        self._spent = 0  # uniforms consumed before ``_block[0]``
        loss.rng = _Sealed()
        model, kind = loss.model, loss.kind
        #: ``(p_gb, p_bg, p_good, p_bad)`` for ``gilbert``, else None.
        self._gilbert = (
            (model.p_gb, model.p_bg, model.p_good, model.p_bad)
            if kind == "gilbert" else None
        )
        #: The copy loss probability of ``bernoulli`` / ``bounded``;
        #: None for ``distance``, whose draws pass their own.
        self._p = getattr(model, "p", None)
        self._bounded = kind == "bounded"
        #: Every copy arrives, no uniforms (``_delivers_all`` short of a
        #: spent budget, which is checked per draw).
        self._free = kind == "perfect" or self._p == 0.0
        #: Every copy is lost, no uniforms (``p >= 1``).
        self._doomed = self._p is not None and self._p >= 1.0
        self._arrive()

    def __enter__(self) -> "UniformTape":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Rewind the stream to the snapshot and advance it past the
        consumed uniforms; the draw owns its stream again."""
        rng = self._rng
        if rng is None:
            return
        self._rng = None
        bit_generator, snapshot = rng.bit_generator, self._snapshot
        bit_generator.state = snapshot
        bit_generator.advance(self._spent + self._pos)
        if snapshot["has_uint32"]:  # ``advance`` drops the cached half-word
            state = bit_generator.state
            state["has_uint32"] = snapshot["has_uint32"]
            state["uinteger"] = snapshot["uinteger"]
            bit_generator.state = state
        self._loss.rng = rng

    def _arrive(self) -> None:
        """``_arrives``: each uniform of ``_block`` compared with the
        fixed ``p`` of ``bernoulli`` / ``bounded`` (u >= p: the copy
        arrives), once per block instead of once per draw."""
        if self._p is not None:
            self._arrives = self._block >= self._p
            self._arrives.flags.writeable = False  # rows are views of it

    def _take(self, n: int) -> int:
        """Consume ``n`` uniforms; returns where they start in ``_block``."""
        i = self._pos
        if i + n > self._block.size:
            left = self._block[i:]
            size = max(n, min(2 * self._block.size, _TAPE_MAX))
            fresh = self._rng.random(size - left.size)
            self._block = np.concatenate([left, fresh])
            self._arrive()
            self._spent += i
            i = 0
        self._pos = i + n
        return i

    def ladder(self, attempts: int, chain: str, at, link_p=None) -> int:
        """The delivered count of one attempt ladder on the link
        ``chain[at]`` (:meth:`ladder_flags`)."""
        return self.ladder_flags(attempts, chain, at, link_p).count(True)

    def ladder_flags(
        self, attempts: int, chain: str, at, link_p=None
    ) -> List[bool]:
        """Per attempt, whether the copy arrives: one directed link's
        attempt ladder, drawn as ``attempts`` copies of one call.

        ``gilbert`` advances the link's chain cell ``chain[at]`` once per
        attempt (a transition, then a loss, per attempt); ``distance``
        reads the link's loss probability at ``link_p[at]``.
        """
        loss = self._loss
        loss.attempted += attempts
        if self._gilbert is not None:
            p_gb, p_bg, p_good, p_bad = self._gilbert
            state = loss._chain_view(chain, at, ())
            bad = bool(state[at])
            i = self._take(2 * attempts)
            u = self._block[i:i + 2 * attempts].tolist()
            flags = []
            for step, draw in zip(u[::2], u[1::2]):
                if step < (p_bg if bad else p_gb):
                    bad = not bad
                flags.append(draw >= (p_bad if bad else p_good))
            state[at] = bad
        elif self._free or (self._bounded and loss.budget_left <= 0):
            flags = [True] * attempts
        else:
            if self._doomed:
                flags = [False] * attempts
            elif link_p is None:
                i = self._take(attempts)
                flags = self._arrives[i:i + attempts].tolist()
            else:
                p = float(link_p[at])
                i = self._take(attempts)
                flags = [u >= p for u in self._block[i:i + attempts].tolist()]
            if self._bounded:
                for j, arrived in enumerate(flags):
                    if not arrived:
                        if loss.budget_left:
                            loss.budget_left -= 1
                        else:
                            flags[j] = True
        loss.delivered_count += flags.count(True)
        return flags

    def broadcast(
        self,
        active: np.ndarray,
        count: int,
        link_p: Optional[np.ndarray] = None,
        chain: Optional[str] = None,
        at: Optional[int] = None,
    ) -> np.ndarray:
        """Delivered flags of one broadcast to the ``count`` active
        copies of row ``at`` (``active``, a bool row): the draw of
        ``draw_into(active, ..., at=at)``.  ``distance`` reads the
        copies' loss probabilities off ``link_p``
        (:meth:`ArrayLossDraw.link_loss`); ``gilbert`` draws every
        transition, then every loss, on the active cells of
        ``chain[at]``."""
        if not count:
            return np.zeros(0, dtype=bool)
        loss = self._loss
        loss.attempted += count
        if self._gilbert is not None:
            p_gb, p_bg, p_good, p_bad = self._gilbert
            links = loss._chain_view(chain, at, None)[at]
            bad = links[active]
            i = self._take(2 * count)
            u = self._block[i:i + 2 * count]
            bad ^= u[:count] < np.where(bad, p_bg, p_gb)
            out = u[count:] >= np.where(bad, p_bad, p_good)
            links[active] = bad
        elif self._free or (self._bounded and loss.budget_left <= 0):
            loss.delivered_count += count
            return np.ones(count, dtype=bool)
        else:
            if self._doomed:
                out = np.zeros(count, dtype=bool)
            elif self._p is None:
                i = self._take(count)
                out = self._block[i:i + count] >= link_p
            else:
                i = self._take(count)
                out = self._arrives[i:i + count]
                if self._bounded:
                    out = out.copy()  # ``_arrives`` is read-only
            if self._bounded:
                loss._spend_budget(out)
        loss.delivered_count += int(np.count_nonzero(out))
        return out
