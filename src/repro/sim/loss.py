"""Message-loss models for the radio medium.

The paper's core assumption (Sections 2.2 and 5) is that "if a node v
transmits a message, the message may fail to reach a neighbor of v with
probability p" -- i.e. independent Bernoulli loss per (transmission,
receiver) pair.  :class:`BernoulliLoss` implements exactly that and is the
model used by every reproduction experiment.

Extensions beyond the paper (used by ablation and robustness studies):

- :class:`GilbertElliottLoss` -- bursty loss via a two-state Markov chain
  per directed link, to probe the iid-loss assumption.
- :class:`DistanceDependentLoss` -- loss grows with distance, approximating
  a fading channel inside the unit disk.
- :class:`PerfectLinks` -- no loss; the deterministic baseline the
  accuracy/completeness invariants are tested against.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.types import NodeId, SimTime
from repro.util.validation import check_probability, check_range


class LossModel:
    """Decides, per (sender, receiver, transmission), whether a copy is lost.

    Implementations must be *stateless across receivers* unless the model's
    semantics require per-link state; the medium calls :meth:`lost_mask`
    once per transmission with every potential receiver, and the default
    :meth:`lost_mask` falls back to one :meth:`is_lost` call per receiver.
    """

    def is_lost(
        self,
        sender: NodeId,
        receiver: NodeId,
        distance: float,
        time: SimTime,
        rng: np.random.Generator,
    ) -> bool:
        raise NotImplementedError

    def lost_mask(
        self,
        sender: NodeId,
        receivers: Sequence[NodeId],
        distances: np.ndarray,
        time: SimTime,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized loss decision: one bool per receiver, in order.

        The medium's hot path calls this once per transmission.  The
        default implementation loops over :meth:`is_lost` in receiver
        order, which is *exactly* equivalent for any model -- including
        stateful ones like :class:`GilbertElliottLoss` (per-link Markov
        state advances in the same order) and :class:`BoundedAdversaryLoss`
        (the budget shrinks one receiver at a time).  Stateless models
        override this with a single batched
        RNG draw; overrides must consume the generator identically to the
        sequential fallback (``rng.random(k)`` produces the same stream as
        ``k`` scalar draws) so that vectorized and scalar simulation paths
        stay bit-identical.
        """
        out = np.empty(len(receivers), dtype=bool)
        for i, receiver in enumerate(receivers):
            out[i] = self.is_lost(
                sender, receiver, float(distances[i]), time, rng
            )
        return out


class PerfectLinks(LossModel):
    """Never loses a message (the paper's idealized reference case)."""

    def is_lost(self, sender, receiver, distance, time, rng) -> bool:
        return False

    def lost_mask(self, sender, receivers, distances, time, rng) -> np.ndarray:
        # No RNG consumption, matching is_lost.
        return np.zeros(len(receivers), dtype=bool)


class BernoulliLoss(LossModel):
    """Independent loss with fixed probability ``p`` per receiver.

    This is the paper's model: every copy of every transmission is lost
    independently with probability ``p``, for ``p`` in the studied range
    ``[0.05, 0.5]`` (any ``[0, 1]`` value is accepted).
    """

    def __init__(self, p: float) -> None:
        self.p = check_probability("p", p)

    def is_lost(self, sender, receiver, distance, time, rng) -> bool:
        if self.p == 0.0:
            return False
        if self.p == 1.0:
            return True
        return bool(rng.uniform() < self.p)

    def lost_mask(self, sender, receivers, distances, time, rng) -> np.ndarray:
        k = len(receivers)
        # The p in {0, 1} shortcuts consume no randomness, like is_lost.
        if self.p == 0.0:
            return np.zeros(k, dtype=bool)
        if self.p == 1.0:
            return np.ones(k, dtype=bool)
        return rng.random(k) < self.p


class GilbertElliottLoss(LossModel):
    """Bursty loss: per directed link, a Good/Bad two-state Markov chain.

    In the Good state a copy is lost with probability ``p_good``; in the Bad
    state with ``p_bad``.  Transition probabilities ``p_gb`` (Good->Bad) and
    ``p_bg`` (Bad->Good) are applied per transmission on that link.  The
    stationary loss rate is ``(p_bg*p_good + p_gb*p_bad) / (p_gb + p_bg)``,
    exposed as :attr:`stationary_loss_rate` so sweeps can match the mean
    loss of a Bernoulli model while varying burstiness.

    Deliberately relies on the sequential :meth:`LossModel.lost_mask`
    fallback: per-link Markov state must advance one receiver at a time.
    """

    GOOD = 0
    BAD = 1

    def __init__(
        self,
        p_good: float = 0.01,
        p_bad: float = 0.8,
        p_gb: float = 0.05,
        p_bg: float = 0.3,
    ) -> None:
        self.p_good = check_probability("p_good", p_good)
        self.p_bad = check_probability("p_bad", p_bad)
        self.p_gb = check_probability("p_gb", p_gb)
        self.p_bg = check_probability("p_bg", p_bg)
        if self.p_gb + self.p_bg == 0:
            raise ValueError("p_gb + p_bg must be > 0 for an ergodic chain")
        self._state: Dict[Tuple[NodeId, NodeId], int] = {}

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run average loss probability of the chain."""
        pi_bad = self.p_gb / (self.p_gb + self.p_bg)
        return (1 - pi_bad) * self.p_good + pi_bad * self.p_bad

    def is_lost(self, sender, receiver, distance, time, rng) -> bool:
        link = (sender, receiver)
        state = self._state.get(link, self.GOOD)
        # Advance the chain first, then draw the loss in the new state.
        if state == self.GOOD:
            if rng.uniform() < self.p_gb:
                state = self.BAD
        else:
            if rng.uniform() < self.p_bg:
                state = self.GOOD
        self._state[link] = state
        loss_p = self.p_bad if state == self.BAD else self.p_good
        return bool(rng.uniform() < loss_p)


class DistanceDependentLoss(LossModel):
    """Loss probability rising from ``p_near`` to ``p_far`` across the range.

    ``p(d) = p_near + (p_far - p_near) * (d / range)**exponent`` clipped to
    ``[0, 1]``.  With ``exponent=2`` this mimics a quadratic path-loss
    degradation toward the edge of the unit disk.
    """

    def __init__(
        self,
        transmission_range: float,
        p_near: float = 0.02,
        p_far: float = 0.4,
        exponent: float = 2.0,
    ) -> None:
        if transmission_range <= 0:
            raise ValueError("transmission_range must be positive")
        self.transmission_range = float(transmission_range)
        self.p_near = check_probability("p_near", p_near)
        self.p_far = check_probability("p_far", p_far)
        self.exponent = check_range("exponent", exponent, 0.0, 16.0)

    def loss_probabilities(self, distances) -> np.ndarray:
        """The per-copy loss probability at each of ``distances``."""
        frac = np.clip(
            np.asarray(distances, dtype=np.float64) / self.transmission_range,
            0.0,
            1.0,
        )
        return np.clip(
            self.p_near + (self.p_far - self.p_near) * frac**self.exponent,
            0.0,
            1.0,
        )

    def loss_probability(self, distance: float) -> float:
        """The per-copy loss probability at the given distance."""
        return float(self.loss_probabilities(distance))

    def is_lost(self, sender, receiver, distance, time, rng) -> bool:
        return bool(rng.uniform() < self.loss_probability(distance))

    def lost_mask(self, sender, receivers, distances, time, rng) -> np.ndarray:
        return rng.random(len(receivers)) < self.loss_probabilities(distances)


class BoundedAdversaryLoss(LossModel):
    """Bernoulli loss with a hard cap on the total number of dropped copies.

    Behaves exactly like :class:`BernoulliLoss` with probability ``p``
    until ``budget`` copies have been dropped (across the whole run); from
    then on every copy is delivered.  A ``budget`` smaller than the
    protocol's built-in redundancy (retry ladders, backup gateways, peer
    forwarding) turns the paper's *probabilistic* completeness into a
    *deterministic* guarantee, which is what lets the conformance soak
    harness treat any residual incompleteness as a hard protocol bug
    rather than bad luck.

    Deliberately relies on the sequential :meth:`LossModel.lost_mask`
    fallback: the remaining budget changes one receiver at a time, so the
    vectorized and scalar medium paths consume the RNG identically.
    """

    def __init__(self, p: float, budget: int) -> None:
        self.p = check_probability("p", p)
        if int(budget) < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.budget = int(budget)
        self.dropped = 0

    def is_lost(self, sender, receiver, distance, time, rng) -> bool:
        if self.p == 0.0 or self.dropped >= self.budget:
            return False
        if self.p == 1.0 or bool(rng.uniform() < self.p):
            self.dropped += 1
            return True
        return False


#: Loss-model kinds addressable by name (declarative scenario configs),
#: each with its model class and the parameter names its spec accepts.
_LOSS_MODELS = {
    "perfect": (PerfectLinks, ()),
    "bernoulli": (BernoulliLoss, ("p",)),
    "bounded": (BoundedAdversaryLoss, ("p", "budget")),
    "distance": (DistanceDependentLoss, ("p_near", "p_far", "exponent")),
    "gilbert": (GilbertElliottLoss, ("p_good", "p_bad", "p_gb", "p_bg")),
}
LOSS_KINDS = tuple(_LOSS_MODELS)


def build_loss_model(
    kind: str,
    params: Mapping[str, float] | Sequence[Tuple[str, float]] | None = None,
    *,
    loss_probability: float = 0.1,
    transmission_range: float = 100.0,
) -> LossModel:
    """Parse a declarative ``(kind, params)`` spec into its loss model.

    Scenario configs must stay frozen and picklable (they cross process
    boundaries in the campaign pool), so they carry a kind string and a
    flat parameter mapping instead of a live model object; this is the
    one place that spec is parsed.  The model carries the validated
    values with every default filled in, so the array engine's batched
    draws read their parameters off it.  ``loss_probability`` seeds the
    ``p`` of the Bernoulli-flavored kinds unless ``params`` overrides it.
    Unknown kinds or parameter names and out-of-range values raise
    :class:`~repro.errors.ConfigurationError`.
    """
    if kind not in _LOSS_MODELS:
        raise ConfigurationError(
            f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}"
        )
    model_class, names = _LOSS_MODELS[kind]
    kwargs = dict(params or {})
    unknown = sorted(set(kwargs) - set(names))
    if unknown:
        raise ConfigurationError(
            f"unknown loss parameters for kind {kind!r}: {unknown} "
            f"(accepted: {list(names)})"
        )
    if "p" in names:
        kwargs.setdefault("p", loss_probability)
    if kind == "distance":
        kwargs["transmission_range"] = transmission_range
    try:
        if kind == "bounded":
            kwargs["budget"] = int(kwargs.get("budget", 3))
        return model_class(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid {kind!r} loss spec: {exc}") from exc


def loss_params(
    kind: str, p: float, budget: int
) -> Tuple[Tuple[str, float], ...]:
    """The ``params`` of the soak/runtime shorthand ``(kind, p, budget)``.

    Differential specs and runtime scenarios describe loss by one
    intensity ``p`` (plus the adversary's drop ``budget``); this expands
    the pair into the declarative spec :func:`build_loss_model` parses.
    """
    if kind == "bounded":
        return (("p", p), ("budget", float(budget)))
    if kind == "bernoulli":
        return (("p", p),)
    if kind == "gilbert":
        # Bursty-channel sweep: ``p`` scales the Good -> Bad entry rate,
        # so the stationary loss rises monotonically with it while
        # bursts stay genuinely bursty (p_bad = 0.8).
        return (
            ("p_good", 0.02),
            ("p_bad", 0.8),
            ("p_gb", p / 5.0),
            ("p_bg", 0.3),
        )
    return ()
