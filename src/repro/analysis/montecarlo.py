"""Monte Carlo twins of the Section 5 measures.

Each estimator samples the same probability space the analytic formula
integrates over -- uniform member placement in the cluster disk and iid
Bernoulli message loss -- and counts the failure event directly.

Because every measure factors into ``prefactor * P(conditional event)``
where the prefactor is an exact power of ``p`` (the direct losses at the
detecting authority), the estimators sample only the *conditional* event
and multiply by the exact prefactor.  This keeps the estimators usable even
where the full event probability is far below 1/trials: the conditional
part (no witness / no rescuer) is many orders of magnitude larger.

Each returns an :class:`McEstimate` carrying the conditional success count
so callers can attach a Wilson interval to the conditional mean and scale
it by the prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.confidence import wilson_interval
from repro.analysis.geometry import PAPER_TRANSMISSION_RANGE
from repro.errors import AnalysisError, ConfigurationError, ExperimentError
from repro.util.validation import check_int_at_least, check_probability


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate of ``prefactor * conditional_probability``.

    ``n`` and ``p`` record the measure parameters the estimate was sampled
    at; :func:`merge_estimates` refuses to pool estimates of *different*
    measures, which would silently produce a meaningless average.  They
    default to ``None`` for hand-built estimates that carry no provenance.
    """

    estimate: float
    prefactor: float
    conditional_successes: int
    trials: int
    n: Optional[int] = None
    p: Optional[float] = None

    @property
    def conditional_mean(self) -> float:
        return self.conditional_successes / self.trials

    def interval(self, confidence: float = 0.99) -> Tuple[float, float]:
        """Wilson CI on the conditional part, scaled by the prefactor."""
        low, high = wilson_interval(
            self.conditional_successes, self.trials, confidence
        )
        return (self.prefactor * low, self.prefactor * high)

    def contains(self, value: float, confidence: float = 0.99) -> bool:
        """Whether ``value`` lies inside the scaled interval."""
        low, high = self.interval(confidence)
        return low <= value <= high


def _check(n: int, p: float, trials: int) -> None:
    check_int_at_least("n", n, 2)
    check_probability("p", p)
    check_int_at_least("trials", trials, 1)


def _member_positions(
    rng: np.random.Generator, trials: int, count: int, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """(trials, count) x/y arrays of uniform-in-disk member positions."""
    r = radius * np.sqrt(rng.uniform(size=(trials, count)))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=(trials, count))
    return r * np.cos(theta), r * np.sin(theta)


def mc_false_detection(
    n: int,
    p: float,
    trials: int,
    rng: np.random.Generator,
    distance: float | None = None,
    radius: float = PAPER_TRANSMISSION_RANGE,
) -> McEstimate:
    """Monte Carlo P^(False detection) for a member at ``distance``.

    Samples the other ``N - 2`` members, then checks that no in-cluster
    neighbor of ``v`` both overheard the heartbeat and delivered its digest
    to the CH; multiplies by the exact prefactor ``p**2``.
    """
    _check(n, p, trials)
    d = radius if distance is None else distance
    if not 0.0 <= d <= radius:
        raise AnalysisError(f"distance must be in [0, R], got {d}")
    m = n - 2
    xs, ys = _member_positions(rng, trials, m, radius)
    # v sits at (d, 0); CH at the origin.  Rotational symmetry makes the
    # angular position of v irrelevant.
    neighbor = (xs - d) ** 2 + ys**2 <= radius * radius
    overheard = rng.uniform(size=(trials, m)) > p
    digest_ok = rng.uniform(size=(trials, m)) > p
    witnessed = np.any(neighbor & overheard & digest_ok, axis=1)
    successes = int(np.count_nonzero(~witnessed))
    prefactor = p * p
    return McEstimate(
        estimate=prefactor * successes / trials,
        prefactor=prefactor,
        conditional_successes=successes,
        trials=trials,
        n=n,
        p=p,
    )


def mc_false_detection_on_ch(
    n: int,
    p: float,
    trials: int,
    rng: np.random.Generator,
    dch_distance: float = 0.0,
    radius: float = PAPER_TRANSMISSION_RANGE,
) -> McEstimate:
    """Monte Carlo P(False detection on CH).

    The witness chain for each of the other ``N - 2`` members: hear the
    CH's heartbeat (every member is in the CH's range by construction),
    lie within the DCH's reception lens (automatic when
    ``dch_distance == 0``), and deliver its digest to the DCH.  Prefactor:
    ``p**3`` (CH heartbeat, CH digest, and R-3 update all lost at the DCH).
    """
    _check(n, p, trials)
    if not 0.0 <= dch_distance <= radius:
        raise AnalysisError(
            f"dch_distance must be in [0, R], got {dch_distance}"
        )
    m = n - 2
    heard_ch = rng.uniform(size=(trials, m)) > p
    digest_ok = rng.uniform(size=(trials, m)) > p
    if dch_distance > 0.0:
        xs, ys = _member_positions(rng, trials, m, radius)
        in_dch_range = (xs - dch_distance) ** 2 + ys**2 <= radius * radius
    else:
        in_dch_range = np.ones((trials, m), dtype=bool)
    witnessed = np.any(heard_ch & in_dch_range & digest_ok, axis=1)
    successes = int(np.count_nonzero(~witnessed))
    prefactor = p**3
    return McEstimate(
        estimate=prefactor * successes / trials,
        prefactor=prefactor,
        conditional_successes=successes,
        trials=trials,
        n=n,
        p=p,
    )


def mc_incompleteness(
    n: int,
    p: float,
    trials: int,
    rng: np.random.Generator,
    distance: float | None = None,
    radius: float = PAPER_TRANSMISSION_RANGE,
) -> McEstimate:
    """Monte Carlo P^(Incompleteness) for a member at ``distance``.

    Conditional event: no in-cluster neighbor of ``v`` is a successful
    progressive peer forwarder (received the update, heard the request,
    delivered the copy).  Prefactor: ``p`` (the R-3 broadcast lost at v).
    """
    _check(n, p, trials)
    d = radius if distance is None else distance
    if not 0.0 <= d <= radius:
        raise AnalysisError(f"distance must be in [0, R], got {d}")
    m = n - 2
    xs, ys = _member_positions(rng, trials, m, radius)
    neighbor = (xs - d) ** 2 + ys**2 <= radius * radius
    has_update = rng.uniform(size=(trials, m)) > p
    heard_request = rng.uniform(size=(trials, m)) > p
    forward_ok = rng.uniform(size=(trials, m)) > p
    rescued = np.any(neighbor & has_update & heard_request & forward_ok, axis=1)
    successes = int(np.count_nonzero(~rescued))
    return McEstimate(
        estimate=p * successes / trials,
        prefactor=p,
        conditional_successes=successes,
        trials=trials,
        n=n,
        p=p,
    )


# ----------------------------------------------------------------------
# Chunked execution
# ----------------------------------------------------------------------

#: An estimator callable: ``(n, p, trials, rng, **kwargs) -> McEstimate``.
McEstimator = Callable[..., McEstimate]

#: Fixed default chunk count for :func:`mc_chunked`.  The chunking scheme
#: (and hence the per-chunk RNG streams) depends only on the estimator
#: inputs, so this one-shot call and its pooled campaign twin
#: (:func:`repro.campaign.plans.mc_plan`) return bit-identical estimates;
#: the count is part of every MC campaign key.
DEFAULT_MC_CHUNKS = 8


def chunk_sizes(total: int, chunks: int) -> List[int]:
    """Split ``total`` into ``chunks`` balanced positive parts (sum exact).

    The split depends only on ``(total, chunks)``, so chunked estimators
    stay deterministic wherever the chunks run.
    """
    if total < 1:
        raise ExperimentError(f"total must be >= 1, got {total}")
    if chunks < 1:
        raise ExperimentError(f"chunks must be >= 1, got {chunks}")
    chunks = min(chunks, total)
    base, extra = divmod(total, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def spawn_seed_sequences(
    root_seed: int, count: int
) -> List[np.random.SeedSequence]:
    """``count`` independent child sequences of one root seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, the recommended scheme
    for parallel streams: children are statistically independent of each
    other and of the parent, and the mapping (root_seed, index) -> stream
    is stable across processes and platforms.
    """
    if count < 1:
        raise ExperimentError(f"count must be >= 1, got {count}")
    return np.random.SeedSequence(int(root_seed)).spawn(int(count))


def merge_estimates(estimates: Sequence[McEstimate]) -> McEstimate:
    """Pool independent estimates of the same measure into one.

    Conditional successes and trials add; the (exact) prefactor must agree
    across all parts, and so must the measure parameters ``(n, p)`` when
    the estimates carry them -- pooling counts sampled at different
    parameters would average two different probabilities into a number
    that estimates neither.
    """
    estimates = list(estimates)
    if not estimates:
        raise ConfigurationError(
            "merge_estimates needs at least one estimate; got an empty "
            "sequence (did a chunked run produce no chunks?)"
        )
    head = estimates[0]
    for part in estimates[1:]:
        if (part.n, part.p) != (head.n, head.p):
            raise ConfigurationError(
                "cannot merge estimates of different measures: "
                f"(n={head.n}, p={head.p}) vs (n={part.n}, p={part.p})"
            )
    prefactor = head.prefactor
    if any(e.prefactor != prefactor for e in estimates):
        raise AnalysisError("cannot merge estimates with different prefactors")
    successes = sum(e.conditional_successes for e in estimates)
    trials = sum(e.trials for e in estimates)
    return McEstimate(
        estimate=prefactor * successes / trials,
        prefactor=prefactor,
        conditional_successes=successes,
        trials=trials,
        n=head.n,
        p=head.p,
    )


def mc_chunked(
    estimator: McEstimator,
    n: int,
    p: float,
    trials: int,
    seed: int,
    chunks: int = DEFAULT_MC_CHUNKS,
    **kwargs: object,
) -> McEstimate:
    """Run ``estimator`` over ``trials`` split into seeded chunks.

    Each chunk draws from its own :class:`~numpy.random.SeedSequence`
    child of ``seed`` and the chunk results are merged in chunk order, so
    the estimate depends only on ``(estimator, n, p, trials, seed,
    chunks, kwargs)``.  The chunks run serially in-process; to spread
    them over cores run the same estimate as a campaign
    (:func:`repro.campaign.plans.mc_plan`), which is bit-identical.
    Extra ``kwargs`` (``distance``, ``radius``, ...) are forwarded to the
    estimator.
    """
    check_int_at_least("trials", trials, 1)
    check_int_at_least("chunks", chunks, 1)
    sizes = chunk_sizes(trials, chunks)
    seqs = spawn_seed_sequences(seed, len(sizes))
    return merge_estimates(
        [
            estimator(
                int(n), float(p), size, np.random.default_rng(seq), **kwargs
            )
            for size, seq in zip(sizes, seqs)
        ]
    )
