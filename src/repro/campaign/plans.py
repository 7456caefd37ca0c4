"""Campaign plans: experiments decomposed into content-addressed chunks.

A :class:`CampaignPlan` is the durable, pooled twin of a serial one-shot
entry point:

- :func:`scenario_repeat_plan` mirrors
  :func:`repro.experiments.repeat.repeat_scenario` -- one chunk per
  replication seed, merged with the same aggregation in seed order;
- :func:`mc_plan` mirrors :func:`repro.analysis.montecarlo.mc_chunked`
  -- the identical ``chunk_sizes`` split and ``SeedSequence``-spawned
  chunk streams, merged with :func:`merge_estimates` in chunk order.

Because the chunk decomposition, the per-chunk seed material, and the
merge order are all pure functions of the plan parameters, a campaign's
merged result is bit-identical to its one-shot twin -- regardless of how
many times it was interrupted, resumed, or served from the store.

Chunk execution is dispatched through the module-level ``EXECUTORS``
registry keyed by task kind, so tasks stay picklable (plain dicts) for
the process pool, and tests can register synthetic kinds (slow chunks,
failing chunks) without touching the runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.montecarlo import (
    DEFAULT_MC_CHUNKS,
    McEstimate,
    chunk_sizes,
    mc_false_detection,
    mc_false_detection_on_ch,
    mc_incompleteness,
    merge_estimates,
    spawn_seed_sequences,
)
from repro.campaign.store import (
    canonical_config_dict,
    code_fingerprint,
    config_from_canonical,
    content_key,
)
from repro.errors import ConfigurationError
from repro.experiments.repeat import (
    RepeatedResult,
    aggregate_summaries,
    check_seeds,
)
from repro.experiments.runner import ScenarioConfig, run_scenario

#: Monte Carlo estimators addressable by name (names are part of chunk
#: keys, so renaming one invalidates its cached results -- intended).
MC_ESTIMATORS: Dict[str, Callable[..., McEstimate]] = {
    "false_detection": mc_false_detection,
    "false_detection_on_ch": mc_false_detection_on_ch,
    "incompleteness": mc_incompleteness,
}


@dataclass(frozen=True)
class ChunkTask:
    """One unit of campaign work: a picklable payload plus its address."""

    index: int
    kind: str
    payload: Dict[str, Any]
    key: str
    #: How many simulator executions / MC trials this chunk contributes
    #: (telemetry's replications/sec accounting).
    replications: int


@dataclass(frozen=True)
class CampaignPlan:
    """A fully-determined campaign: identity, chunks, and merge rule."""

    campaign_id: str
    kind: str
    params: Dict[str, Any]
    chunks: Tuple[ChunkTask, ...]

    @property
    def total_replications(self) -> int:
        return sum(c.replications for c in self.chunks)

    def manifest(self) -> Dict[str, Any]:
        return {
            "schema": "repro.campaign/v1",
            "id": self.campaign_id,
            "kind": self.kind,
            "params": self.params,
            "code": code_fingerprint(),
            "chunks": [
                {"index": c.index, "key": c.key, "replications": c.replications}
                for c in self.chunks
            ],
        }

    def merge(self, results: Sequence[Dict[str, Any]]):
        """Fold per-chunk payloads (in chunk order) into the final result."""
        return MERGERS[self.kind](self.params, results)


def _campaign_id(kind: str, params: Dict[str, Any]) -> str:
    # content_key already folds in the code fingerprint.
    return content_key("campaign", {"kind": kind, "params": params})[:16]


# ----------------------------------------------------------------------
# Scenario replication campaigns
# ----------------------------------------------------------------------
def scenario_repeat_plan(
    config: ScenarioConfig, seeds: Sequence[int]
) -> CampaignPlan:
    """One chunk per replication seed of ``config``.

    The merged result is bit-identical to
    ``repeat_scenario(config, seeds)``: same per-seed summaries (JSON
    float round-trips are exact), same seed-order aggregation.
    """
    seeds = check_seeds(seeds)
    base = canonical_config_dict(config)
    params = {"config": base, "seeds": list(seeds)}
    chunks = []
    for index, seed in enumerate(seeds):
        payload = {"config": dict(base, seed=int(seed))}
        chunks.append(
            ChunkTask(
                index=index,
                kind="scenario",
                payload=payload,
                key=content_key("scenario", payload),
                replications=int(base["executions"]),
            )
        )
    return CampaignPlan(
        campaign_id=_campaign_id("scenario", params),
        kind="scenario",
        params=params,
        chunks=tuple(chunks),
    )


def _execute_scenario_chunk(payload: Dict[str, Any]) -> Dict[str, Any]:
    config = config_from_canonical(payload["config"])
    return {"summary": run_scenario(config).summary()}


def _merge_scenario(
    params: Dict[str, Any], results: Sequence[Dict[str, Any]]
) -> RepeatedResult:
    config = config_from_canonical(params["config"])
    return aggregate_summaries(
        config, params["seeds"], [r["summary"] for r in results]
    )


# ----------------------------------------------------------------------
# Monte Carlo campaigns
# ----------------------------------------------------------------------
def mc_plan(
    estimator: str,
    n: int,
    p: float,
    trials: int,
    seed: int,
    chunks: int = DEFAULT_MC_CHUNKS,
    **kwargs: float,
) -> CampaignPlan:
    """Chunked MC estimate as a campaign; twin of :func:`mc_chunked`.

    The chunk split (:func:`chunk_sizes`) and the per-chunk seed streams
    (``SeedSequence(seed).spawn(...)``) follow ``mc_chunked`` exactly, so
    the merged estimate is bit-identical to the one-shot call with the
    same ``(estimator, n, p, trials, seed, chunks, kwargs)``.
    """
    if estimator not in MC_ESTIMATORS:
        raise ConfigurationError(
            f"unknown MC estimator {estimator!r}; "
            f"choose from {sorted(MC_ESTIMATORS)}"
        )
    sizes = chunk_sizes(int(trials), int(chunks))
    params = {
        "estimator": estimator,
        "n": int(n),
        "p": float(p),
        "trials": int(trials),
        "seed": int(seed),
        "chunks": len(sizes),
        "kwargs": {k: float(v) for k, v in sorted(kwargs.items())},
    }
    tasks = []
    for index, size in enumerate(sizes):
        payload = {
            "estimator": estimator,
            "n": params["n"],
            "p": params["p"],
            "chunk_trials": int(size),
            "seed": params["seed"],
            "chunk_index": index,
            "chunk_count": len(sizes),
            "kwargs": params["kwargs"],
        }
        tasks.append(
            ChunkTask(
                index=index,
                kind="mc",
                payload=payload,
                key=content_key("mc", payload),
                replications=int(size),
            )
        )
    return CampaignPlan(
        campaign_id=_campaign_id("mc", params),
        kind="mc",
        params=params,
        chunks=tuple(tasks),
    )


def _execute_mc_chunk(payload: Dict[str, Any]) -> Dict[str, Any]:
    estimator = MC_ESTIMATORS[payload["estimator"]]
    # Re-spawn the full child list and index into it: the (seed, index)
    # -> stream mapping must match mc_chunked's regardless of which
    # chunks this process happens to execute.
    seqs = spawn_seed_sequences(payload["seed"], payload["chunk_count"])
    estimate = estimator(
        payload["n"],
        payload["p"],
        payload["chunk_trials"],
        np.random.default_rng(seqs[payload["chunk_index"]]),
        **payload.get("kwargs", {}),
    )
    return {
        "estimate": estimate.estimate,
        "prefactor": estimate.prefactor,
        "conditional_successes": estimate.conditional_successes,
        "trials": estimate.trials,
        "n": estimate.n,
        "p": estimate.p,
    }


def _merge_mc(
    params: Dict[str, Any], results: Sequence[Dict[str, Any]]
) -> McEstimate:
    return merge_estimates([McEstimate(**r) for r in results])


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
#: Task-kind -> chunk executor.  Module-level (picklable dispatch) so
#: chunks can cross a process boundary; tests may register extra kinds.
EXECUTORS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "scenario": _execute_scenario_chunk,
    "mc": _execute_mc_chunk,
}

MERGERS: Dict[str, Callable[[Dict[str, Any], Sequence[Dict[str, Any]]], Any]] = {
    "scenario": _merge_scenario,
    "mc": _merge_mc,
}


def execute_chunk(task: ChunkTask) -> Dict[str, Any]:
    """Run one chunk in the current process (the pool's entry point)."""
    try:
        executor = EXECUTORS[task.kind]
    except KeyError:
        raise ConfigurationError(
            f"no executor registered for chunk kind {task.kind!r}"
        ) from None
    return executor(task.payload)


def plan_from_manifest(manifest: Dict[str, Any]) -> CampaignPlan:
    """Rebuild the plan a stored manifest describes (for ``resume``).

    The plan is recomputed from ``kind`` + ``params`` alone and then
    checked against the recorded chunk keys: if the library changed
    since the manifest was written, the keys (which embed the code
    fingerprint) no longer match and resuming is refused -- a resumed
    half must never mix results from two code versions.
    """
    kind = manifest.get("kind")
    builders = {
        "scenario": lambda p: scenario_repeat_plan(
            config_from_canonical(p["config"]), p["seeds"]
        ),
        "mc": lambda p: mc_plan(
            p["estimator"],
            p["n"],
            p["p"],
            p["trials"],
            p["seed"],
            p["chunks"],
            **p.get("kwargs", {}),
        ),
    }
    if kind not in builders:
        raise ConfigurationError(f"unknown campaign kind {kind!r} in manifest")
    plan = builders[kind](manifest["params"])
    recorded = [c["key"] for c in manifest.get("chunks", [])]
    current = [c.key for c in plan.chunks]
    if recorded != current:
        raise ConfigurationError(
            "campaign manifest does not match the current code/parameters "
            "(code fingerprint or chunk decomposition changed); re-run the "
            "campaign instead of resuming, or gc the stale store"
        )
    return plan
