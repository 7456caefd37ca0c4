"""Durable experiment campaigns: caching, checkpoint/resume, telemetry.

A *campaign* is a one-shot experiment (a multi-seed scenario replication
or a chunked Monte Carlo estimate) recast as a list of independent,
deterministic **chunks**, each addressed by a content hash of everything
that determines its result.  Three cooperating pieces make the campaign
durable and observable:

- :mod:`repro.campaign.store` -- a content-addressed result store.  A
  chunk key hashes the canonical config dict, the seed material, the
  chunk geometry, and a fingerprint of the library source, so a warm
  store replays any sweep/benchmark/soak as cache hits that are
  bit-identical to a cold run;
- :mod:`repro.campaign.runner` -- a checkpointed runner that journals
  every finished chunk, payload included, to a JSONL redo log committed
  in groups.  A campaign killed
  mid-run resumes exactly where it stopped, and the merged result equals
  the uninterrupted run bit for bit;
- :mod:`repro.campaign.telemetry` -- a JSONL event stream (chunks
  done/total, replications/sec, cache-hit ratio, ETA, in-flight chunks)
  plus a per-chunk timeout-and-retry policy for stuck pool workers.

The CLI surface is ``python -m repro campaign run|resume|status|gc``;
``repro soak`` and the Monte Carlo / scalability benchmarks run through
the same store.
"""

from repro.campaign.plans import (
    CampaignPlan,
    ChunkTask,
    MC_ESTIMATORS,
    mc_plan,
    plan_from_manifest,
    scenario_repeat_plan,
)
from repro.campaign.runner import (
    CampaignOptions,
    CampaignOutcome,
    campaign_status,
    run_campaign,
)
from repro.campaign.store import (
    ResultStore,
    canonical_config_dict,
    canonical_json,
    code_fingerprint,
    config_from_canonical,
    content_key,
)
from repro.campaign.telemetry import Telemetry, read_events

__all__ = [
    "CampaignOptions",
    "CampaignOutcome",
    "CampaignPlan",
    "ChunkTask",
    "MC_ESTIMATORS",
    "ResultStore",
    "Telemetry",
    "campaign_status",
    "canonical_config_dict",
    "canonical_json",
    "code_fingerprint",
    "config_from_canonical",
    "content_key",
    "mc_plan",
    "plan_from_manifest",
    "read_events",
    "run_campaign",
    "scenario_repeat_plan",
]
