"""Backend of ``python -m repro campaign run|resume|status|gc``.

Kept out of ``repro.__main__`` so the argparse surface there stays a thin
dispatch table.  Exit codes are part of the contract (CI scripts branch
on them): 0 complete, 2 failed chunks, 3 partial (``--stop-after``
checkpoint), 130 interrupted (SIGINT), 1 usage/configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path
from typing import Any, Dict

from repro.campaign.plans import (
    CampaignPlan,
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
from repro.campaign.store import ResultStore, default_store_root
from repro.experiments.args import add_scenario_arguments, config_from_args
from repro.util.tables import render_table


def add_campaign_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``campaign`` subcommand tree on the root parser."""
    campaign = sub.add_parser(
        "campaign",
        help="durable experiment campaigns (cached, resumable, observable)",
    )
    actions = campaign.add_subparsers(dest="campaign_action", required=True)

    def _execution_knobs(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--store", type=str, default="",
                            help="store root (default: $REPRO_STORE or ./.repro-store)")
        parser.add_argument("--workers", type=int, default=1,
                            help="process-pool width (1 = serial)")
        parser.add_argument("--stop-after", type=int, default=None,
                            help="checkpoint and exit 3 after this many chunks")
        parser.add_argument("--chunk-timeout", type=float, default=None,
                            help="seconds before a stuck pool chunk is retried in-process")
        parser.add_argument("--max-retries", type=int, default=1,
                            help="in-process retries for a timed-out/crashed chunk")
        parser.add_argument("--telemetry", type=str, default="",
                            help="mirror telemetry JSONL to this path")
        parser.add_argument("--result-json", type=str, default="",
                            help="write the merged result as JSON to this path")

    run = actions.add_parser("run", help="run (or implicitly resume) a campaign")
    run.add_argument("--kind", choices=("mc", "scenario"), required=True)
    # Monte Carlo campaign parameters.
    run.add_argument("--estimator", choices=sorted(MC_ESTIMATORS),
                     default="false_detection")
    run.add_argument("--n", type=int, default=50)
    run.add_argument("--p", type=float, default=0.5)
    run.add_argument("--trials", type=int, default=100_000)
    run.add_argument("--chunks", type=int, default=8)
    run.add_argument("--seed", type=int, default=0)
    # Scenario-replication campaign parameters.
    add_scenario_arguments(run, dict(
        cluster_count=4, members_per_cluster=12, loss_probability=0.1,
        crash_count=2, executions=5, engine="event", formation="oracle",
        formation_iterations=3, formation_backoff_fraction=0.4,
    ), flags={"loss_probability": "--loss-p"})
    run.add_argument("--seeds", type=int, default=8,
                     help="replication count (seeds seed-base..seed-base+seeds-1)")
    run.add_argument("--seed-base", type=int, default=1)
    _execution_knobs(run)

    resume = actions.add_parser(
        "resume", help="resume a campaign from its stored manifest"
    )
    resume.add_argument("--id", required=True, help="campaign id (see status)")
    _execution_knobs(resume)

    status = actions.add_parser("status", help="progress of stored campaigns")
    status.add_argument("--store", type=str, default="")
    status.add_argument("--id", default="", help="one campaign (default: all)")
    status.add_argument("--json", action="store_true",
                        help="emit the status snapshot as JSON (the same "
                             "document 'repro serve' returns at /api/campaigns)")

    gc = actions.add_parser("gc", help="prune stale store entries")
    gc.add_argument("--store", type=str, default="")
    gc.add_argument("--all", action="store_true",
                    help="wipe everything, not just stale-code entries")
    gc.add_argument("--dry-run", action="store_true")


def _store_from(args: argparse.Namespace) -> ResultStore:
    root = Path(args.store) if getattr(args, "store", "") else default_store_root()
    return ResultStore(root)


def _options_from(args: argparse.Namespace) -> CampaignOptions:
    return CampaignOptions(
        workers=args.workers,
        chunk_timeout=args.chunk_timeout,
        max_retries=args.max_retries,
        stop_after=args.stop_after,
        telemetry_path=Path(args.telemetry) if args.telemetry else None,
    )


def _plan_from_run_args(args: argparse.Namespace) -> CampaignPlan:
    if args.kind == "mc":
        return mc_plan(
            args.estimator, args.n, args.p, args.trials,
            seed=args.seed, chunks=args.chunks,
        )
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    return scenario_repeat_plan(config_from_args(args), seeds)


def result_as_json(outcome: CampaignOutcome) -> Dict[str, Any]:
    """The merged result as plain JSON (the CI equivalence currency).

    Floats pass through ``repr``-exact JSON round-trips, so two outcomes
    are bit-identical iff their JSON documents are byte-identical.
    """
    merged = outcome.merged
    if merged is None:
        return {"status": outcome.status, "merged": None}
    if dataclasses.is_dataclass(merged) and hasattr(merged, "metrics"):
        # RepeatedResult: metrics only (config/seeds are the identity).
        payload: Any = {
            "seeds": list(merged.seeds),
            "metrics": {
                key: dataclasses.asdict(summary)
                for key, summary in sorted(merged.metrics.items())
            },
        }
    elif dataclasses.is_dataclass(merged):
        payload = dataclasses.asdict(merged)
    else:
        payload = merged
    return {"status": outcome.status, "merged": payload}


def _finish(outcome: CampaignOutcome, args: argparse.Namespace) -> int:
    print(
        f"campaign {outcome.campaign_id}: {outcome.status} "
        f"({outcome.chunks_done}/{outcome.chunks_total} chunks, "
        f"{outcome.cache_hits} cache hit(s), {outcome.executed} executed)"
    )
    if outcome.failed_chunks:
        print(f"  failed chunks: {list(outcome.failed_chunks)}")
    if getattr(args, "result_json", "") and outcome.merged is not None:
        path = Path(args.result_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(result_as_json(outcome), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"  merged result written to {path}")
    return outcome.exit_code()


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_action == "run":
        plan = _plan_from_run_args(args)
        outcome = run_campaign(plan, _store_from(args), _options_from(args))
        return _finish(outcome, args)
    if args.campaign_action == "resume":
        store = _store_from(args)
        manifest_path = store.campaign_dir(args.id) / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            print(f"no campaign {args.id!r} under {store.root}")
            return 1
        plan = plan_from_manifest(manifest)
        outcome = run_campaign(plan, store, _options_from(args))
        return _finish(outcome, args)
    if args.campaign_action == "status":
        return _cmd_status(args)
    if args.campaign_action == "gc":
        return _cmd_gc(args)
    raise AssertionError(args.campaign_action)


def status_payload(store: ResultStore, campaign_id: str = "") -> Dict[str, Any]:
    """The machine-readable status snapshot of a store's campaigns.

    One surface for ``repro campaign status --json``, shell scripts, and
    the dashboard's ``/api/campaigns`` endpoint.  Campaigns are sorted by
    id, so the document (and the table rendered from it) is stable across
    invocations of the same store state.
    """
    ids = [campaign_id] if campaign_id else store.campaign_ids()
    campaigns = sorted(
        (campaign_status(store, cid) for cid in ids),
        key=lambda info: str(info["id"]),
    )
    return {"store": str(store.root), "campaigns": campaigns}


def _cmd_status(args: argparse.Namespace) -> int:
    store = _store_from(args)
    payload = status_payload(store, args.id)
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not payload["campaigns"]:
        print(f"no campaigns under {store.root}")
        return 0
    rows = []
    for info in payload["campaigns"]:
        progress = info.get("progress", {})
        eta = progress.get("eta_s")
        rows.append([
            info["id"], info["kind"],
            f"{info['chunks_done']}/{info['chunks_total']}",
            "yes" if info["complete"] else "no",
            info["cache_hits"], info["events"],
            "-" if eta is None else f"{eta:.1f}",
        ])
    print(render_table(
        ["campaign", "kind", "chunks", "complete", "cache_hits", "events",
         "eta_s"],
        rows, title=f"store: {store.root}",
    ))
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    store = _store_from(args)
    stats = store.gc(stale_only=not args.all, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"gc: {verb} {stats['objects_removed']} object(s) and "
        f"{stats['campaigns_removed']} campaign dir(s), "
        f"{stats['bytes_freed']} bytes"
    )
    return 0
