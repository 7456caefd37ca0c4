"""Backend of ``python -m repro trace summarize|timeline|lineage|latency``.

Loads a trace spool (gzip'd or plain JSONL, written by
:class:`~repro.obs.spool.SpoolingTracer` or serialized from a
:class:`~repro.sim.trace.RecordingTracer`) and renders the same aligned
tables the campaign and scenario commands print, so a spooled run and a
live run read identically.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path
from typing import Optional

from repro.obs.analyze import (
    Lineage,
    TraceSummary,
    latency_payload,
    lineage,
    lineage_payload,
    summarize,
    summary_payload,
    timeline,
    timeline_payload,
)
from repro.obs.spool import iter_spool
from repro.util.tables import render_table


def render_json(payload: dict) -> str:
    """The one JSON serialization both the CLI and the dashboard use.

    ``repro serve`` returns exactly these bytes, so an endpoint response
    and the matching ``--json`` CLI output agree byte for byte.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def add_trace_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``trace`` subcommand tree on the root parser."""
    trace = sub.add_parser(
        "trace", help="analyze a spooled trace (summaries, lineage, latency)"
    )
    actions = trace.add_subparsers(dest="trace_action", required=True)

    def _spool_arg(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("spool", type=str,
                            help="trace spool path (.jsonl or .jsonl.gz)")

    summ = actions.add_parser(
        "summarize", help="record counts, phase time shares, latency histogram"
    )
    _spool_arg(summ)
    summ.add_argument("--json", action="store_true",
                      help="emit the reduction as JSON instead of tables")
    summ.add_argument("--metrics-out", type=str, default="",
                      help="also write the registry in Prometheus text format")

    tl = actions.add_parser("timeline", help="per-interval event counts")
    _spool_arg(tl)
    tl.add_argument("--bucket", type=float, default=None,
                    help="bucket width in seconds (default: the trace's phi)")
    tl.add_argument("--json", action="store_true",
                    help="emit the bucketed rows as JSON instead of a table")

    lin = actions.add_parser(
        "lineage", help="reconstruct one failure report's propagation path"
    )
    _spool_arg(lin)
    lin.add_argument("report_id", type=int,
                     help="the failed node's id (the report's subject)")
    lin.add_argument("--json", action="store_true",
                     help="emit the reconstructed chain as JSON")

    lat = actions.add_parser(
        "latency", help="per-crash detection latency in phi units"
    )
    _spool_arg(lat)
    lat.add_argument("--json", action="store_true",
                     help="emit per-crash latencies as JSON")


def cmd_trace(args: argparse.Namespace) -> int:
    handler = {
        "summarize": _cmd_summarize,
        "timeline": _cmd_timeline,
        "lineage": _cmd_lineage,
        "latency": _cmd_latency,
    }[args.trace_action]
    return handler(args)


# ----------------------------------------------------------------------
def _load_summary(path: str) -> TraceSummary:
    return summarize(iter_spool(Path(path)))


def _cmd_summarize(args: argparse.Namespace) -> int:
    summary = _load_summary(args.spool)
    if getattr(args, "json", False):
        print(render_json(summary_payload(summary)), end="")
    else:
        _print_summary(summary)
    if args.metrics_out:
        out = Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(summary.registry.render_prometheus(), encoding="utf-8")
        print(f"\nmetrics written to {out}")
    return 0


def _print_summary(summary: TraceSummary) -> None:
    meta = summary.meta
    header = (
        f"{summary.records} record(s) over {summary.span:.3f} s"
    )
    if meta.found:
        header += (
            f"; scenario: {meta.nodes} nodes, phi={meta.phi}, "
            f"thop={meta.thop}, seed={meta.seed}"
        )
        if meta.wall_clock:
            header += " (wall-clock runtime trace)"
    print(header)
    print()
    kind_rows = [[kind, count] for kind, count in sorted(summary.kinds.items())]
    print(render_table(["kind", "count"], kind_rows, title="Record kinds"))
    shares = summary.phase_shares()
    if shares:
        print()
        print(render_table(
            ["phase", "seconds", "share", "calls"],
            [[p, s, f"{100 * share:.1f}%", c] for p, s, share, c in shares],
            title="Phase time shares (profiled wall clock)",
        ))
    if summary.crash_times:
        print()
        _print_latency_histogram(summary)


def _print_latency_histogram(summary: TraceSummary) -> None:
    latencies = summary.detection_latencies_phi()
    detected = [v for v in latencies.values() if v is not None]
    undetected = sum(1 for v in latencies.values() if v is None)
    hist = summary.registry._histograms.get("repro_detection_latency_phi")
    rows = []
    if hist is not None:
        for bound, cumulative in hist.cumulative():
            label = "+Inf" if math.isinf(bound) else f"<= {bound:g} phi"
            rows.append([label, cumulative])
    if detected:
        mean_phi = sum(detected) / len(detected)
        mean = f"mean {mean_phi:.3f} phi"
        if summary.meta.wall_clock:
            mean += f" = {1000 * mean_phi * summary.meta.phi:.1f} ms"
        title = (
            f"Detection latency ({len(detected)} detected, "
            f"{undetected} undetected of {len(latencies)} crash(es); {mean})"
        )
    else:
        title = f"Detection latency ({undetected} crash(es), none detected)"
    print(render_table(
        ["latency bucket", "crashes detected"], rows, title=title,
    ))


def _cmd_timeline(args: argparse.Namespace) -> int:
    rows, meta = timeline(iter_spool(Path(args.spool)), bucket=args.bucket)
    if getattr(args, "json", False):
        print(render_json(timeline_payload(rows, meta, bucket=args.bucket)),
              end="")
        return 0
    if not rows:
        print("empty trace")
        return 0
    groups = sorted(rows[0][1])
    table = [
        [start, *(counts[g] for g in groups)] for start, counts in rows
    ]
    width = args.bucket if args.bucket is not None else meta.phi
    print(render_table(
        ["t_start", *groups], table,
        title=f"Events per {width:g} s bucket",
    ))
    return 0


def _cmd_lineage(args: argparse.Namespace) -> int:
    chain = lineage(iter_spool(Path(args.spool)), args.report_id)
    if getattr(args, "json", False):
        print(render_json(lineage_payload(chain)), end="")
    else:
        _print_lineage(chain)
    return 0 if chain.detected else 1


def _print_lineage(chain: Lineage) -> None:
    crash = (
        f"crashed at t={chain.crash_time:.3f}"
        if chain.crash_time is not None
        else "crash not in trace"
    )
    detectors = list(chain.detectors)
    if chain.detected or not detectors:
        verdict = f"detected by {detectors or 'nobody'}"
    else:
        verdict = f"undetected (announced by {detectors} before the crash)"
    print(
        f"report lineage for node {chain.target}: {crash}; {verdict}; "
        f"{chain.forward_hops} boundary forwarding(s), "
        f"{chain.relays} relay(s)"
    )
    rows = [
        [
            f"{event.time:.3f}",
            event.execution,
            event.round,
            "-" if event.node is None else event.node,
            event.kind,
            event.note,
        ]
        for event in chain.events
    ]
    print(render_table(
        ["t", "exec", "round", "node", "event", "what happened"], rows,
    ))


def _cmd_latency(args: argparse.Namespace) -> int:
    summary = _load_summary(args.spool)
    latencies = summary.detection_latencies_phi()
    if getattr(args, "json", False):
        print(render_json(latency_payload(summary)), end="")
        return 0
    if not latencies:
        print("trace records no crashes")
        return 0
    phi = summary.meta.phi
    wall = summary.meta.wall_clock
    rows = []
    for node, latency in sorted(latencies.items()):
        crashed_at = summary.crash_times[node]
        detected_at = summary.first_detection.get(node)
        row = [
            node,
            f"{crashed_at:.3f}",
            "-" if detected_at is None else f"{detected_at:.3f}",
            "undetected" if latency is None else f"{latency:.3f}",
        ]
        if wall:
            row.append(
                "-" if latency is None else f"{1000 * latency * phi:.1f}"
            )
        rows.append(row)
    headers = ["node", "crashed_at", "first_detection", "latency (phi)"]
    if wall:
        headers.append("latency (ms)")
        title = f"Detection latency, phi={phi:g} wall seconds"
    else:
        title = f"Detection latency, phi={phi:g} s"
    print(render_table(headers, rows, title=title))
    return 0
