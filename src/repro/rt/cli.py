"""CLI for the real-network runtime: ``repro rt run`` and ``repro rt diff``.

``run`` executes one N-node scenario over localhost UDP sockets with
wall-clock timers and crash injection, optionally spooling per-node
JSONL event logs and merging them into a single trace that the existing
``repro trace`` analyzers consume unchanged.  ``diff`` is the
``differential:realnet`` harness: seeded specs run under both the
discrete-event simulator and the UDP runtime, and the structural /
oracle / latency-anchor comparison of :mod:`repro.audit.realnet` must
come back clean; any divergence prints a ready-to-paste seeded repro.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments.args import add_scenario_arguments, config_from_args
from repro.util.tables import render_table


def add_rt_parser(sub) -> None:
    """Register the ``rt`` subcommand on the root subparsers."""
    rt = sub.add_parser(
        "rt", help="real-network runtime (asyncio UDP on localhost)"
    )
    rt_sub = rt.add_subparsers(dest="rt_command", required=True)

    run = rt_sub.add_parser(
        "run", help="run a scenario over real UDP sockets"
    )
    add_scenario_arguments(run, dict(
        cluster_count=2, members_per_cluster=10, crash_count=1,
        executions=3, seed=0, loss_kind="perfect", loss_p=0.1,
        time_scale=0.05,
    ))
    run.add_argument("--spool-dir", dest="spool_dir", type=str, default="",
                     help="write per-node JSONL spools here and merge them "
                          "(analyze with 'repro trace <dir>/merged.jsonl')")

    diff = rt_sub.add_parser(
        "diff", help="sim-vs-real differential conformance (realnet)"
    )
    diff.add_argument("--specs", type=int, default=5,
                      help="number of seeded specs to check")
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--time-scale", dest="time_scale", type=float,
                      default=0.05)
    diff.add_argument("--tolerance", type=float, default=None,
                      help="latency-anchor tolerance band in phi units")
    diff.add_argument("--out", type=str, default="",
                      help="directory for seeded repro .py files on "
                           "divergence")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.rt.runtime import RtScenario, run_rt_scenario

    spool_dir = Path(args.spool_dir) if args.spool_dir else None
    result = run_rt_scenario(
        config_from_args(args, build=RtScenario), spool_dir=spool_dir
    )
    for key, value in result.summary().items():
        print(f"  {key:26s} {value:.6g}")
    if result.crash_times:
        phi = result.fds.phi
        latencies = result.detection_latencies  # one pass over the spool
        rows = []
        for nid in sorted(result.crash_times):
            latency = latencies.get(nid)
            rows.append([
                int(nid),
                f"{result.crash_times[nid]:.3f}",
                "-" if latency is None else f"{latency:.3f}",
                "-" if latency is None else f"{latency / phi:.3f}",
            ])
        print(render_table(
            ["node", "crashed_at (s)", "latency (s)", "latency (phi)"],
            rows, title=f"Detection latency, phi={phi:g} wall seconds",
        ))
    if result.merged_spool is not None:
        print(f"  spools merged to {result.merged_spool} "
              f"(analyze with 'repro trace')")
    ok = (
        result.properties.is_accurate
        and result.codec_errors == 0
    )
    return 0 if ok else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.audit.differential import repro_snippet
    from repro.audit.realnet import (
        DEFAULT_TOLERANCE_PHI,
        check_realnet,
        run_realnet_suite,
    )

    tolerance = (
        DEFAULT_TOLERANCE_PHI if args.tolerance is None else args.tolerance
    )
    verdicts = run_realnet_suite(
        args.specs,
        seed=args.seed,
        time_scale=args.time_scale,
        tolerance_phi=tolerance,
        log=print,
    )
    failures = [(spec, found) for spec, found in verdicts if found]
    out_dir = Path(args.out) if args.out else None
    for spec, violations in failures:
        snippet = repro_snippet(spec, violations, check=check_realnet)
        print(f"--- realnet repro (seed {spec.seed}) ---")
        print(snippet)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"repro_realnet_{spec.seed}.py"
            path.write_text(snippet, encoding="utf-8")
            print(f"written to {path}")
    status = f"{len(failures)} divergent spec(s)" if failures else "clean"
    print(f"realnet: {len(verdicts)} spec(s), {status}")
    return 1 if failures else 0


def cmd_rt(args: argparse.Namespace) -> int:
    if args.rt_command == "run":
        return _cmd_run(args)
    return _cmd_diff(args)
