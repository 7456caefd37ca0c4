"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    Print the paper's Figures 5-7 as tables (closed-form evaluation).
``claims``
    Check every quantitative claim of the paper's evaluation prose.
``validate``
    Monte Carlo + protocol-in-the-loop validation at a chosen (N, p).
``scenario``
    Run an end-to-end multi-cluster scenario with crashes and print the
    scored summary.
``reachability``
    Print the DCH reachability study (the analysis the paper summarizes).
``soak``
    Randomized differential conformance soak: seeded scenarios run under
    paired configurations (digest ablation, event/array engine,
    distributed formation) with ground-truth oracles and trace audits;
    violations are shrunk to minimal seeded repros written as pytest
    files.
``campaign``
    Durable experiment campaigns: content-addressed result caching,
    checkpoint/resume via a chunk journal, live JSONL telemetry
    (``run``/``resume``/``status``/``gc``; see :mod:`repro.campaign`).
``trace``
    Analyze a spooled trace: ``summarize`` (record counts, phase time
    shares, phi-unit detection-latency histogram), ``timeline``,
    ``lineage <report-id>`` (one failure report's R-1 -> R-3 ->
    inter-cluster path), ``latency``.
``rt``
    Real-network runtime: ``run`` (an N-node scenario over localhost
    UDP sockets with wall-clock phi timers, socket-layer loss, and
    fail-stop crash injection; per-node JSONL spools merge into one
    ``repro trace``-compatible file) and ``diff`` (the
    ``differential:realnet`` harness -- seeded specs run under sim and
    runtime must agree on oracle verdicts and latency anchors).
``serve``
    Live dashboard over a trace spool: JSON endpoints byte-identical to
    the ``repro trace`` CLI, an SSE tail of a growing spool at
    ``/events``, campaign status at ``/api/campaigns``, and Prometheus
    exposition at ``/metrics`` (see :mod:`repro.serve`).

Exit codes: 0 success, 1 failure/usage, 2 failed campaign chunks,
3 partial campaign (``--stop-after`` checkpoint), 130 interrupted
(SIGINT with state flushed -- rerun or ``campaign resume`` continues).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError


def _cmd_figures(_args: argparse.Namespace) -> int:
    from repro.experiments.figures import (
        figure5_false_detection,
        figure6_false_detection_on_ch,
        figure7_incompleteness,
        render_figure,
    )

    for series, title in (
        (figure5_false_detection(), "Figure 5: P^(False detection)"),
        (figure6_false_detection_on_ch(), "Figure 6: P(False detection on CH)"),
        (figure7_incompleteness(), "Figure 7: P^(Incompleteness)"),
    ):
        print(render_figure(series, title))
        print()
    return 0


def _cmd_claims(_args: argparse.Namespace) -> int:
    from repro.experiments.figures import check_paper_claims
    from repro.experiments.reporting import render_claims

    results = check_paper_claims()
    print(render_claims(results))
    return 0 if all(ok for _claim, ok in results) else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis.false_detection import p_false_detection
    from repro.analysis.incompleteness import p_incompleteness
    from repro.analysis.montecarlo import mc_false_detection, mc_incompleteness
    from repro.experiments.scenarios import (
        single_cluster_validation,
        validation_summary,
    )

    n, p = args.n, args.p
    rng = np.random.default_rng(args.seed)
    print(f"validating N={n}, p={p}")
    mc_fd = mc_false_detection(n, p, trials=args.trials, rng=rng)
    mc_inc = mc_incompleteness(n, p, trials=args.trials, rng=rng)
    print(f"  P^(FD):  closed={p_false_detection(n, p):.4e}  "
          f"mc={mc_fd.estimate:.4e}  in-CI={mc_fd.contains(p_false_detection(n, p))}")
    print(f"  P^(Inc): closed={p_incompleteness(n, p):.4e}  "
          f"mc={mc_inc.estimate:.4e}  in-CI={mc_inc.contains(p_incompleteness(n, p))}")
    if args.protocol:
        result = single_cluster_validation(
            n=n, p=p, executions=args.executions, seed=args.seed
        )
        summary = validation_summary(result)
        print(f"  protocol: inc measured={summary['inc_rate_measured']:.4f} "
              f"ci=({summary['inc_ci_low']:.4f}, {summary['inc_ci_high']:.4f})")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.args import config_from_args
    from repro.experiments.runner import run_scenario

    config = config_from_args(args)
    tracer = None
    profiler = None
    if args.trace_out:
        from repro.obs.spool import SpoolingTracer

        tracer = SpoolingTracer(Path(args.trace_out))
    if args.profile:
        from repro.obs.profiler import PhaseProfiler

        profiler = PhaseProfiler()
    try:
        result = run_scenario(config, tracer=tracer, profiler=profiler)
    finally:
        if tracer is not None:
            tracer.close()
    for key, value in result.summary().items():
        print(f"  {key:26s} {value:.6g}")
    energy = result.energy
    if energy is not None:
        for key, value in energy.totals().items():
            print(f"  energy.{key:19s} {value:.6g}")
        print(f"  energy.{'spread':19s} {energy.spread():.6g}")
    if profiler is not None and profiler.total_seconds > 0:
        print("  profiled phases:")
        for phase, seconds, share, calls in profiler.shares():
            print(f"    {phase:20s} {seconds:9.4f}s {100 * share:5.1f}%  "
                  f"{calls} call(s)")
    if tracer is not None:
        print(f"  trace spooled to {args.trace_out} "
              f"({tracer.spooled} record(s); analyze with 'repro trace')")
    return 0 if result.properties.is_accurate else 1


def _cmd_reachability(args: argparse.Namespace) -> int:
    from repro.analysis.reachability import dch_reachability_failure
    from repro.util.tables import render_table

    ns = (25, 50, 75, 100)
    rows = []
    for d in (20.0, 40.0, 60.0, 80.0, 95.0):
        rows.append(
            [d, *(dch_reachability_failure(n, args.p, dch_distance=d)
                  for n in ns)]
        )
    print(render_table(
        ["dch_distance", *(f"N={n}" for n in ns)], rows,
        title=f"P(DCH unaware of out-of-range member), p={args.p}",
    ))
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.audit.soak import SoakOptions, run_soak

    options = SoakOptions(
        iterations=args.iterations,
        seed=args.seed,
        out_dir=Path(args.out) if args.out else None,
        max_shrink_evals=args.shrink_evals,
        max_violations=args.max_violations,
        store_root=Path(args.store) if args.store else None,
    )
    result = run_soak(options, log=print)
    cached = f", {result.cache_hits} cached" if result.cache_hits else ""
    print(
        f"soak: {result.iterations} iteration(s) in {result.elapsed:.1f}s, "
        f"{len(result.failures)} violation(s){cached}"
    )
    for failure in result.failures:
        print(f"--- shrunk repro (seed {failure.shrunk.seed}) ---")
        print(failure.snippet)
    if result.interrupted:
        # Per-iteration verdicts already hit the store (atomic writes),
        # so a rerun resumes from the cache; signal the interruption.
        print("soak: interrupted -- partial progress is cached; rerun to resume")
        return 130
    return 0 if result.clean else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cluster-based FDS (DSN 2004) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="print Figures 5-7 as tables")
    sub.add_parser("claims", help="check the paper's evaluation claims")

    validate = sub.add_parser("validate", help="cross-validate the measures")
    validate.add_argument("--n", type=int, default=50)
    validate.add_argument("--p", type=float, default=0.5)
    validate.add_argument("--trials", type=int, default=100_000)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--protocol", action="store_true",
                          help="also run the real protocol (slow)")
    validate.add_argument("--executions", type=int, default=150)

    from repro.experiments.args import add_scenario_arguments

    scenario = sub.add_parser("scenario", help="run an end-to-end scenario")
    add_scenario_arguments(scenario, dict(
        cluster_count=4, members_per_cluster=30, loss_probability=0.1,
        crash_count=2, executions=5, seed=0, formation="oracle",
        formation_iterations=3, formation_backoff_fraction=0.4,
        loss_kind="bernoulli", track_energy=False, engine="event",
    ))
    scenario.add_argument("--trace-out", type=str, default="",
                          help="spool the full trace to this .jsonl[.gz] path")
    scenario.add_argument("--profile", action="store_true",
                          help="attach the phase profiler; per-phase totals "
                               "are printed and spooled as profile.phase")

    reach = sub.add_parser("reachability", help="DCH reachability study")
    reach.add_argument("--p", type=float, default=0.1)

    soak = sub.add_parser(
        "soak", help="differential conformance soak (seeded, shrinking)"
    )
    soak.add_argument("--iterations", type=int, default=10)
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--out", type=str, default="",
                      help="directory for shrunk repro .py files")
    soak.add_argument("--shrink-evals", type=int, default=24,
                      help="re-check budget while shrinking a violation")
    soak.add_argument("--max-violations", type=int, default=1,
                      help="stop after this many violations (0 = keep going)")
    soak.add_argument("--store", type=str, default="",
                      help="result-store root to cache per-spec verdicts in")

    from repro.campaign.cli import add_campaign_parser, cmd_campaign
    from repro.obs.cli import add_trace_parser, cmd_trace
    from repro.rt.cli import add_rt_parser, cmd_rt
    from repro.serve.cli import add_serve_parser, cmd_serve

    add_campaign_parser(sub)
    add_trace_parser(sub)
    add_rt_parser(sub)
    add_serve_parser(sub)

    args = parser.parse_args(argv)

    handlers = {
        "figures": _cmd_figures,
        "claims": _cmd_claims,
        "validate": _cmd_validate,
        "scenario": _cmd_scenario,
        "reachability": _cmd_reachability,
        "soak": _cmd_soak,
        "campaign": cmd_campaign,
        "trace": cmd_trace,
        "rt": cmd_rt,
        "serve": cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        # Invalid input (a config the library refuses) is a usage error,
        # not a crash: one line, no traceback.
        print(f"error: {exc}")
        return 1
    except KeyboardInterrupt:
        # Durable state (journals, store objects) is flushed as it is
        # produced; acknowledge the signal with the conventional code.
        print("interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
