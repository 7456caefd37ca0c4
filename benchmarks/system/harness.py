"""Child-process side of the benchmark: one workload, set up once.

``run.py`` starts this in a fresh interpreter per measurement so that
``setup_s`` (interpreter start, imports, input generation, one untimed
warm-up op) and ``peak_rss_mb`` belong to the workload alone.  The child
times ops until its share of ``--seconds`` is spent, checks every op's
output, and writes one JSON document for the parent to aggregate.  In
trace mode it then repeats the op under a :class:`spans.SpanRecorder`
and reduces the spans to per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import checks
from spans import SpanRecorder

#: Every phase runs at least this many ops, whatever the budget.
MIN_OPS = 2
#: Share of a traced run's budget spent on untraced ops (the base of
#: ``trace.overhead_ratio``); the rest goes to traced ops.
UNTRACED_SHARE = 0.4


def run_op(workload: Any, trace: bool = False, op_id: int = 0) -> Dict[str, Any]:
    """Run and score one op; never raises (a failed op is a result)."""
    record: Dict[str, Any] = {
        "wall_s": None, "digest": None, "failures": [], "latencies": [],
        "completeness": None,
    }
    gc.collect()
    rec = SpanRecorder(op_id) if trace else None
    started = perf_counter()
    try:
        if rec is None:
            raw = workload.op(None)
        else:
            with rec.installed(workload.targets), rec.span("op", "bench"):
                raw = workload.op(rec)
        record["wall_s"] = perf_counter() - started
        outcome = workload.score(raw)
    except Exception:  # boundary: an op that raises is a failed op
        record["failures"] = [traceback.format_exc(limit=8)]
        return record
    record.update(
        digest=checks.digest(outcome.summary),
        failures=outcome.failures,
        latencies=outcome.latencies,
        anchor=outcome.anchor,
        completeness=outcome.completeness,
    )
    if rec is not None:
        root = rec.spans[0]
        record["coverage"] = rec.coverage(root)
        record["layers"] = workload.layers(rec, outcome)
        record["unresolved"] = list(rec.unresolved)
        record["spans"] = rec.dump(epoch=root.start)
    record["outcome"] = outcome
    return record


def run_ops(
    workload: Any, budget: float, trace: bool = False, first_id: int = 0
) -> List[Dict[str, Any]]:
    """Ops back to back until starting another would overrun ``budget``
    seconds (scoring and the collector pause between ops included)."""
    records: List[Dict[str, Any]] = []
    started = perf_counter()
    while True:
        records.append(run_op(workload, trace, first_id + len(records)))
        elapsed = perf_counter() - started
        per_op = elapsed / len(records)
        # An op that raised has failed the run; do not spin on it.
        raised = records[-1]["wall_s"] is None
        if len(records) >= MIN_OPS and (raised or elapsed + per_op > budget):
            return records


def _median(values: List[Optional[float]]) -> Optional[float]:
    known = [v for v in values if v is not None]
    return statistics.median(known) if known else None


def reduce_layers(
    traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]
) -> Dict[str, Optional[float]]:
    """Per-layer metrics of a run: the median over its traced ops."""
    scored = [r for r in traced if "layers" in r]
    names = sorted({name for r in scored for name in r["layers"]})
    layers = {
        name: _median([r["layers"].get(name) for r in scored])
        for name in names
    }
    base = _median([r["wall_s"] for r in untraced])
    traced_wall = _median([r["wall_s"] for r in scored])
    layers["trace.overhead_ratio"] = (
        traced_wall / base if base and traced_wall else None
    )
    layers["trace.coverage"] = _median([r["coverage"] for r in scored])
    layers["trace.unresolved"] = len(
        {target for r in scored for target in r["unresolved"]}
    )
    return layers


def child_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py _child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="parent's perf_counter() just before the spawn")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy

    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        warmup = run_op(workload)
        setup_s = perf_counter() - args.spawned
        layers = None
        spans = None
        if args.trace:
            untraced = run_ops(workload, UNTRACED_SHARE * args.budget)
            traced = run_ops(
                workload, (1.0 - UNTRACED_SHARE) * args.budget,
                trace=True, first_id=1 + len(untraced),
            )
            layers = reduce_layers(traced, untraced)
            probe = getattr(workload, "probe", None)
            outcomes = [r["outcome"] for r in untraced if "outcome" in r]
            if probe is not None and outcomes:
                layers.update(probe(outcomes, args.workdir))
            spans = [r.pop("spans") for r in traced if "spans" in r]
            ops = untraced + traced
        else:
            ops = run_ops(workload, args.budget)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for record in [warmup] + ops:
        record.pop("outcome", None)
        record.pop("layers", None)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": max(usage_self, usage_children) / 1024.0,
        "warmup": warmup,
        "ops": ops,
        "layers": layers,
        "spans": spans,
        "numpy": numpy.__version__,
    }
    args.result.write_text(json.dumps(document) + "\n", encoding="utf-8")
    return 0
