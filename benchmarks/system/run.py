#!/usr/bin/env python3
"""Whole-system benchmark: seven workloads, end-to-end and per-layer.

    python3 benchmarks/system/run.py --workload event_ref --seed 1 \\
        --seconds 10 --trace 0          # one run; last stdout line is JSON
    python3 benchmarks/system/run.py --seeds 1-10
                                        # every workload, untraced + traced,
                                        # one result set under --out
    python3 benchmarks/system/run.py compare A.json B.json

``BENCHMARK.json`` at the repository root names the workloads and the
metrics (unit, direction, regression bound); this file reads it rather
than repeating it.  A run starts each measurement in a fresh child
interpreter (see ``harness.py``): ``--trace 0`` measures the end-to-end
metrics over ``CHILDREN`` children that split ``--seconds`` between
them, ``--trace 1`` measures the per-layer metrics in one child.  The
process exits non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fresh interpreters per untraced run: one ``setup_s`` and one
#: ``peak_rss_mb`` sample each (the run reports their medians).
CHILDREN = 3
#: All children of one run must finish within this many seconds.
DEADLINE_S = 150.0
#: An op slower than this multiple of the run's median counts as failed.
TIMEOUT_FACTOR = 10.0


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def spawn_child(
    workload: str, seed: int, budget: float, trace: int, out: Path,
    tag: str, deadline: float,
) -> Optional[Dict[str, Any]]:
    """One measurement in a fresh interpreter; ``None`` if it died."""
    scratch = out / "tmp" / f"{workload}-{os.getpid()}-{tag}"
    result = scratch.with_suffix(".json")
    result.parent.mkdir(parents=True, exist_ok=True)
    # Two pins that only steady the timings.  A fixed hash seed keeps
    # set/dict iteration, and so allocation patterns, the same from child
    # to child.  numpy otherwise madvises its large buffers for huge
    # pages, whose faults stall on compaction on a small VM: the same
    # array op then takes 0.9 s or 3.4 s at random (see README).
    env = dict(os.environ, PYTHONHASHSEED="0", NUMPY_MADVISE_HUGEPAGE="0")
    command = [
        sys.executable, str(HERE / "run.py"), "_child",
        "--workload", workload, "--seed", str(seed),
        "--budget", repr(budget), "--trace", str(trace),
        "--workdir", str(scratch), "--result", str(result),
        "--spawned", repr(time.perf_counter()),
    ]
    # Own session: a child that overruns is killed with its pool workers.
    process = subprocess.Popen(
        command, stdout=sys.stderr, env=env, start_new_session=True
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        code = -signal.SIGKILL
    try:
        if code != 0:
            print(f"{workload}: child {tag} exited with {code}", file=sys.stderr)
            return None
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink(missing_ok=True)


def _value(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def measure(
    spec: Dict[str, Any], workload: str, seed: int, seconds: float,
    trace: int, out: Path,
) -> Dict[str, Any]:
    """One run of one workload, reduced to a result record."""
    deadline = time.monotonic() + DEADLINE_S
    children = 1 if trace else CHILDREN
    documents = [
        spawn_child(
            workload, seed, seconds / children, trace, out, str(index),
            deadline,
        )
        for index in range(children)
    ]
    alive = [doc for doc in documents if doc is not None]
    ops = [op for doc in alive for op in doc["ops"]]
    checked = [doc["warmup"] for doc in alive] + ops
    walls = [op["wall_s"] for op in ops if op["wall_s"] is not None]
    # Warm-ups are checked but not timed, so they cannot time out.
    limit = TIMEOUT_FACTOR * statistics.median(walls) if walls else None
    for op in ops:
        if limit is not None and (op["wall_s"] or 0.0) > limit:
            op["failures"].append(f"timed out: {op['wall_s']:.3f}s")
    reference = next((op["digest"] for op in checked if op["digest"]), None)
    scored = [op for op in ops if op["completeness"] is not None]

    failures: List[str] = []
    failed = children - len(alive)
    for op in checked:
        problems = list(op["failures"])
        if op["digest"] != reference:
            problems.append(f"digest {op['digest']} != {reference}")
        if problems:
            failed += 1
            failures.extend(problems)

    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": failed == 0 and bool(scored),
        "attempted": len(checked) + children - len(alive),
        "failed": failed,
        "digest": reference,
        "failures": failures[:10],
        "ops": len(ops),
        "metrics": {},
    }
    if not scored:
        return record
    record["numpy"] = alive[0]["numpy"]

    if trace:
        layers = alive[0]["layers"]
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in sorted(set(layers) - set(declared)):
            print(f"{workload}: undeclared layer metric {name}", file=sys.stderr)
        # A layer the workload does not touch reports no metric at all;
        # an unresolved wrap target reports null.
        record["metrics"] = {
            name: _value(layers[name], unit)
            for name, unit in declared.items() if name in layers
        }
        spans_path = out / f"spans-{workload}-s{seed}.json"
        spans_path.write_text(
            json.dumps({"workload": workload, "seed": seed,
                        "traced_ops": alive[0]["spans"]}, indent=1) + "\n",
            encoding="utf-8",
        )
        record["spans_file"] = spans_path.name
        return record

    latencies = [latency for op in scored for latency in op["latencies"]]
    samples = {
        "setup_s": [doc["setup_s"] for doc in alive],
        "op_wall_s": walls,
        "peak_rss_mb": [doc["peak_rss_mb"] for doc in alive],
    }
    values = {name: statistics.median(s) for name, s in samples.items()}
    if not latencies:
        record["correct"] = False
        record["failures"].append("no crash was detected in any timed op")
    values["latency_over_anchor"] = (
        statistics.median(latencies) / scored[0]["anchor"] if latencies else 0.0
    )
    # The median, like the latency: one op of rt_field hit by a VM stall
    # must not move the run.  (All ops of a sim workload are identical.)
    values["completeness"] = statistics.median(
        op["completeness"] for op in scored
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record["metrics"] = {
        name: _value(values[name], unit) for name, unit in units.items()
    }
    record["samples"] = samples
    return record


def print_run(record: Dict[str, Any]) -> None:
    print(
        f"{record['workload']}  seed={record['seed']} trace={record['trace']}  "
        f"ops={record['ops']} attempted={record['attempted']} "
        f"failed={record['failed']}  digest={(record['digest'] or '-')[:16]}"
    )
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = "unresolved" if value is None else f"{value:.6g}"
        count = len(record.get("samples", {}).get(name, ()))
        note = f"  (median of {count})" if count else ""
        print(f"  {name:34s} {shown:>14s} {metric['unit']}{note}")
    for failure in dict.fromkeys(
        text.strip().splitlines()[-1] for text in record["failures"]
    ):
        print(f"  FAILED: {failure}")


def driver_line(spec: Dict[str, Any], record: Dict[str, Any]) -> str:
    """The one-object result line of the driver contract.  Per-layer
    metrics a workload does not exercise (or that no longer resolve)
    read 0: that layer did no measured work."""
    section = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for declared in section:
        value = record["metrics"].get(declared["name"], {}).get("value")
        metrics[declared["name"]] = _value(
            0.0 if value is None else value, declared["unit"]
        )
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def stamp(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Where these numbers come from: commit and machine fingerprint."""
    def git(*command: str) -> Optional[str]:
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), *command],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None  # the driver's checkout is not a git repository

    commit = git("rev-parse", "HEAD")
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        # True when measured on top of ``commit`` with uncommitted edits.
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in records if "numpy" in r), None),
    }


def parse_seeds(text: str) -> List[int]:
    """``"3"``, ``"1,2,5"`` or ``"1-10"``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, dash, high = part.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if dash else [int(low)])
    return seeds


def run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    selected = args.workload or names
    unknown = sorted(set(selected) - set(names))
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {names}", file=sys.stderr)
        return 2
    seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
    traces = [args.trace] if args.trace is not None else [0, 1]
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)

    records: List[Dict[str, Any]] = []
    line = ""
    for workload in selected:
        for seed in seeds:
            for trace in traces:
                record = measure(spec, workload, seed, args.seconds, trace, out)
                records.append(record)
                print_run(record)
                if record["metrics"]:
                    line = driver_line(spec, record)
    if len(records) > 1:
        path = out / f"results-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}.json"
        path.write_text(
            json.dumps({"stamp": stamp(records), "runs": records}, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"result set: {path}", file=sys.stderr)
    if line:
        print(line)
    return 0 if line and all(record["correct"] for record in records) else 1


# ----------------------------------------------------------------------
# Comparing two result sets
# ----------------------------------------------------------------------
def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (high - low) / abs(median) if median else 0.0


def _runs_by_workload(path: Path, trace: int) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for record in json.loads(path.read_text(encoding="utf-8"))["runs"]:
        if record["trace"] == trace and record["metrics"]:
            grouped.setdefault(record["workload"], []).append(record)
    return grouped


def _series(records: Iterable[Dict[str, Any]], metric: str) -> List[float]:
    """The metric across a result set's runs; for a single run, its
    within-run samples where it has them."""
    records = list(records)
    if len(records) == 1 and metric in records[0].get("samples", {}):
        return list(records[0]["samples"][metric])
    return [r["metrics"][metric]["value"] for r in records]


def _compare_counts(
    spec: Dict[str, Any], workload: str,
    traced_a: Dict[str, List[Dict[str, Any]]],
    traced_b: Dict[str, List[Dict[str, Any]]],
) -> None:
    """Counts made by the program compare two versions exactly (they
    repeat on the simulated workloads; ``rt_field``'s depend on timing)."""
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    by_seed = {r["seed"]: r["metrics"] for r in traced_a.get(workload, [])}
    for record in traced_b.get(workload, []):
        before = by_seed.get(record["seed"])
        if before is None:
            continue
        shared = [n for n in counts if n in before and n in record["metrics"]]
        moved = [
            f"{n} {before[n]['value']} -> {record['metrics'][n]['value']}"
            for n in shared
            if before[n]["value"] != record["metrics"][n]["value"]
        ]
        print(f"{workload:16s} {'counts':20s} seed {record['seed']}: "
              + ("; ".join(moved) if moved else f"{len(shared)} identical"))


def compare(spec: Dict[str, Any], path_a: Path, path_b: Path) -> int:
    """One row per workload x end-to-end metric: B against A, judged by
    the metric's bound and direction.  ``unresolved`` when the run-to-run
    spread exceeds the bound and B does not beat A on every run."""
    runs_a, runs_b = _runs_by_workload(path_a, 0), _runs_by_workload(path_b, 0)
    traced_a, traced_b = _runs_by_workload(path_a, 1), _runs_by_workload(path_b, 1)
    print(f"{'workload':16s} {'metric':20s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s} {'spread':>8s} {'bound':>6s}  verdict")
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        _compare_counts(spec, workload, traced_a, traced_b)
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = _series(runs_a[workload], name), _series(runs_b[workload], name)
            mid_a, mid_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (mid_b - mid_a) / abs(mid_a)
            noise = max(spread(a), spread(b))
            if noise > bound:
                clean_win = (
                    max(b) < min(a) if sign > 0 else min(b) > max(a)
                )
                verdict = "ok" if clean_win else "unresolved"
            else:
                verdict = "worse" if change > bound else "ok"
            worse += verdict == "worse"
            print(f"{workload:16s} {name:20s} {mid_a:12.6g} {mid_b:12.6g} "
                  f"{change:+8.1%} {noise:8.1%} {bound:6.0%}  {verdict}")
        by_seed = {r["seed"]: r["digest"] for r in runs_a[workload]}
        shared = [r for r in runs_b[workload] if r["seed"] in by_seed]
        if shared:
            same = all(r["digest"] == by_seed[r["seed"]] for r in shared)
            print(f"{workload:16s} {'digest':20s} "
                  f"{'identical' if same else 'DIFFERENT'} over {len(shared)} seed(s)")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Sequence[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if argv[:1] == ["_child"]:
        sys.path.insert(0, str(ROOT / "src"))
        import harness

        return harness.child_main(list(argv[1:]))
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(spec, args.a, args.b)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable); default all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="several runs, e.g. 1-10 or 1,2,3")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 end-to-end only, 1 per-layer only; default both")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="result sets, span files and scratch space")
    return run(parser.parse_args(argv), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
