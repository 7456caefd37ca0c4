"""Randomized differential soak: sample specs, check, shrink, report.

The soak loop is the repo's standing conformance gate: each iteration
draws a seeded :class:`~repro.experiments.runner.ScenarioConfig` from the
soak distribution and puts it through every paired configuration
(digest ablation, event vs array engine, distributed formation) and
oracle in :func:`~repro.audit.differential.check_spec`.  A violation is
shrunk to a minimal spec and rendered as a ready-to-paste pytest case, so
a CI soak failure arrives as a regression test, not a stack trace.

Bounded runs (``repro soak --iterations N``) gate CI; the scheduled
long-soak workflow runs the same loop for many more iterations and
uploads any repro files as artifacts.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.audit.differential import (
    Violation,
    check_spec,
    random_spec,
    repro_snippet,
    shrink_spec,
)
from repro.campaign.store import (
    ResultStore,
    canonical_config_dict,
    config_from_canonical,
    content_key,
)
from repro.experiments.runner import ScenarioConfig


@dataclass(frozen=True)
class SoakOptions:
    """Knobs for one soak run."""

    iterations: int = 10
    seed: int = 0
    #: Where to write ``soak_repro_*.py`` files for violations (optional).
    out_dir: Optional[Path] = None
    #: Re-check budget for the shrinker, per violation.
    max_shrink_evals: int = 24
    #: Stop after this many violating specs (0 = never stop early).
    max_violations: int = 1
    #: Root of a :class:`repro.campaign.store.ResultStore` to cache
    #: per-spec verdicts in.  A rerun (or the scheduled soak workflow
    #: reusing a cached store) replays already-checked specs instead of
    #: re-simulating them; keys embed the code fingerprint, so any
    #: library change invalidates the cached verdicts wholesale.
    store_root: Optional[Path] = None


@dataclass(frozen=True)
class SoakViolation:
    """One failing iteration, shrunk and rendered."""

    spec: ScenarioConfig
    shrunk: ScenarioConfig
    violations: Tuple[Violation, ...]
    snippet: str
    repro_path: Optional[Path] = None


@dataclass
class SoakResult:
    """Outcome of a soak run."""

    iterations: int = 0
    elapsed: float = 0.0
    failures: List[SoakViolation] = field(default_factory=list)
    #: Iterations served from the result store instead of re-simulated.
    cache_hits: int = 0
    #: Whether the loop was cut short by SIGINT (partial results stand).
    interrupted: bool = False

    @property
    def clean(self) -> bool:
        return not self.failures


def soak_iteration(
    spec: ScenarioConfig,
    max_shrink_evals: int = 24,
) -> Optional[SoakViolation]:
    """Check one spec; on violation, shrink it and render the repro."""
    violations = check_spec(spec)
    if not violations:
        return None
    shrunk = shrink_spec(spec, max_evals=max_shrink_evals)
    final = check_spec(shrunk)
    if not final:
        # Shrinking is best-effort: if a reduction pass landed on a spec
        # that no longer fails (flaky boundary), fall back to the original.
        shrunk, final = spec, violations
    return SoakViolation(
        spec=spec,
        shrunk=shrunk,
        violations=tuple(final),
        snippet=repro_snippet(shrunk, final),
    )


def _spec_cache_key(spec: ScenarioConfig, options: SoakOptions) -> str:
    return content_key(
        "soak_iteration",
        {
            "spec": canonical_config_dict(spec),
            "max_shrink_evals": options.max_shrink_evals,
        },
    )


def _cached_verdict(payload: dict, spec: ScenarioConfig) -> Optional[SoakViolation]:
    if not payload["violations"]:
        return None
    return SoakViolation(
        spec=spec,
        shrunk=config_from_canonical(payload["shrunk"]),
        violations=tuple(
            Violation(kind=v["kind"], description=v["description"])
            for v in payload["violations"]
        ),
        snippet=payload["snippet"],
    )


def _verdict_payload(failure: Optional[SoakViolation]) -> dict:
    if failure is None:
        return {"violations": []}
    return {
        "violations": [asdict(v) for v in failure.violations],
        "shrunk": canonical_config_dict(failure.shrunk),
        "snippet": failure.snippet,
    }


def run_soak(
    options: SoakOptions,
    log: Optional[callable] = None,
) -> SoakResult:
    """Run the soak loop; returns every (shrunk) violation found.

    ``log`` receives one human-readable line per iteration when given
    (the CLI passes ``print``; tests pass nothing).  With a
    ``store_root``, each spec's verdict is cached content-addressed --
    a rerun over the same seed range replays instead of re-simulating --
    and a ``KeyboardInterrupt`` ends the loop cleanly with every
    finished iteration already persisted.
    """
    store = None
    if options.store_root is not None:
        store = ResultStore(options.store_root)
    rng = np.random.default_rng(options.seed)
    result = SoakResult()
    started = time.monotonic()
    for index in range(options.iterations):
        spec = random_spec(rng)
        key = _spec_cache_key(spec, options) if store is not None else None
        cached = store.get(key) if store is not None else None
        if cached is not None:
            failure = _cached_verdict(cached, spec)
            result.cache_hits += 1
        else:
            try:
                failure = soak_iteration(
                    spec, max_shrink_evals=options.max_shrink_evals
                )
            except KeyboardInterrupt:
                # Finished iterations are already cached (store writes
                # are atomic; un-synced, so a verdict lost to a power cut
                # is recomputed) and repro files land per-iteration; stop
                # the loop and report partial progress instead of dying.
                result.interrupted = True
                break
            if store is not None:
                store.put(key, _verdict_payload(failure), kind="soak_iteration")
        result.iterations = index + 1
        if log is not None:
            verdict = "VIOLATION" if failure else "ok"
            if cached is not None:
                verdict += " (cached)"
            log(
                f"[soak {index + 1}/{options.iterations}] seed={spec.seed} "
                f"clusters={spec.cluster_count} loss={spec.loss_kind} "
                f"crashes={spec.crash_count}: {verdict}"
            )
        if failure is not None:
            if options.out_dir is not None:
                options.out_dir.mkdir(parents=True, exist_ok=True)
                path = options.out_dir / f"soak_repro_{spec.seed}.py"
                path.write_text(failure.snippet, encoding="utf-8")
                failure = replace(failure, repro_path=path)
                if log is not None:
                    log(f"  repro written to {path}")
            result.failures.append(failure)
            if (
                options.max_violations
                and len(result.failures) >= options.max_violations
            ):
                break
    result.elapsed = time.monotonic() - started
    return result
