"""Checkpointed campaign execution over the content-addressed store.

The runner turns a :class:`~repro.campaign.plans.CampaignPlan` into a
durable run:

1. the campaign **manifest** is persisted once (identity, params, chunk
   keys) so ``resume``/``status`` can reconstruct the plan later;
2. every finished chunk is appended to a **journal** (JSONL write-ahead
   log, flushed and fsynced per record) *after* its result object landed
   in the store -- so a kill at any instant loses at most the chunk in
   flight, never a recorded one;
3. on entry, the journal and the store are consulted first: chunks whose
   results already exist are replayed as **cache hits**, executing zero
   simulations;
4. the merged result is folded from the per-chunk payloads in chunk
   order, so an interrupted-and-resumed campaign is bit-identical to an
   uninterrupted one (and to the one-shot twin the plan mirrors).

This module holds the package's only process pool: the one-shot calls
(``repeat_scenario``, ``mc_chunked``, ``sweep_measure``) are serial, and
running their campaign twin with ``CampaignOptions(workers=N)`` is how
an experiment uses more than one core.  The pool never changes results
-- chunks are pure functions of their payload and merge in chunk order.

Stuck workers are handled by a per-chunk timeout: a chunk whose pool
future does not complete in time is retried **in-process** (chunks are
pure functions of their payload, so the retry result is the same one the
stuck worker would eventually have produced).  A chunk that keeps
failing marks the campaign ``failed`` -- partial results stay cached, so
fixing the cause and re-running only pays for the broken chunk.

``KeyboardInterrupt`` is part of the contract, not an error: the journal
and telemetry are flushed, an ``interrupted`` outcome is returned, and
the next invocation resumes where this one stopped.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.campaign.plans import CampaignPlan, ChunkTask, execute_chunk
from repro.campaign.store import ResultStore
from repro.campaign.telemetry import Progress, Telemetry, read_events
from repro.errors import ExperimentError

#: Exit-code vocabulary shared with the CLI.
STATUS_COMPLETE = "complete"
STATUS_PARTIAL = "partial"
STATUS_FAILED = "failed"
STATUS_INTERRUPTED = "interrupted"


@dataclass(frozen=True)
class CampaignOptions:
    """Execution knobs for one runner invocation.

    Out-of-range values raise :class:`ExperimentError` at construction,
    before a runner can create anything under the store.
    """

    #: Pool width; ``None`` means all CPUs, 1 runs the chunks in-process.
    workers: Optional[int] = 1
    #: Wall-clock budget per chunk before a pool worker is declared stuck
    #: and the chunk is retried in-process (``None`` disables the policy;
    #: it only applies when ``workers > 1`` -- a serial run cannot watch
    #: itself).
    chunk_timeout: Optional[float] = None
    #: In-process retry attempts after a timeout or a crashed worker.
    max_retries: int = 1
    #: Checkpoint-and-return after this many chunk completions in *this*
    #: invocation (deterministic interruption for tests and CI smoke).
    stop_after: Optional[int] = None
    #: Mirror telemetry events to this path besides the campaign dir.
    telemetry_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_timeout is not None and not self.chunk_timeout > 0:
            raise ExperimentError(
                f"chunk_timeout must be > 0, got {self.chunk_timeout}"
            )
        if self.max_retries < 0:
            raise ExperimentError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.stop_after is not None and self.stop_after < 0:
            raise ExperimentError(
                f"stop_after must be >= 0, got {self.stop_after}"
            )

    @property
    def pool_width(self) -> int:
        """``workers`` with ``None`` resolved to the CPU count."""
        if self.workers is None:
            return max(1, os.cpu_count() or 1)
        return self.workers


@dataclass
class CampaignOutcome:
    """What one runner invocation achieved."""

    campaign_id: str
    status: str
    chunks_total: int
    chunks_done: int
    cache_hits: int
    executed: int
    failed_chunks: Tuple[int, ...] = ()
    #: Merged result (RepeatedResult / McEstimate) when status=complete.
    merged: Any = None
    result_payloads: Tuple[Dict[str, Any], ...] = ()

    @property
    def complete(self) -> bool:
        return self.status == STATUS_COMPLETE

    def exit_code(self) -> int:
        """CLI mapping: 0 complete, 2 failed, 3 partial, 130 interrupted."""
        return {
            STATUS_COMPLETE: 0,
            STATUS_FAILED: 2,
            STATUS_PARTIAL: 3,
            STATUS_INTERRUPTED: 130,
        }[self.status]


class _Journal:
    """Append-only JSONL write-ahead log of finished chunks."""

    def __init__(self, path: Path) -> None:
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = path.open("a", encoding="utf-8")

    def record(self, **fields: Any) -> None:
        self._handle.write(json.dumps(fields) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        try:
            self._handle.flush()
        finally:
            self._handle.close()


def _journal_done_indexes(path: Path) -> Set[int]:
    return {
        int(event["index"])
        for event in read_events(path)
        if event.get("event") == "chunk_done"
    }


def _write_manifest(store: ResultStore, plan: CampaignPlan) -> Path:
    directory = store.campaign_dir(plan.campaign_id)
    path = directory / "manifest.json"
    if not path.is_file():
        directory.mkdir(parents=True, exist_ok=True)
        from repro.campaign.store import _atomic_write_text

        _atomic_write_text(path, json.dumps(plan.manifest(), indent=2) + "\n")
    return path


def run_campaign(
    plan: CampaignPlan,
    store: ResultStore,
    options: CampaignOptions = CampaignOptions(),
) -> CampaignOutcome:
    """Execute ``plan`` durably; resume is implicit (same plan, same dirs).

    Invoking this again with the same plan continues from the journal:
    chunks recorded there (and present in the store) are not re-run, and
    chunks cached from *any* earlier campaign with identical content
    keys are served as hits.
    """
    directory = store.campaign_dir(plan.campaign_id)
    _write_manifest(store, plan)
    journal_path = directory / "journal.jsonl"
    # The store is the authority on what can be skipped: every chunk goes
    # through the loop and journaled-but-cached chunks replay as explicit
    # cache hits (one telemetry event each), executing zero simulations.
    # The journal's role is crash recovery and progress accounting.
    already_done = {
        i for i in _journal_done_indexes(journal_path)
        if i < len(plan.chunks) and store.contains(plan.chunks[i].key)
    }
    pending = list(plan.chunks)
    journal = _Journal(journal_path)
    telemetry = Telemetry(
        directory / "telemetry.jsonl", mirror=options.telemetry_path
    )
    progress = Progress(len(plan.chunks))
    failed: List[int] = []
    interrupted = False
    stopped = False
    telemetry.emit(
        "campaign_start",
        campaign=plan.campaign_id,
        kind=plan.kind,
        chunks_total=len(plan.chunks),
        chunks_already_done=len(already_done),
        resumed=bool(already_done),
        workers=options.pool_width,
    )
    try:
        runner = _run_pooled if options.pool_width > 1 else _run_serial
        stopped = runner(
            plan, pending, store, journal, telemetry, progress, options, failed
        )
    except KeyboardInterrupt:
        # Flush-and-checkpoint is the whole point: the journal already
        # holds every finished chunk; nothing else needs saving.
        interrupted = True
    finally:
        journal.close()

    chunks_done = progress.cache_hits + progress.executed
    if failed:
        status = STATUS_FAILED
    elif interrupted:
        status = STATUS_INTERRUPTED
    elif stopped or chunks_done < len(plan.chunks):
        status = STATUS_PARTIAL
    else:
        status = STATUS_COMPLETE

    merged = None
    payloads: Tuple[Dict[str, Any], ...] = ()
    if status == STATUS_COMPLETE:
        results = []
        for chunk in plan.chunks:
            payload = store.get(chunk.key)
            if payload is None:
                raise ExperimentError(
                    f"store lost chunk {chunk.index} ({chunk.key[:12]}...) "
                    "between execution and merge"
                )
            results.append(payload)
        payloads = tuple(results)
        merged = plan.merge(results)
        from repro.campaign.store import _atomic_write_text

        _atomic_write_text(
            directory / "result.json",
            json.dumps(
                {"campaign": plan.campaign_id, "chunks": results}, indent=2
            ) + "\n",
        )
    telemetry.emit(
        "campaign_end",
        campaign=plan.campaign_id,
        status=status,
        chunks_done=chunks_done,
        chunks_total=len(plan.chunks),
        cache_hits=progress.cache_hits,
        executed=progress.executed,
        failed_chunks=failed,
    )
    telemetry.close()
    _write_metrics(directory, progress)
    return CampaignOutcome(
        campaign_id=plan.campaign_id,
        status=status,
        chunks_total=len(plan.chunks),
        chunks_done=chunks_done,
        cache_hits=progress.cache_hits,
        executed=progress.executed,
        failed_chunks=tuple(failed),
        merged=merged,
        result_payloads=payloads,
    )


def _write_metrics(directory: Path, progress: Progress) -> None:
    """Snapshot the run's registry (JSON + Prometheus text) next to the
    journal, whatever the outcome -- a partial campaign's throughput and
    cache ratio are exactly what a resume decision needs."""
    from repro.campaign.store import _atomic_write_text

    _atomic_write_text(
        directory / "metrics.json",
        json.dumps(progress.registry.to_json(), indent=2) + "\n",
    )
    _atomic_write_text(
        directory / "metrics.prom", progress.registry.render_prometheus()
    )


def _finish_chunk(
    chunk: ChunkTask,
    payload: Dict[str, Any],
    cache_hit: bool,
    elapsed: float,
    store: ResultStore,
    journal: _Journal,
    telemetry: Telemetry,
    progress: Progress,
) -> None:
    """Store-then-journal: the WAL only ever names results that exist."""
    if not cache_hit:
        store.put(chunk.key, payload, kind=chunk.kind)
    journal.record(
        event="chunk_done",
        index=chunk.index,
        key=chunk.key,
        cache_hit=cache_hit,
        elapsed_s=elapsed,
    )
    stats = progress.record_chunk(chunk.replications, cache_hit)
    telemetry.emit(
        "chunk_done",
        index=chunk.index,
        cache_hit=cache_hit,
        elapsed_s=elapsed,
        **stats,
    )


def _run_serial(
    plan: CampaignPlan,
    pending: List[ChunkTask],
    store: ResultStore,
    journal: _Journal,
    telemetry: Telemetry,
    progress: Progress,
    options: CampaignOptions,
    failed: List[int],
) -> bool:
    """In-process chunk loop.  Returns True if ``stop_after`` tripped."""
    completed = 0
    for chunk in pending:
        if options.stop_after is not None and completed >= options.stop_after:
            return True
        cached = store.get(chunk.key)
        started = time.monotonic()
        if cached is not None:
            payload, cache_hit = cached, True
        else:
            telemetry.emit("chunk_start", index=chunk.index, worker="serial")
            try:
                payload = execute_chunk(chunk)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                failed.append(chunk.index)
                telemetry.emit(
                    "chunk_failed", index=chunk.index, error=repr(exc)
                )
                continue
            cache_hit = False
        _finish_chunk(
            chunk, payload, cache_hit,
            time.monotonic() - started,
            store, journal, telemetry, progress,
        )
        completed += 1
    return False


def _run_pooled(
    plan: CampaignPlan,
    pending: List[ChunkTask],
    store: ResultStore,
    journal: _Journal,
    telemetry: Telemetry,
    progress: Progress,
    options: CampaignOptions,
    failed: List[int],
) -> bool:
    """Process-pool chunk loop with the timeout-and-retry liveness policy."""
    # Cache hits never enter the pool: serve them first so a warm store
    # costs no worker round-trips at all.
    to_execute: List[ChunkTask] = []
    completed = 0
    for chunk in pending:
        if options.stop_after is not None and completed >= options.stop_after:
            return True
        cached = store.get(chunk.key)
        if cached is not None:
            _finish_chunk(
                chunk, cached, True, 0.0, store, journal, telemetry, progress
            )
            completed += 1
        else:
            to_execute.append(chunk)

    if not to_execute:
        return False

    workers = min(options.pool_width, len(to_execute))
    stopped = False
    abandoned = False
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {}
        for chunk in to_execute:
            telemetry.emit("chunk_start", index=chunk.index, worker="pool")
            futures[pool.submit(execute_chunk, chunk)] = (
                chunk, time.monotonic(),
            )
        outstanding = set(futures)
        while outstanding:
            if options.stop_after is not None and completed >= options.stop_after:
                for future in outstanding:
                    future.cancel()
                stopped = True
                break
            finished, outstanding = wait(
                outstanding,
                timeout=options.chunk_timeout,
                return_when=FIRST_COMPLETED,
            )
            if not finished:
                # Liveness policy: every outstanding chunk has now waited
                # a full timeout window with zero completions -- declare
                # the oldest one stuck and retry it in-process.
                stale = min(outstanding, key=lambda f: futures[f][1])
                chunk, started = futures[stale]
                stale.cancel()
                outstanding.discard(stale)
                abandoned = True
                telemetry.emit(
                    "chunk_timeout",
                    index=chunk.index,
                    waited_s=time.monotonic() - started,
                    inflight=[futures[f][0].index for f in outstanding],
                )
                payload = _retry_in_process(chunk, telemetry, options, failed)
                if payload is not None:
                    _finish_chunk(
                        chunk, payload, False,
                        time.monotonic() - started,
                        store, journal, telemetry, progress,
                    )
                    completed += 1
                continue
            for future in finished:
                chunk, started = futures[future]
                try:
                    payload = future.result()
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    telemetry.emit(
                        "chunk_worker_error", index=chunk.index, error=repr(exc)
                    )
                    payload = _retry_in_process(
                        chunk, telemetry, options, failed
                    )
                    if payload is None:
                        continue
                _finish_chunk(
                    chunk, payload, False,
                    time.monotonic() - started,
                    store, journal, telemetry, progress,
                )
                completed += 1
    finally:
        if abandoned:
            # A declared-stuck worker may never return; a graceful
            # shutdown would wait on it forever.  Its chunk has already
            # been retried in-process (workers never touch the store, so
            # killing them cannot corrupt state).
            # Snapshot before shutdown clears the executor's bookkeeping.
            processes = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                process.terminate()
        else:
            pool.shutdown(wait=True)
    return stopped


def _retry_in_process(
    chunk: ChunkTask,
    telemetry: Telemetry,
    options: CampaignOptions,
    failed: List[int],
) -> Optional[Dict[str, Any]]:
    """Deterministic fallback: chunks are pure, so re-running is safe."""
    for attempt in range(1, options.max_retries + 1):
        telemetry.emit("chunk_retry", index=chunk.index, attempt=attempt)
        try:
            return execute_chunk(chunk)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            telemetry.emit(
                "chunk_failed", index=chunk.index, attempt=attempt,
                error=repr(exc),
            )
    failed.append(chunk.index)
    return None


# ----------------------------------------------------------------------
# Status inspection (the ``repro campaign status`` backend)
# ----------------------------------------------------------------------
def campaign_status(store: ResultStore, campaign_id: str) -> Dict[str, Any]:
    """Progress snapshot of one campaign from its on-disk state alone."""
    directory = store.campaign_dir(campaign_id)
    try:
        manifest = json.loads(
            (directory / "manifest.json").read_text(encoding="utf-8")
        )
    except (FileNotFoundError, json.JSONDecodeError):
        raise ExperimentError(f"no campaign {campaign_id!r} in {store.root}")
    total = len(manifest.get("chunks", []))
    keys = {c["index"]: c["key"] for c in manifest.get("chunks", [])}
    done = {
        i for i in _journal_done_indexes(directory / "journal.jsonl")
        if i in keys and store.contains(keys[i])
    }
    events = read_events(directory / "telemetry.jsonl")
    cache_hits = sum(
        1 for e in events if e.get("event") == "chunk_done" and e.get("cache_hit")
    )
    complete = (directory / "result.json").is_file() and len(done) == total
    # Journal-derived progress for in-flight campaigns: the latest
    # chunk_done telemetry event carries the runner's live throughput and
    # ETA projection, so status (and the dashboard's /api/campaigns) can
    # report them without touching the running process.
    progress: Dict[str, Any] = {
        "reps_per_s": None,
        "eta_s": None,
        "replications_done": None,
        "last_event_t": None,
    }
    for event in reversed(events):
        if event.get("event") == "chunk_done":
            progress = {
                "reps_per_s": event.get("reps_per_s"),
                "eta_s": 0.0 if complete else event.get("eta_s"),
                "replications_done": event.get("replications_done"),
                "last_event_t": event.get("t"),
            }
            break
    return {
        "id": campaign_id,
        "kind": manifest.get("kind"),
        "chunks_done": len(done),
        "chunks_total": total,
        "complete": complete,
        "cache_hits": cache_hits,
        "events": len(events),
        "progress": progress,
    }
