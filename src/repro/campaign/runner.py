"""Checkpointed campaign execution over the content-addressed store.

The runner turns a :class:`~repro.campaign.plans.CampaignPlan` into a
durable run:

1. the campaign **manifest** is persisted once (identity, params, chunk
   keys) so ``resume``/``status`` can reconstruct the plan later;
2. every finished chunk is appended to a **journal** (a JSONL redo
   log): the ``chunk_done`` line of an executed chunk carries its
   payload, and lines are committed in groups -- one flush and one
   ``fsync`` for whatever finished while the previous commit was in
   flight (per executed chunk in a serial run, once for a whole warm
   run).  A chunk is *recorded* once the commit holding its line
   returns.  The result object is cached in the store first, un-synced:
   objects are a cache of the journal, not the durable copy;
3. the contract: a process kill loses at most the batch being committed
   (its objects still replay as hits); power loss loses no recorded
   chunk; an object may be lost or torn at any time, which costs a
   restore from the journal or a recompute, never a wrong result;
4. on entry the journal is read once; every chunk is then looked up in
   the store and replayed as a **cache hit** if found, *restored* from
   its journaled payload if the object is gone, and executed only when
   neither exists -- a recorded chunk is never re-executed;
5. the merged result is folded from the per-chunk payloads in chunk
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
is committed and telemetry flushed, an ``interrupted`` outcome is
returned, and the next invocation resumes where this one stopped.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.plans import CampaignPlan, ChunkTask, execute_chunk
from repro.campaign.store import ResultStore, _atomic_write_text
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
    """Append-only JSONL redo log of finished chunks, committed in groups."""

    def __init__(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = path.open("a+b")
        self._dirty = False
        if self._handle.tell():
            # A killed run can leave a torn last line; appending straight
            # after it would make the next record unreadable as well.
            self._handle.seek(-1, os.SEEK_END)
            if self._handle.read(1) != b"\n":
                self._handle.write(b"\n")

    def record(self, **fields: Any) -> None:
        """Buffer one line; it is *recorded* once :meth:`commit` returns."""
        self._handle.write(json.dumps(fields).encode("utf-8") + b"\n")
        self._dirty = True

    def commit(self) -> None:
        """One flush and one fsync for every line since the last commit."""
        if self._dirty:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._dirty = False

    def close(self) -> None:
        try:
            self.commit()
        finally:
            self._handle.close()


def _read_journal(
    path: Path, keys: Dict[int, str]
) -> Dict[int, Optional[Dict[str, Any]]]:
    """What the journal records about the plan whose chunk keys are ``keys``.

    Maps the index of every chunk with a ``chunk_done`` line under the
    plan's key to the payload that line carries (an executed chunk), or
    to ``None`` when only cache-hit lines name it.  Lines for another
    key, or with a payload that is not an object, are ignored.
    """
    recorded: Dict[int, Optional[Dict[str, Any]]] = {}
    for event in read_events(path):
        index = event.get("index")
        if (
            event.get("event") != "chunk_done"
            or not isinstance(index, int)
            or keys.get(index) != event.get("key")
        ):
            continue
        payload = event.get("payload")
        if isinstance(payload, dict):
            recorded[index] = payload
        else:
            recorded.setdefault(index, None)
    return recorded


def _chunks_done(
    store: ResultStore,
    keys: Dict[int, str],
    recorded: Dict[int, Optional[Dict[str, Any]]],
) -> int:
    """Recorded chunks a resume will not execute: the journal holds the
    payload, or (for a cache-hit line) the object is still in the store."""
    return sum(
        payload is not None or store.contains(keys[index])
        for index, payload in recorded.items()
    )


def _write_manifest(store: ResultStore, plan: CampaignPlan) -> Path:
    directory = store.campaign_dir(plan.campaign_id)
    path = directory / "manifest.json"
    if not path.is_file():
        directory.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(path, json.dumps(plan.manifest(), indent=2) + "\n")
    return path


@dataclass
class _Run:
    """What the chunk loops of one invocation share."""

    plan: CampaignPlan
    store: ResultStore
    options: CampaignOptions
    journal: _Journal
    telemetry: Telemetry
    progress: Progress
    #: :func:`_read_journal` of the earlier invocations.
    recorded: Dict[int, Optional[Dict[str, Any]]]
    #: Payload of every cache hit served, by chunk index: the merge
    #: folds these instead of reading the objects a second time.
    served: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    failed: List[int] = field(default_factory=list)

    def stop_now(self) -> bool:
        """``stop_after`` chunks have completed in this invocation."""
        done = self.progress.cache_hits + self.progress.executed
        stop_after = self.options.stop_after
        return stop_after is not None and done >= stop_after

    def replay(self, chunk: ChunkTask) -> bool:
        """Finish ``chunk`` as a cache hit if the store, or failing that
        the journal, has its payload; ``False`` means it must execute."""
        payload = self.store.get(chunk.key)
        restored = False
        if payload is None:
            payload = self.recorded.get(chunk.index)
            if payload is None:
                return False
            # The object was lost (gc, power loss, corruption) but the
            # redo log kept its payload: a recorded chunk never re-runs.
            self.store.put(chunk.key, payload, kind=chunk.kind)
            restored = True
        self.served[chunk.index] = payload
        self.finish(chunk, payload, 0.0, cache_hit=True, restored=restored)
        return True

    def finish(
        self,
        chunk: ChunkTask,
        payload: Dict[str, Any],
        elapsed: float,
        cache_hit: bool = False,
        restored: bool = False,
    ) -> None:
        """Cache an executed chunk's object, then buffer its journal line
        -- which carries the payload, the copy ``commit`` makes durable."""
        line = dict(
            event="chunk_done", index=chunk.index, key=chunk.key,
            cache_hit=cache_hit, elapsed_s=elapsed,
        )
        if not cache_hit:
            self.store.put(chunk.key, payload, kind=chunk.kind)
            line["payload"] = payload
        self.journal.record(**line)
        stats = self.progress.record_chunk(chunk.replications, cache_hit)
        if restored:
            stats["restored"] = True
        self.telemetry.emit(
            "chunk_done",
            index=chunk.index,
            cache_hit=cache_hit,
            elapsed_s=elapsed,
            **stats,
        )


def run_campaign(
    plan: CampaignPlan,
    store: ResultStore,
    options: CampaignOptions = CampaignOptions(),
) -> CampaignOutcome:
    """Execute ``plan`` durably; resume is implicit (same plan, same dirs).

    Invoking this again with the same plan continues from the journal:
    chunks recorded there are not re-run (a lost object is restored from
    the recorded payload), and chunks cached from *any* earlier campaign
    with identical content keys are served as hits.
    """
    directory = store.campaign_dir(plan.campaign_id)
    _write_manifest(store, plan)
    journal_path = directory / "journal.jsonl"
    # Every chunk goes through the loop, so recorded chunks replay as
    # explicit cache hits (one telemetry event each) without executing.
    keys = {chunk.index: chunk.key for chunk in plan.chunks}
    recorded = _read_journal(journal_path, keys)
    already_done = _chunks_done(store, keys, recorded)
    run = _Run(
        plan, store, options,
        journal=_Journal(journal_path),
        telemetry=Telemetry(
            directory / "telemetry.jsonl", mirror=options.telemetry_path
        ),
        progress=Progress(len(plan.chunks)),
        recorded=recorded,
    )
    telemetry, progress, failed = run.telemetry, run.progress, run.failed
    interrupted = False
    stopped = False
    telemetry.emit(
        "campaign_start",
        campaign=plan.campaign_id,
        kind=plan.kind,
        chunks_total=len(plan.chunks),
        chunks_already_done=already_done,
        resumed=bool(already_done),
        workers=options.pool_width,
    )
    try:
        runner = _run_pooled if options.pool_width > 1 else _run_serial
        stopped = runner(run)
    except KeyboardInterrupt:
        # Checkpointing is the whole point: ``close`` commits every
        # finished chunk's line; nothing else needs saving.
        interrupted = True
    finally:
        run.journal.close()

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
            # An executed chunk is read back from the store: proof that
            # it landed, in the JSON-normalised form a warm run will see.
            payload = run.served.get(chunk.index)
            if payload is None:
                payload = store.get(chunk.key)
            if payload is None:
                raise ExperimentError(
                    f"store lost chunk {chunk.index} ({chunk.key[:12]}...) "
                    "between execution and merge"
                )
            results.append(payload)
        payloads = tuple(results)
        merged = plan.merge(results)
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
    _atomic_write_text(
        directory / "metrics.json",
        json.dumps(progress.registry.to_json(), indent=2) + "\n",
    )
    _atomic_write_text(
        directory / "metrics.prom", progress.registry.render_prometheus()
    )


def _run_serial(run: _Run) -> bool:
    """In-process chunk loop.  Returns True if ``stop_after`` tripped.

    One commit per executed chunk; a run of cache hits rides along with
    the next one (or with ``close``).
    """
    for chunk in run.plan.chunks:
        if run.stop_now():
            return True
        if run.replay(chunk):
            continue
        started = time.monotonic()
        run.telemetry.emit("chunk_start", index=chunk.index, worker="serial")
        try:
            payload = execute_chunk(chunk)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            run.failed.append(chunk.index)
            run.telemetry.emit(
                "chunk_failed", index=chunk.index, error=repr(exc)
            )
            continue
        run.finish(chunk, payload, time.monotonic() - started)
        run.journal.commit()
    return False


def _run_pooled(run: _Run) -> bool:
    """Process-pool chunk loop with the timeout-and-retry liveness policy."""
    options, telemetry = run.options, run.telemetry
    # Cache hits never enter the pool: serve them first so a warm store
    # costs no worker round-trips at all, and one commit.
    to_execute: List[ChunkTask] = []
    for chunk in run.plan.chunks:
        if run.stop_now():
            return True
        if not run.replay(chunk):
            to_execute.append(chunk)
    run.journal.commit()

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
            if run.stop_now():
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
                payload = _retry_in_process(run, chunk)
                if payload is not None:
                    run.finish(chunk, payload, time.monotonic() - started)
            # Group commit: whatever finished while the previous commit
            # was in flight is one batch.  Chunk-index order makes the
            # ``stop_after`` cut exact; the surplus results are dropped
            # and recomputed on resume.
            for future in sorted(finished, key=lambda f: futures[f][0].index):
                if run.stop_now():
                    break
                chunk, started = futures[future]
                try:
                    payload = future.result()
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    telemetry.emit(
                        "chunk_worker_error", index=chunk.index, error=repr(exc)
                    )
                    payload = _retry_in_process(run, chunk)
                    if payload is None:
                        continue
                run.finish(chunk, payload, time.monotonic() - started)
            run.journal.commit()
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


def _retry_in_process(run: _Run, chunk: ChunkTask) -> Optional[Dict[str, Any]]:
    """Deterministic fallback: chunks are pure, so re-running is safe."""
    for attempt in range(1, run.options.max_retries + 1):
        run.telemetry.emit("chunk_retry", index=chunk.index, attempt=attempt)
        try:
            return execute_chunk(chunk)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            run.telemetry.emit(
                "chunk_failed", index=chunk.index, attempt=attempt,
                error=repr(exc),
            )
    run.failed.append(chunk.index)
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
    done = _chunks_done(
        store, keys, _read_journal(directory / "journal.jsonl", keys)
    )
    events = read_events(directory / "telemetry.jsonl")
    cache_hits = sum(
        1 for e in events if e.get("event") == "chunk_done" and e.get("cache_hit")
    )
    complete = (directory / "result.json").is_file() and done == total
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
        "chunks_done": done,
        "chunks_total": total,
        "complete": complete,
        "cache_hits": cache_hits,
        "events": len(events),
        "progress": progress,
    }
