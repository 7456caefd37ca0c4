"""The checkpointed campaign runner: twins, resume, caching, liveness.

The load-bearing guarantees:

- a campaign's merged result is bit-identical to its one-shot twin
  (``mc_chunked`` / ``repeat_scenario``);
- interrupt-and-resume equals uninterrupted, bit for bit;
- a warm store serves the whole campaign with **zero** executions;
- a config field change misses the cache (re-executes);
- a stuck pool worker is timed out and its chunk retried in-process;
- the journal is a redo log committed in groups: no recorded chunk is
  ever re-executed, an unrecorded batch costs at most its own chunks,
  and a cold run pays one ``fsync`` per executed chunk at most.
"""

import json
import os
import time

import pytest

from repro.analysis.montecarlo import mc_chunked, mc_false_detection
from repro.campaign.plans import (
    EXECUTORS,
    MERGERS,
    CampaignPlan,
    ChunkTask,
    mc_plan,
    plan_from_manifest,
    scenario_repeat_plan,
)
from repro.campaign.runner import CampaignOptions, campaign_status, run_campaign
from repro.campaign.store import ResultStore, content_key
from repro.campaign.telemetry import read_events
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.repeat import repeat_scenario
from repro.experiments.runner import ScenarioConfig

SMALL = ScenarioConfig(
    cluster_count=2,
    members_per_cluster=8,
    loss_probability=0.15,
    crash_count=1,
    executions=2,
)

MC_ARGS = dict(n=40, p=0.4, trials=12_000, seed=3, chunks=6)


def _store(tmp_path, name="store"):
    return ResultStore(tmp_path / name)


def _explodes(_payload):
    raise AssertionError("this chunk must not execute")


class TestOneShotTwins:
    def test_mc_campaign_bit_identical_to_mc_chunked(self, tmp_path):
        plan = mc_plan("false_detection", **MC_ARGS)
        outcome = run_campaign(plan, _store(tmp_path))
        direct = mc_chunked(
            mc_false_detection, MC_ARGS["n"], MC_ARGS["p"], MC_ARGS["trials"],
            seed=MC_ARGS["seed"], chunks=MC_ARGS["chunks"],
        )
        assert outcome.complete
        assert outcome.merged == direct

    def test_scenario_campaign_bit_identical_to_repeat(self, tmp_path):
        plan = scenario_repeat_plan(SMALL, [1, 2, 3])
        outcome = run_campaign(plan, _store(tmp_path))
        direct = repeat_scenario(SMALL, [1, 2, 3])
        assert outcome.complete
        assert outcome.merged.metrics == direct.metrics
        assert outcome.merged.seeds == direct.seeds

    def test_pooled_equals_serial(self, tmp_path):
        # Both plan kinds, on a pool that is really entered (every chunk
        # executes in a worker): the pool never changes results.
        for plan in (
            mc_plan("false_detection", **MC_ARGS),
            scenario_repeat_plan(SMALL, [1, 2, 3, 4]),
        ):
            serial = run_campaign(plan, _store(tmp_path, f"{plan.kind}-a"))
            pooled = run_campaign(
                plan,
                _store(tmp_path, f"{plan.kind}-b"),
                CampaignOptions(workers=3),
            )
            assert pooled.executed == len(plan.chunks)
            assert pooled.merged == serial.merged


class TestOptions:
    def test_resolve_workers(self):
        assert CampaignOptions(workers=1).pool_width == 1
        assert CampaignOptions(workers=3).pool_width == 3
        assert CampaignOptions(workers=None).pool_width >= 1

    @pytest.mark.parametrize(
        "bad",
        [
            dict(workers=0),
            dict(chunk_timeout=0),
            dict(chunk_timeout=-1.0),
            dict(max_retries=-1),
            dict(stop_after=-1),
        ],
    )
    def test_rejected_options_leave_the_store_untouched(self, tmp_path, bad):
        store = _store(tmp_path)
        plan = mc_plan("false_detection", **MC_ARGS)
        with pytest.raises(ExperimentError):
            run_campaign(plan, store, CampaignOptions(**bad))
        assert not store.root.exists()


class TestCaching:
    def test_warm_rerun_executes_zero_simulations(self, tmp_path, monkeypatch):
        store = _store(tmp_path)
        plan = scenario_repeat_plan(SMALL, [1, 2])
        cold = run_campaign(plan, store)
        assert cold.executed == 2

        monkeypatch.setitem(EXECUTORS, "scenario", _explodes)
        warm = run_campaign(plan, store)
        assert warm.complete
        assert warm.executed == 0
        assert warm.cache_hits == warm.chunks_total == 2
        assert warm.merged.metrics == cold.merged.metrics

    def test_warm_rerun_emits_telemetry_per_chunk(self, tmp_path):
        store = _store(tmp_path)
        plan = mc_plan("false_detection", **MC_ARGS)
        run_campaign(plan, store)
        run_campaign(plan, store)
        events = read_events(
            store.campaign_dir(plan.campaign_id) / "telemetry.jsonl"
        )
        done = [e for e in events if e["event"] == "chunk_done"]
        # One per chunk cold + one per chunk warm, the warm ones all hits.
        assert len(done) == 2 * len(plan.chunks)
        warm_events = done[len(plan.chunks):]
        assert all(e["cache_hit"] for e in warm_events)
        assert warm_events[-1]["cache_hit_ratio"] == 1.0

    def test_config_field_change_misses(self, tmp_path):
        import dataclasses

        store = _store(tmp_path)
        plan = scenario_repeat_plan(SMALL, [1])
        run_campaign(plan, store)
        changed_plan = scenario_repeat_plan(
            dataclasses.replace(SMALL, loss_probability=0.25), [1]
        )
        outcome = run_campaign(changed_plan, store)
        assert outcome.cache_hits == 0
        assert outcome.executed == 1
        assert plan.campaign_id != changed_plan.campaign_id

    def test_code_fingerprint_invalidates(self, tmp_path):
        # Same payload under two code fingerprints must occupy two
        # addresses: an upgraded library never hits stale results.
        payload = {"chunk": 0}
        store = _store(tmp_path)
        store.put(content_key("k", payload, fingerprint="old"), {"v": 1},
                  fingerprint="old")
        assert store.get(content_key("k", payload, fingerprint="new")) is None


class TestInterruptResume:
    @pytest.mark.parametrize("stop_after", [1, 2])
    def test_resumed_equals_uninterrupted(self, tmp_path, stop_after):
        seeds = [5, 6, 7]
        plan = scenario_repeat_plan(SMALL, seeds)

        uninterrupted = run_campaign(plan, _store(tmp_path, "full"))

        store = _store(tmp_path, "interrupted")
        partial = run_campaign(
            plan, store, CampaignOptions(stop_after=stop_after)
        )
        assert partial.status == "partial"
        assert partial.exit_code() == 3
        assert partial.chunks_done == stop_after
        resumed = run_campaign(plan, store)
        assert resumed.complete
        # The already-journaled chunks replay as hits, the rest execute.
        assert resumed.cache_hits == stop_after
        assert resumed.executed == len(seeds) - stop_after
        assert resumed.merged.metrics == uninterrupted.merged.metrics
        assert resumed.result_payloads == uninterrupted.result_payloads

    def test_journal_is_flushed_per_chunk(self, tmp_path):
        store = _store(tmp_path)
        plan = scenario_repeat_plan(SMALL, [1, 2])
        run_campaign(plan, store, CampaignOptions(stop_after=1))
        journal = read_events(
            store.campaign_dir(plan.campaign_id) / "journal.jsonl"
        )
        done = [e for e in journal if e["event"] == "chunk_done"]
        assert len(done) == 1
        assert store.contains(done[0]["key"])

    def test_lost_object_is_recomputed_on_resume(self, tmp_path, monkeypatch):
        # ...unless the journal recorded its payload: an executed chunk's
        # line is a redo record, so a deleted, emptied or bit-flipped
        # object behind it is restored, never re-executed.
        store = _store(tmp_path)
        plan = scenario_repeat_plan(SMALL, [1, 2, 3])
        clean = run_campaign(plan, store)
        paths = [store._object_path(chunk.key) for chunk in plan.chunks]
        paths[0].unlink()
        paths[1].write_bytes(b"")
        flipped = bytearray(paths[2].read_bytes())
        flipped[len(flipped) // 2] ^= 0x80
        paths[2].write_bytes(bytes(flipped))
        real = EXECUTORS["scenario"]
        monkeypatch.setitem(EXECUTORS, "scenario", _explodes)
        restored = run_campaign(plan, store)
        assert restored.complete
        assert restored.executed == 0 and restored.cache_hits == 3
        assert restored.result_payloads == clean.result_payloads
        events = read_events(
            store.campaign_dir(plan.campaign_id) / "telemetry.jsonl"
        )
        assert sum(e.get("restored", False) for e in events) == 3

        # A cache-hit line carries no payload: a campaign that only ever
        # *hit* chunk 0 has nothing to restore it from, and recomputes.
        wider = scenario_repeat_plan(SMALL, [1, 2, 3, 4])
        monkeypatch.setitem(EXECUTORS, "scenario", real)
        assert run_campaign(wider, store).executed == 1
        paths[0].unlink()
        outcome = run_campaign(wider, store)
        assert outcome.complete
        assert outcome.executed == 1 and outcome.cache_hits == 3

    def test_keyboard_interrupt_checkpoints(self, tmp_path, monkeypatch):
        store = _store(tmp_path)
        plan = scenario_repeat_plan(SMALL, [1, 2, 3])
        real = EXECUTORS["scenario"]
        calls = []

        def _interrupt_after_one(payload):
            if calls:
                raise KeyboardInterrupt
            calls.append(1)
            return real(payload)

        monkeypatch.setitem(EXECUTORS, "scenario", _interrupt_after_one)
        outcome = run_campaign(plan, store)
        assert outcome.status == "interrupted"
        assert outcome.exit_code() == 130
        journal = read_events(
            store.campaign_dir(plan.campaign_id) / "journal.jsonl"
        )
        assert sum(e["event"] == "chunk_done" for e in journal) == 1
        # And the resume completes, bit-identical to a clean run.
        monkeypatch.setitem(EXECUTORS, "scenario", real)
        resumed = run_campaign(plan, store)
        clean = run_campaign(plan, _store(tmp_path, "clean"))
        assert resumed.complete
        assert resumed.merged.metrics == clean.merged.metrics


def _run_until_killed(plan, store, kill_after_puts):
    """Run ``plan`` in a forked child that dies -- nothing flushed,
    nothing closed -- right after its n-th ``put`` returns."""
    pid = os.fork()
    if pid == 0:
        try:
            real, puts = ResultStore.put, []

            def _put(self, *args, **kwargs):
                real(self, *args, **kwargs)
                puts.append(1)
                if len(puts) == kill_after_puts:
                    os._exit(9)

            ResultStore.put = _put
            run_campaign(plan, store)
        finally:
            os._exit(1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 9


class TestGroupCommit:
    MC = dict(n=40, p=0.4, trials=400, seed=3)

    def test_kill_between_put_and_commit_costs_only_that_batch(self, tmp_path):
        plan = mc_plan("false_detection", chunks=4, **self.MC)
        clean = run_campaign(plan, _store(tmp_path, "clean"))
        store = _store(tmp_path)
        # Chunk 0 is committed; chunk 1's object landed, its line did not.
        _run_until_killed(plan, store, kill_after_puts=2)
        directory = store.campaign_dir(plan.campaign_id)
        journal = read_events(directory / "journal.jsonl")
        assert [e["index"] for e in journal] == [0]
        assert store.contains(plan.chunks[1].key)
        # Lose the recorded chunk's object as well: it restores, the
        # unrecorded one replays from its object, only 2 and 3 execute.
        store._object_path(plan.chunks[0].key).unlink()
        resumed = run_campaign(plan, store)
        assert resumed.complete
        assert resumed.executed == 2 and resumed.cache_hits == 2
        assert resumed.merged == clean.merged
        journal = read_events(directory / "journal.jsonl")
        assert [e["index"] for e in journal if "payload" in e] == [0, 2, 3]

    def test_kill_between_two_puts_of_one_batch(self, tmp_path, monkeypatch):
        plan = mc_plan("false_detection", chunks=4, **self.MC)
        store = _store(tmp_path)
        clean = run_campaign(plan, store)
        for chunk in plan.chunks:
            store._object_path(chunk.key).unlink()
        # The restore pass is one batch of four puts; die after the second.
        _run_until_killed(plan, store, kill_after_puts=2)
        assert [store.contains(c.key) for c in plan.chunks] == [
            True, True, False, False,
        ]
        monkeypatch.setitem(EXECUTORS, "mc", _explodes)
        resumed = run_campaign(plan, store)
        assert resumed.complete and resumed.executed == 0
        assert resumed.merged == clean.merged

    def test_garbage_and_torn_journal_lines_are_ignored(
        self, tmp_path, monkeypatch
    ):
        plan = mc_plan("false_detection", chunks=3, **self.MC)
        clean = run_campaign(plan, _store(tmp_path, "clean"))
        store = _store(tmp_path)
        run_campaign(plan, store, CampaignOptions(stop_after=1))
        journal_path = store.campaign_dir(plan.campaign_id) / "journal.jsonl"
        line = dict(event="chunk_done", index=2, cache_hit=False)
        with journal_path.open("ab") as handle:
            handle.write(b"123\n\xff\xfe\n[1, 2]\n")
            for bad in (
                dict(line, key="0" * 64, payload={"bogus": 1}),
                dict(line, key=plan.chunks[2].key, payload=[1]),
                dict(line, index=[2], key=plan.chunks[2].key, payload={}),
            ):
                handle.write(json.dumps(bad).encode() + b"\n")
            handle.write(b'{"event": "chunk_do')  # torn tail, no newline
        assert campaign_status(store, plan.campaign_id)["chunks_done"] == 1
        resumed = run_campaign(plan, store)
        assert resumed.executed == 2 and resumed.cache_hits == 1
        assert resumed.merged == clean.merged
        # The lines appended after the torn tail are all readable: with
        # every object gone the whole campaign restores from them.
        for chunk in plan.chunks:
            store._object_path(chunk.key).unlink()
        monkeypatch.setitem(EXECUTORS, "mc", _explodes)
        restored = run_campaign(plan, store)
        assert restored.complete and restored.executed == 0
        assert restored.merged == clean.merged

    @pytest.mark.parametrize("chunks", [4, 40])
    def test_fsync_budget(self, tmp_path, monkeypatch, chunks):
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        plan = mc_plan("false_detection", chunks=chunks, **self.MC)
        for name, options in (
            ("serial", CampaignOptions()),
            ("pooled", CampaignOptions(workers=2)),
        ):
            store = _store(tmp_path, name)
            del calls[:]
            cold = run_campaign(plan, store, options)
            assert cold.executed == chunks
            assert len(calls) <= chunks + 6
            result = store.campaign_dir(plan.campaign_id) / "result.json"
            cold_bytes = result.read_bytes()
            del calls[:]
            warm = run_campaign(plan, store, options)
            assert warm.cache_hits == chunks
            assert len(calls) <= 6
            assert result.read_bytes() == cold_bytes

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stop_after", [1, 3])
    def test_stop_after_is_exact_at_any_pool_width(
        self, tmp_path, stop_after, workers
    ):
        plan = mc_plan("false_detection", chunks=12, **self.MC)
        clean = run_campaign(plan, _store(tmp_path, "clean"))
        for attempt in range(10):
            store = _store(tmp_path, f"store-{attempt}")
            partial = run_campaign(
                plan, store,
                CampaignOptions(stop_after=stop_after, workers=workers),
            )
            assert partial.status == "partial"
            assert partial.chunks_done == stop_after
            journal = read_events(
                store.campaign_dir(plan.campaign_id) / "journal.jsonl"
            )
            assert len(journal) == stop_after
            resumed = run_campaign(plan, store)
            assert resumed.cache_hits == stop_after
            assert resumed.result_payloads == clean.result_payloads


class TestManifests:
    def test_plan_from_manifest_round_trips(self, tmp_path):
        for plan in (
            mc_plan("incompleteness", n=30, p=0.3, trials=5000, seed=1, chunks=4),
            scenario_repeat_plan(SMALL, [4, 5]),
        ):
            rebuilt = plan_from_manifest(plan.manifest())
            assert rebuilt.campaign_id == plan.campaign_id
            assert [c.key for c in rebuilt.chunks] == [c.key for c in plan.chunks]

    def test_plan_from_manifest_rejects_key_drift(self, tmp_path):
        plan = mc_plan("incompleteness", n=30, p=0.3, trials=5000, seed=1, chunks=4)
        manifest = plan.manifest()
        manifest["chunks"][0]["key"] = "0" * 64  # stale code fingerprint
        with pytest.raises(ConfigurationError):
            plan_from_manifest(manifest)

    def test_plan_from_manifest_rejects_retired_config_field(self):
        # A manifest stored before ``vectorized`` was retired must be
        # refused with the typed error, not a TypeError from the
        # dataclass constructor.
        manifest = scenario_repeat_plan(SMALL, [4, 5]).manifest()
        manifest["params"]["config"]["vectorized"] = True
        with pytest.raises(ConfigurationError, match="vectorized"):
            plan_from_manifest(manifest)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigurationError):
            mc_plan("not_an_estimator", n=10, p=0.1, trials=100, seed=0)

    def test_status_reports_progress(self, tmp_path):
        store = _store(tmp_path)
        plan = scenario_repeat_plan(SMALL, [1, 2])
        run_campaign(plan, store, CampaignOptions(stop_after=1))
        info = campaign_status(store, plan.campaign_id)
        assert info["chunks_done"] == 1
        assert info["chunks_total"] == 2
        assert not info["complete"]


# ----------------------------------------------------------------------
# Liveness: stuck-worker timeout and in-process retry
# ----------------------------------------------------------------------
def _sleepy_executor(payload):
    # Stuck only inside a pool worker; the in-process retry is instant.
    if os.getpid() != payload["main_pid"]:
        time.sleep(60.0)
    return {"value": payload["value"]}


def _sleepy_merger(_params, results):
    return sum(r["value"] for r in results)


def _sleepy_plan(count):
    chunks = tuple(
        ChunkTask(
            index=i,
            kind="sleepy",
            payload={"value": i + 1, "main_pid": os.getpid()},
            key=content_key("sleepy", {"i": i, "pid": os.getpid()}),
            replications=1,
        )
        for i in range(count)
    )
    return CampaignPlan(
        campaign_id="sleepytest0000", kind="sleepy", params={}, chunks=chunks
    )


class TestLiveness:
    def test_stuck_worker_times_out_and_retries_in_process(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(EXECUTORS, "sleepy", _sleepy_executor)
        monkeypatch.setitem(MERGERS, "sleepy", _sleepy_merger)
        plan = _sleepy_plan(2)
        store = _store(tmp_path)
        outcome = run_campaign(
            plan, store,
            CampaignOptions(workers=2, chunk_timeout=0.5, max_retries=1),
        )
        assert outcome.complete
        assert outcome.merged == 3
        events = read_events(
            store.campaign_dir(plan.campaign_id) / "telemetry.jsonl"
        )
        kinds = [e["event"] for e in events]
        assert "chunk_timeout" in kinds
        assert "chunk_retry" in kinds

    def test_failing_chunk_marks_campaign_failed(self, tmp_path, monkeypatch):
        def _always_fails(_payload):
            raise RuntimeError("boom")

        monkeypatch.setitem(EXECUTORS, "sleepy", _always_fails)
        monkeypatch.setitem(MERGERS, "sleepy", _sleepy_merger)
        plan = _sleepy_plan(1)
        outcome = run_campaign(plan, _store(tmp_path))
        assert outcome.status == "failed"
        assert outcome.exit_code() == 2
        assert outcome.failed_chunks == (0,)
