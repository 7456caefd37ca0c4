"""CLI surface of campaigns: exit codes, SIGINT handling, status/gc.

The hard exit-path contract (tested with a real subprocess, per the
issue): a SIGINT mid-campaign must flush the journal and exit 130, and
the subsequent resume must produce a merged result bit-identical to a
never-interrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.campaign.telemetry import read_events

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: 30 serial chunks of ~15 ms: the work left after the first commit
#: outlasts the SIGINT test's 10 ms journal poll by well over 10x.
SCENARIO_ARGS = [
    "--kind", "scenario", "--clusters", "2", "--members", "8",
    "--loss-p", "0.15", "--crashes", "1", "--executions", "4",
    "--seeds", "30", "--seed-base", "1",
]

MC_ARGS = [
    "--kind", "mc", "--estimator", "false_detection",
    "--n", "40", "--p", "0.4", "--trials", "12000",
    "--chunks", "6", "--seed", "3",
]


def _campaign_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _journal_paths(store: Path):
    return list((store / "campaigns").glob("*/journal.jsonl"))


class TestExitCodes:
    def test_stop_after_exits_partial(self, tmp_path, capsys):
        code = main([
            "campaign", "run", *MC_ARGS,
            "--store", str(tmp_path / "store"), "--stop-after", "2",
        ])
        assert code == 3
        assert "partial" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"),
        ("--chunk-timeout", "0"),
        ("--chunk-timeout", "-1"),
        ("--max-retries", "-1"),
    ])
    def test_rejected_option_is_one_error_line_and_no_campaign(
        self, tmp_path, capsys, flag, value
    ):
        store = tmp_path / "store"
        code = main([
            "campaign", "run", *MC_ARGS, "--store", str(store), flag, value,
        ])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not store.exists()

    def test_complete_exits_zero_and_writes_result(self, tmp_path, capsys):
        result_path = tmp_path / "result.json"
        code = main([
            "campaign", "run", *MC_ARGS,
            "--store", str(tmp_path / "store"),
            "--result-json", str(result_path),
        ])
        assert code == 0
        payload = json.loads(result_path.read_text())
        assert payload["status"] == "complete"
        assert payload["merged"]["trials"] == 12000

    def test_resume_by_id_and_status(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "campaign", "run", *MC_ARGS, "--store", store,
            "--stop-after", "1",
        ]) == 3
        out = capsys.readouterr().out
        campaign_id = out.split()[1].rstrip(":")
        assert main([
            "campaign", "resume", "--id", campaign_id, "--store", store,
        ]) == 0
        assert main(["campaign", "status", "--store", store]) == 0
        status_out = capsys.readouterr().out
        assert campaign_id in status_out
        assert "6/6" in status_out

    def test_resume_stale_manifest_is_one_error_line(self, tmp_path, capsys):
        """A manifest whose ``fds`` carries a field this version does not
        know (``sleep_aware`` left with the Section-6 seam) is refused
        with a typed error, not a traceback."""
        store = tmp_path / "store"
        assert main([
            "campaign", "run", *SCENARIO_ARGS, "--store", str(store),
            "--stop-after", "1",
        ]) == 3
        campaign_id = capsys.readouterr().out.split()[1].rstrip(":")
        manifest_path = store / "campaigns" / campaign_id / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["params"]["config"]["fds"]["sleep_aware"] = False
        manifest_path.write_text(json.dumps(manifest))
        assert main([
            "campaign", "resume", "--id", campaign_id, "--store", str(store),
        ]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "fds.sleep_aware" in lines[0]

    def test_resume_unknown_id_fails(self, tmp_path, capsys):
        assert main([
            "campaign", "resume", "--id", "doesnotexist",
            "--store", str(tmp_path / "store"),
        ]) == 1

    def test_gc_runs(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["campaign", "run", *MC_ARGS, "--store", store])
        assert main(["campaign", "gc", "--store", store, "--dry-run"]) == 0
        assert main(["campaign", "gc", "--store", store, "--all"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out


class TestSigint:
    def test_sigint_flushes_journal_and_resume_matches(self, tmp_path):
        """kill -INT mid-campaign -> 130, journal intact, resume identical."""
        store = tmp_path / "store"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run",
             *SCENARIO_ARGS, "--store", str(store)],
            env=_campaign_env(), cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            # Wait for at least one journaled chunk, then interrupt.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                journals = _journal_paths(store)
                if journals and any(
                    e.get("event") == "chunk_done"
                    for e in read_events(journals[0])
                ):
                    break
                time.sleep(0.01)
                if proc.poll() is not None:
                    pytest.fail(
                        "campaign finished before it could be interrupted:\n"
                        + proc.stdout.read()
                    )
            else:
                pytest.fail("no chunk journaled within 60s")
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 130:
            pytest.fail(f"exit code {code}, not 130:\n" + proc.stdout.read())

        # The write-ahead log survived the signal: every line parses and
        # every journaled chunk's object exists in the store.
        journal = read_events(_journal_paths(store)[0])
        done = [e for e in journal if e["event"] == "chunk_done"]
        assert done
        for event in done:
            key = event["key"]
            assert (store / "objects" / key[:2] / f"{key}.json").is_file()

        # Resume and compare against an uninterrupted run, byte for byte.
        resumed_json = tmp_path / "resumed.json"
        fresh_json = tmp_path / "fresh.json"
        assert main([
            "campaign", "run", *SCENARIO_ARGS, "--store", str(store),
            "--result-json", str(resumed_json),
        ]) == 0
        assert main([
            "campaign", "run", *SCENARIO_ARGS,
            "--store", str(tmp_path / "fresh-store"),
            "--result-json", str(fresh_json),
        ]) == 0
        assert resumed_json.read_bytes() == fresh_json.read_bytes()


class TestFormationKnobs:
    def test_campaign_run_roundtrips_formation_config(self, tmp_path, capsys):
        """``campaign run --formation protocol`` must store the formation
        knobs in the manifest so a resume replays the same formation."""
        from repro.campaign.plans import plan_from_manifest
        from repro.campaign.store import config_from_canonical

        store = tmp_path / "store"
        args = [
            "campaign", "run", "--kind", "scenario",
            "--clusters", "2", "--members", "8", "--loss-p", "0.1",
            "--crashes", "1", "--executions", "2",
            "--seeds", "2", "--seed-base", "1",
            "--engine", "array", "--formation", "protocol",
            "--formation-iterations", "2", "--formation-backoff", "0.3",
        ]
        first = tmp_path / "first.json"
        assert main([*args, "--store", str(store),
                     "--result-json", str(first)]) == 0
        capsys.readouterr()

        manifests = list((store / "campaigns").glob("*/manifest.json"))
        assert len(manifests) == 1
        plan = plan_from_manifest(json.loads(manifests[0].read_text()))
        config = config_from_canonical(plan.chunks[0].payload["config"])
        assert config.formation == "protocol"
        assert config.formation_iterations == 2
        assert config.formation_backoff_fraction == 0.3
        assert config.engine == "array"

        # A second identical run is pure cache hits, byte-identical.
        second = tmp_path / "second.json"
        assert main([*args, "--store", str(store),
                     "--result-json", str(second)]) == 0
        assert "2 cache hit(s), 0 executed" in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()


class TestSoakCli:
    def test_soak_store_caches_verdicts(self, tmp_path, capsys):
        store = str(tmp_path / "soak-store")
        args = ["soak", "--iterations", "1", "--seed", "0", "--store", store]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cached" not in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "(cached)" in second
        assert "1 cached" in second

    def test_soak_keyboard_interrupt_exits_130(self, tmp_path, capsys,
                                               monkeypatch):
        import repro.audit.soak as soak_module

        def _interrupt(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(soak_module, "soak_iteration", _interrupt)
        code = main([
            "soak", "--iterations", "3", "--seed", "0",
            "--store", str(tmp_path / "store"),
        ])
        assert code == 130
        assert "interrupted" in capsys.readouterr().out


class TestStatusJson:
    def test_status_json_is_stable_sorted_and_has_progress(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        # Two campaigns so the sort order is observable.
        assert main(["campaign", "run", *MC_ARGS, "--store", store]) == 0
        assert main([
            "campaign", "run", "--kind", "mc", "--estimator",
            "incompleteness", "--n", "30", "--p", "0.3",
            "--trials", "8000", "--chunks", "4", "--store", store,
        ]) == 0
        capsys.readouterr()
        assert main([
            "campaign", "status", "--store", store, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["store"] == store
        ids = [info["id"] for info in payload["campaigns"]]
        assert len(ids) == 2 and ids == sorted(ids)
        for info in payload["campaigns"]:
            assert info["complete"] is True
            progress = info["progress"]
            # Finished campaigns report drained ETA and their final rate.
            assert progress["eta_s"] == 0.0
            assert progress["replications_done"] >= 1
            assert progress["reps_per_s"] is None \
                or progress["reps_per_s"] >= 0.0

    def test_status_json_single_id_filter(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", *MC_ARGS, "--store", store]) == 0
        out = capsys.readouterr().out
        campaign_id = out.split()[1].rstrip(":")
        assert main([
            "campaign", "status", "--store", store,
            "--id", campaign_id, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [info["id"] for info in payload["campaigns"]] == [campaign_id]

    def test_status_table_shows_eta_column(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", *MC_ARGS, "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "eta_s" in out
