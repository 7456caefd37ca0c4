"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "Figure 7" in out
        assert "N=100" in out

    def test_claims_pass(self, capsys):
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_validate_fast(self, capsys):
        assert main(["validate", "--n", "30", "--p", "0.5",
                     "--trials", "20000"]) == 0
        out = capsys.readouterr().out
        assert "in-CI=True" in out

    def test_scenario(self, tmp_path, capsys):
        """Spooling the trace must not change the report (it used to zero
        ``mean_detection_latency``: the result held no records and did
        not look at its own spool)."""
        argv = ["scenario", "--clusters", "3", "--members", "12",
                "--crashes", "2", "--executions", "4", "--seed", "9"]
        assert main(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(argv + ["--trace-out", str(tmp_path / "t.jsonl")]) == 0
        assert capsys.readouterr().out.splitlines()[:8] == plain
        assert plain[3].split() == ["mean_completeness", "1"]
        assert plain[7].split() == ["mean_detection_latency", "13"]

    def test_scenario_protocol_formation_both_engines(self, capsys):
        """The formation knobs ride the CLI into both engines, and under
        lossless channels the two reports are identical.  (The raw
        transmission count is excluded: a mid-round crash silences an
        event-engine node partway through an execution, while the array
        engine quantizes aliveness to whole executions -- one message of
        slack, crash runs only.)"""
        outs = []
        for engine in ("event", "array"):
            code = main([
                "scenario", "--engine", engine,
                "--formation", "protocol",
                "--formation-iterations", "2",
                "--formation-backoff", "0.3",
                "--clusters", "2", "--members", "8", "--p", "0",
                "--executions", "3", "--crashes", "1", "--seed", "5",
            ])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert "mean_completeness" in outs[0]

        def comparable(out):
            return [line for line in out.splitlines()
                    if "transmissions" not in line]

        assert comparable(outs[0]) == comparable(outs[1])

    def test_three_commands_build_one_scenario(self, monkeypatch):
        """``scenario``, ``campaign run`` and ``rt run`` read their flags
        through one ``config_from_args``."""
        from repro.experiments.runner import ScenarioConfig
        from repro.rt.runtime import RtScenario

        seen = []

        def capture(config, *_args, **_kwargs):
            seen.append(config)
            raise KeyboardInterrupt  # main's quickest way out: exit 130

        monkeypatch.setattr("repro.experiments.runner.run_scenario", capture)
        monkeypatch.setattr("repro.campaign.cli.scenario_repeat_plan", capture)
        monkeypatch.setattr("repro.rt.runtime.run_rt_scenario", capture)
        flags = ["--clusters", "3", "--members", "9", "--crashes", "1",
                 "--executions", "4"]
        for command in (["scenario"], ["rt", "run"],
                        ["campaign", "run", "--kind", "scenario"]):
            assert main(command + flags) == 130
        sized = dict(
            cluster_count=3, members_per_cluster=9, crash_count=1, executions=4
        )
        assert seen == [
            ScenarioConfig(**sized), RtScenario(**sized), ScenarioConfig(**sized)
        ]

    def test_reachability(self, capsys):
        assert main(["reachability", "--p", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "dch_distance" in out

    def test_unknown_command_exits(self):
        for command in ("not-a-command", "bench"):  # bench: retired
            with pytest.raises(SystemExit):
                main([command])

    def test_soak_serial_flag_is_gone(self, capsys):
        # The pair it skipped no longer exists; a stale CI invocation
        # must fail loudly rather than be ignored.
        with pytest.raises(SystemExit) as exit_info:
            main(["soak", "--iterations", "1", "--serial"])
        assert exit_info.value.code == 2
        assert "--serial" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scenario", "--clusters", "2", "--members", "5", "--crashes", "50"],
        ["scenario", "--formation-backoff", "2"],
        ["scenario", "--engine", "array", "--clusters", "0", "--crashes", "0"],
        ["scenario", "--engine", "array", "--members", "0", "--crashes", "0"],
        ["rt", "run", "--crashes", "40", "--members", "4"],
    ])
    def test_invalid_input_is_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.out + captured.err


class TestTraceCli:
    @pytest.fixture(scope="class")
    def spool(self, tmp_path_factory):
        """One profiled scenario spooled through the real CLI."""
        path = tmp_path_factory.mktemp("trace") / "run.jsonl.gz"
        code = main([
            "scenario", "--clusters", "2", "--members", "12",
            "--executions", "4", "--crashes", "1", "--seed", "5",
            "--trace-out", str(path), "--profile",
        ])
        assert code == 0
        return path

    def test_scenario_reports_spool_and_phases(self, spool, capsys):
        main(["trace", "summarize", str(spool)])
        out = capsys.readouterr().out
        assert "Record kinds" in out
        assert "Phase time shares" in out
        assert "radio.transmit" in out
        assert "Detection latency" in out

    def test_summarize_json_and_metrics_out(self, spool, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        assert main([
            "trace", "summarize", str(spool), "--json",
            "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        import json as json_mod

        payload = json_mod.loads(out[:out.rindex("}") + 1])
        assert payload["meta"]["nodes"] > 0
        assert payload["phases"]
        text = metrics.read_text(encoding="utf-8")
        assert "# TYPE repro_detection_latency_phi histogram" in text
        assert 'repro_detection_latency_phi_bucket{le="+Inf"}' in text

    def test_latency(self, spool, capsys):
        assert main(["trace", "latency", str(spool)]) == 0
        out = capsys.readouterr().out
        assert "latency (phi)" in out

    def test_timeline(self, spool, capsys):
        assert main(["trace", "timeline", str(spool)]) == 0
        assert "Events per" in capsys.readouterr().out

    def test_lineage_detected_exit_zero(self, spool, capsys):
        from repro.obs.spool import read_spool

        crash = read_spool(spool, kinds=("sim.crash",))[0]
        assert main(["trace", "lineage", str(spool), str(crash.node)]) == 0
        out = capsys.readouterr().out
        assert "sim.crash" in out and "fds.detection" in out

    def test_lineage_unknown_node_exit_one(self, spool, capsys):
        assert main(["trace", "lineage", str(spool), "99999"]) == 1
        assert "error:" in capsys.readouterr().out

    def test_missing_spool_is_an_error(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "no.jsonl")]) == 1
        assert "error:" in capsys.readouterr().out

    def test_lines_that_are_not_records_are_skipped(self, tmp_path, capsys):
        from tests.spool_helpers import write_hostile_spool

        path = tmp_path / "hostile.jsonl"
        write_hostile_spool(path)
        assert main(["trace", "summarize", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("3 record(s)")
        assert "Traceback" not in captured.out + captured.err
