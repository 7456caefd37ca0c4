"""Differential conformance harness: clean stacks check clean, and each
historical forwarding bug, when deliberately reintroduced, is caught and
shrunk to a seeded pytest repro.

The mutants reproduce the exact pre-fix logic of
``InterclusterForwarder`` (plus the current tracing, which the fixes did
not change semantically) so the harness is graded against the real bugs,
not strawmen.
"""

import unittest.mock as mock

import numpy as np
import pytest

from repro.audit.differential import (
    check_spec,
    probe_forwarder_conformance,
    random_spec,
    repro_snippet,
    shrink_spec,
    trace_fingerprint,
)
from repro.audit.soak import SoakOptions, run_soak, soak_iteration
from repro.experiments.runner import (
    ScenarioConfig,
    run_scenario,
    scenario_config,
)
from repro.fds import events as ev
from repro.fds.intercluster import InterclusterForwarder
from tests.scalar_medium import ScalarRadioMedium, scalar_medium_installed


# ----------------------------------------------------------------------
# The three pre-fix behaviours, as monkeypatchable mutants
# ----------------------------------------------------------------------
def _mutant_arm_clobbers(self, dest, delay, failures, origin, standby=False):
    existing = self._timers.get(dest)
    if existing is not None:
        existing.stop()
    self._armed_failures[dest] = failures
    self._trace(
        ev.INTER_ARM,
        dest=int(dest),
        origin=int(origin),
        delay=delay,
        failures=self._ids(failures),
        standby=standby,
    )

    def expire():
        self._on_timeout(dest, failures, origin, standby)

    self._timers[dest] = self._node.timers.after(
        delay, expire, label="fds.intercluster_wait"
    )


def _mutant_superset_ack(self, report):
    if self._origin_timer is None:
        return
    self._trace(ev.ORIGIN_COVERED, covered=self._ids(report.failures))
    if report.failures >= self._origin_pending:
        self._origin_timer.stop()
        self._origin_timer = None


def _mutant_backup_max(self, dest, origin):
    if dest in self.duties:
        return self.duties[dest][1]
    return max((n for _r, n in self.duties.values()), default=0)


MUTANTS = {
    "arm-clobbers-watch": ("_arm", _mutant_arm_clobbers),
    "origin-superset-ack": ("on_overheard_report", _mutant_superset_ack),
    "backup-count-max": ("_backup_count_for", _mutant_backup_max),
}


class TestCleanStackChecksClean:
    def test_default_spec_has_no_violations(self):
        assert check_spec(scenario_config(seed=7, loss_kind="bounded")) == []

    def test_seed_1342382291_no_digests_pair_clean(self):
        """Permanent regression repro: soak seed 7 at defaults sampled
        this spec, whose digest-free ablation pair flagged
        ``audit:round-structure`` transmissions past the active window
        (offset 18.397 > 17.500).  Two fixes keep it clean: stale
        hearsay in forwarded reports no longer re-poisons a CH that
        heard the target's heartbeat, and the round-structure audit
        abstains for digest-free forwarding configs whose conformant
        cascades legitimately chain ladder generations."""
        spec = scenario_config(
            seed=1342382291,
            cluster_count=4,
            members_per_cluster=16,
            crash_count=2,
            executions=7,
            loss_kind="bernoulli",
            loss_p=0.35,
            loss_budget=1,
            spacing_factor=1.25,
            max_backups=1,
        )
        assert check_spec(spec) == []

    def test_random_specs_have_no_violations(self):
        rng = np.random.default_rng(1234)
        for _ in range(3):
            spec = random_spec(rng)
            assert check_spec(spec) == [], spec

    def test_probes_clean_on_fixed_code(self):
        assert probe_forwarder_conformance(scenario_config(seed=3)) == []


class TestDifferentialPairs:
    def test_vectorized_scalar_bit_identical(self):
        spec = scenario_config(seed=11, loss_kind="bernoulli", loss_p=0.25)
        a = run_scenario(spec)
        with scalar_medium_installed():
            b = run_scenario(spec)
        assert isinstance(b.network.medium, ScalarRadioMedium)
        assert trace_fingerprint(a.tracer) == trace_fingerprint(b.tracer)

    def test_fingerprint_distinguishes_seeds(self):
        a = run_scenario(scenario_config(seed=1))
        b = run_scenario(scenario_config(seed=2))
        assert trace_fingerprint(a.tracer) != trace_fingerprint(b.tracer)


class TestMutationsCaughtAndShrunk:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_yields_shrunk_seeded_repro(self, name):
        attr, fn = MUTANTS[name]
        spec = scenario_config(seed=7, loss_kind="bounded")
        with mock.patch.object(InterclusterForwarder, attr, fn):
            failure = soak_iteration(spec, max_shrink_evals=16)
            assert failure is not None, f"mutant {name} was not caught"
            assert failure.violations
            # The shrunk spec still reproduces under the mutant ...
            assert check_spec(failure.shrunk)
        # ... the snippet is a valid, ready-to-paste pytest module ...
        compile(failure.snippet, "<repro>", "exec")
        assert "ScenarioConfig(" in failure.snippet
        assert f"seed={failure.shrunk.seed}" in failure.snippet
        # ... and names the violation it reproduces.
        assert failure.violations[0].kind in failure.snippet

    def test_backup_count_mutant_caught_end_to_end(self):
        # The trace audit (not just the directed probe) catches the
        # wrong-ladder bug in a real multi-boundary scenario.
        from repro.audit.invariants import audit_forwarder_conformance

        attr, fn = MUTANTS["backup-count-max"]
        cfg = scenario_config(
            cluster_count=4,
            members_per_cluster=16,
            crash_count=3,
            executions=5,
            seed=18,
            loss_kind="bernoulli",
            loss_p=0.25,
            max_backups=3,
        )
        with mock.patch.object(InterclusterForwarder, attr, fn):
            result = run_scenario(cfg)
            findings = audit_forwarder_conformance(result.tracer, cfg.fds)
        assert findings
        assert "ladder" in findings[0].description


class TestShrinking:
    def test_shrink_respects_floors(self):
        spec = scenario_config(
            seed=1,
            cluster_count=4,
            members_per_cluster=16,
            crash_count=3,
            executions=7,
            loss_kind="bounded",
        )
        small = shrink_spec(spec, still_fails=lambda s: True, max_evals=64)
        assert small.cluster_count == 2
        assert small.members_per_cluster == 4
        assert small.crash_count == 0
        assert small.executions == 3
        assert small.loss_kind == "perfect"

    def test_shrink_keeps_spec_when_nothing_simpler_fails(self):
        spec = scenario_config(seed=1)
        assert shrink_spec(spec, still_fails=lambda s: False) == spec


class TestSoakLoop:
    def test_bounded_soak_runs_clean(self, tmp_path):
        result = run_soak(
            SoakOptions(iterations=2, seed=9, out_dir=tmp_path)
        )
        assert result.clean
        assert result.iterations == 2
        assert list(tmp_path.iterdir()) == []

    def test_violations_written_as_repro_files(self, tmp_path):
        attr, fn = MUTANTS["origin-superset-ack"]
        with mock.patch.object(InterclusterForwarder, attr, fn):
            result = run_soak(
                SoakOptions(
                    iterations=4,
                    seed=9,
                    out_dir=tmp_path,
                    max_shrink_evals=8,
                )
            )
        assert not result.clean
        failure = result.failures[0]
        assert failure.repro_path is not None and failure.repro_path.exists()
        content = failure.repro_path.read_text(encoding="utf-8")
        compile(content, str(failure.repro_path), "exec")
        assert "check_spec" in content


class TestScenarioConfigLossSpec:
    def test_unknown_loss_kind_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            ScenarioConfig(loss_kind="quantum")

    def test_bounded_kind_threads_through(self):
        cfg = ScenarioConfig(
            cluster_count=2,
            members_per_cluster=8,
            crash_count=1,
            executions=4,
            loss_kind="bounded",
            loss_params=(("p", 0.3), ("budget", 2.0)),
        )
        result = run_scenario(cfg)
        assert result.network.medium.loss_model.budget == 2
        assert result.messages.losses <= 2
