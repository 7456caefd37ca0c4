"""Tests for the experiment harness: figures, claims, runner, validation."""

import pytest

from repro.analysis.false_detection import p_false_detection
from repro.errors import ExperimentError
from repro.experiments import claims
from repro.experiments.ablations import render_ablation
from repro.experiments.figures import (
    figure5_false_detection,
    figure6_false_detection_on_ch,
    figure7_incompleteness,
    render_figure,
)
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.fds.config import FdsConfig
from repro.experiments.scenarios import (
    single_cluster_validation,
    validation_summary,
)


class TestFigures:
    def test_figure5_grid(self):
        series = figure5_false_detection()
        assert series.p_values == tuple(round(0.05 * i, 2) for i in range(1, 11))
        assert sorted(series.curves) == [50, 75, 100]
        assert series.curves[50][-1] == pytest.approx(
            p_false_detection(50, 0.5)
        )

    def test_figure6_and_7_produce_positive_curves(self):
        for series in (figure6_false_detection_on_ch(), figure7_incompleteness()):
            for curve in series.curves.values():
                assert all(v >= 0 for v in curve)
                assert curve[-1] > 0

    def test_render_figure_contains_all_columns(self):
        text = render_figure(figure5_false_detection(), "Figure 5")
        assert "Figure 5" in text
        assert "N=50" in text and "N=100" in text
        assert len(text.splitlines()) == 13  # title + header + rule + 10 rows


#: The rows that were the paper-claims checklist before the registry.
PAPER_CLAIM_IDS = (
    "fig5-high-density-small",
    "fig5-n50-reasonable",
    "fig6-negligible-below-0.25",
    "fig6-below-1e-6-at-n50",
    "ch-more-likely-than-dch",
    "fig7-density-improves",
    "fig7-sensitivity-grows-with-n",
    "monotone-in-p",
    "monotone-in-n",
)

#: Every closed-form row: milliseconds each, so tier-1 runs them; the
#: simulation rows are the ``repro claims`` CI step's.
CLOSED_FORM_IDS = PAPER_CLAIM_IDS + (
    "fig2-dense-dch-reaches",
    "fig2-sparse-far-corner",
    "fig2-density-helps",
    "fig5-axis-span",
    "fig5-literal-form-agrees",
    "fig6-log-domain-reaches-axis",
    "fig7-below-raw-loss",
)


def _evaluate(ids):
    rows = [c for c in claims.CLAIMS if c.claim_id in ids]
    assert len(rows) == len(ids)
    return {claim.claim_id: ok for claim, _measured, ok in
            claims.evaluate_claims(rows)}


class TestClaimsRegistry:
    def test_claim_ids_are_unique(self):
        ids = [claim.claim_id for claim in claims.CLAIMS]
        assert len(ids) == len(set(ids))

    def test_closed_form_rows_pass(self):
        verdicts = _evaluate(CLOSED_FORM_IDS)
        assert [i for i, ok in verdicts.items() if not ok] == []

    def test_claims_cover_all_four_figures(self):
        ids = " ".join(claim.claim_id for claim in claims.CLAIMS)
        assert all(f"fig{n}" in ids for n in (2, 5, 6, 7))

    def test_render_claims(self):
        rows = [c for c in claims.CLAIMS if c.claim_id in PAPER_CLAIM_IDS]
        text = claims.render_claims(claims.evaluate_claims(rows))
        assert text.splitlines()[1].split() == [
            "claim", "statement", "measured", "status"
        ]
        assert "N=50 p=0.5: 1.2585e-07" in text  # Fig 6 at its claim
        assert "PASS" in text and "FAIL" not in text

    def test_planted_bug_fails_its_rows(self, monkeypatch):
        """The gate gates: a wrong Fig 5 measure fails every fig5 row."""
        fig5 = [c.claim_id for c in claims.CLAIMS
                if c.claim_id.startswith("fig5-")]
        monkeypatch.setattr(claims, "p_false_detection", lambda n, p: 1.0)
        verdicts = _evaluate(CLOSED_FORM_IDS)
        assert len(fig5) == 4
        assert not any(verdicts[i] for i in fig5)
        # 1.0 still exceeds P(FDoCH); a measure that falls below it
        # flips the CH-vs-DCH comparison.
        assert verdicts["ch-more-likely-than-dch"]
        monkeypatch.setattr(claims, "p_false_detection", lambda n, p: 0.0)
        assert not _evaluate(("ch-more-likely-than-dch",))[
            "ch-more-likely-than-dch"]


class TestScenarioRunner:
    def test_protocol_formation_scenario(self):
        config = ScenarioConfig(
            cluster_count=2,
            members_per_cluster=15,
            loss_probability=0.05,
            crash_count=1,
            executions=3,
            seed=6,
            formation="protocol",
        )
        result = run_scenario(config)
        assert len(result.layout.clusters) >= 1
        assert result.properties.mean_completeness > 0.5

    def test_invalid_config(self):
        with pytest.raises(ExperimentError):
            ScenarioConfig(formation="magic")
        with pytest.raises(ExperimentError):
            ScenarioConfig(crash_count=-1)
        # A bad loss spec is refused before any engine starts -- the
        # array engine used to run these (p=1.5 as 100 % loss, the typos
        # ignored) while the event engine raised three different errors.
        for engine in ("event", "array"):
            for kind, params in (
                ("bernoulli", (("p", 1.5),)),
                ("bernoulli", (("p_typo", 0.5),)),
                ("gilbert", (("p_goood", 0.5),)),
                ("quantum", ()),
            ):
                with pytest.raises(ExperimentError):
                    ScenarioConfig(
                        engine=engine, loss_kind=kind, loss_params=params
                    )


    def test_crash_schedule_inside_an_execution_window(self):
        # phi=4, thop=0.5: a crash lands 0.6*phi = 2.4 s into the
        # interval, inside the 2.5 s execution window.  Refused before any
        # engine starts; the event engine used to raise mid-run and the
        # array engine to crash the node inside the window.
        fds = FdsConfig(phi=4.0, thop=0.5)
        for engine in ("event", "array", "rt"):
            config = dict(
                cluster_count=1, members_per_cluster=20, loss_probability=0.0,
                executions=3, seed=1, fds=fds, engine=engine,
            )
            with pytest.raises(ExperimentError, match="execution window"):
                run_scenario(ScenarioConfig(crash_count=1, **config))
            ScenarioConfig(crash_count=0, **config)
            ScenarioConfig(
                crash_count=1, **{**config, "fds": FdsConfig(phi=5.0)}
            )


class TestValidation:
    def test_single_cluster_validation_matches_analytics(self):
        result = single_cluster_validation(n=40, p=0.5, executions=120, seed=2)
        # The analytic incompleteness must fall inside the run's 99% CI.
        low, high = result.incompleteness_interval()
        assert low <= result.analytic_incompleteness <= high
        summary = validation_summary(result)
        assert summary["N"] == 40.0
        assert summary["inc_ci_low"] == pytest.approx(low)

    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ExperimentError):
            single_cluster_validation(n=2)


class TestAblationRendering:
    def test_render_ablation_table(self):
        from repro.experiments.ablations import AblationResult, AblationRow

        result = AblationResult(
            name="demo",
            rows=(
                AblationRow("on", {"x": 1.0}),
                AblationRow("off", {"x": 2.0}),
            ),
        )
        text = render_ablation(result)
        assert "demo" in text and "on" in text and "off" in text
        assert result.metric("on", "x") == 1.0
        with pytest.raises(KeyError):
            result.metric("missing", "x")
