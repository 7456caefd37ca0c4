"""Tests for the experiment harness: figures, claims, runner, validation."""

import pytest

from repro.analysis.false_detection import p_false_detection
from repro.errors import ExperimentError
from repro.experiments.figures import (
    PAPER_CLAIMS,
    check_paper_claims,
    figure5_false_detection,
    figure6_false_detection_on_ch,
    figure7_incompleteness,
    render_figure,
)
from repro.experiments.reporting import render_ablation, render_claims
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.experiments.scenarios import (
    single_cluster_validation,
    validation_summary,
)


class TestFigures:
    def test_figure5_grid(self):
        series = figure5_false_detection()
        assert series.p_values == tuple(round(0.05 * i, 2) for i in range(1, 11))
        assert sorted(series.curves) == [50, 75, 100]
        assert series.value_at(50, 0.5) == pytest.approx(
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


class TestPaperClaims:
    def test_every_claim_passes(self):
        results = check_paper_claims()
        failing = [claim.claim_id for claim, ok in results if not ok]
        assert failing == []

    def test_claims_cover_all_three_figures(self):
        ids = " ".join(claim.claim_id for claim in PAPER_CLAIMS)
        assert "fig5" in ids and "fig6" in ids and "fig7" in ids

    def test_render_claims(self):
        text = render_claims()
        assert "PASS" in text and "FAIL" not in text


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
