#!/usr/bin/env python3
"""Loss-resilience study: regenerate the paper's evaluation and extend it.

Prints the three figures of Section 5 as tables (the same curves, as
numbers), checks every quantitative claim the paper's text makes about
them, cross-validates the closed forms against Monte Carlo and against the
real protocol running in the simulator, and finishes with two ablations
showing *why* the redundancy mechanisms matter.

Run:  python examples/loss_resilience_study.py            (full, ~1 min)
      python examples/loss_resilience_study.py --fast     (analytic only)
"""

import sys

import numpy as np

from repro.analysis.montecarlo import mc_false_detection, mc_incompleteness
from repro.experiments.ablations import (
    ablation_digest,
    ablation_peer_forwarding,
    render_ablation,
)
from repro.experiments.claims import CLAIMS, evaluate_claims, render_claims
from repro.experiments.figures import (
    figure5_false_detection,
    figure6_false_detection_on_ch,
    figure7_incompleteness,
    render_figure,
)
from repro.experiments.scenarios import (
    single_cluster_validation,
    validation_summary,
)


def main(fast: bool) -> None:
    # 1. The three figures, as tables.
    for series, title in (
        (figure5_false_detection(), "Figure 5: P^(False detection)"),
        (figure6_false_detection_on_ch(), "Figure 6: P(False detection on CH)"),
        (figure7_incompleteness(), "Figure 7: P^(Incompleteness)"),
    ):
        print(render_figure(series, title))
        print()

    # 2. The paper's textual claims about those figures (the closed-form
    #    rows of the claims table; ``repro claims`` runs all of them).
    figure_rows = [c for c in CLAIMS
                   if c.claim_id.startswith(("fig", "ch-", "monotone-"))]
    print(render_claims(evaluate_claims(figure_rows)))
    print()

    # 3. Monte Carlo cross-check at a measurable corner (N=50, p=0.5).
    rng = np.random.default_rng(0)
    mc_fd = mc_false_detection(50, 0.5, trials=200_000, rng=rng)
    mc_inc = mc_incompleteness(50, 0.5, trials=200_000, rng=rng)
    print("Monte Carlo cross-check (N=50, p=0.5):")
    print(f"  false detection : mc={mc_fd.estimate:.3e}  "
          f"ci={tuple(round(x, 6) for x in mc_fd.interval())}")
    print(f"  incompleteness  : mc={mc_inc.estimate:.3e}  "
          f"ci={tuple(round(x, 6) for x in mc_inc.interval())}")
    print()

    if fast:
        print("(--fast: skipping protocol-in-the-loop and ablations)")
        return

    # 4. The real protocol in the loop.
    result = single_cluster_validation(n=50, p=0.5, executions=200, seed=3)
    summary = validation_summary(result)
    print("Protocol-in-the-loop (real FDS, N=50, p=0.5, 200 executions):")
    print(f"  incompleteness  : measured={summary['inc_rate_measured']:.4f}  "
          f"analytic={summary['inc_rate_analytic']:.4f}  "
          f"ci=({summary['inc_ci_low']:.4f}, {summary['inc_ci_high']:.4f})")
    print(f"  false detections: {result.false_detections} events "
          f"(analytic expectation "
          f"{result.analytic_false_detection * result.executions:.2f})")
    print(f"  residual accuracy violations: "
          f"{result.accuracy_violations_final}")
    print()

    # 5. Ablations: what each mechanism buys.
    print(render_ablation(ablation_digest(n=40, p=0.3, executions=40)))
    print()
    print(render_ablation(ablation_peer_forwarding(n=40, p=0.3, executions=40)))


if __name__ == "__main__":
    main(fast="--fast" in sys.argv[1:])
