"""The paper's evaluation as one gated table (``repro claims``).

The paper publishes plots, so what a reproduction can check is what its
prose says about Figures 2, 5, 6 and 7, and the protocol-level evidence
behind it: Monte Carlo twins, the real protocol in the loop, replication,
field scale, and one ablation per mechanism.  Each :class:`Claim` row's
``check()`` returns ``(measured, ok)``; every row is one seeded library
call, so its measured text repeats exactly, except the two wall-clock
rows (``array-engine-tenfold``, ``large-field-1e5-interactive``).  Rows
reading one experiment share a :func:`functools.cache`'d run that
returns plain numbers, never a whole run.
"""

from __future__ import annotations

import functools
import math
import textwrap
import time
from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Callable, List, Sequence, Tuple

from repro.analysis.ch_false_detection import (
    p_false_detection_on_ch,
    p_false_detection_on_ch_log10,
)
from repro.analysis.false_detection import (
    p_false_detection,
    p_false_detection_literal,
)
from repro.analysis.incompleteness import p_incompleteness
from repro.analysis.montecarlo import (
    mc_chunked,
    mc_false_detection,
    mc_false_detection_on_ch,
    mc_incompleteness,
)
from repro.analysis.sweep import PAPER_N_VALUES, PAPER_P_GRID
from repro.experiments import ablations
from repro.experiments.figures import FIG2_N_VALUES, figure2_dch_reachability
from repro.experiments.repeat import SeriesSummary, repeat_scenario
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.experiments.scenarios import single_cluster_validation
from repro.sim.trace import NullTracer
from repro.util.tables import format_cell, render_table


@dataclass(frozen=True)
class Claim:
    """One checkable statement; ``check()`` -> ``(measured, ok)``."""

    claim_id: str
    statement: str
    check: Callable[[], Tuple[str, bool]]


_ROWS: List[Claim] = []


def _claim(claim_id: str, statement: str):
    """Register the decorated check as the next row of :data:`CLAIMS`."""

    def register(check):
        _ROWS.append(Claim(claim_id, statement, check))
        return check

    return register


_f = format_cell


def _stats(s: SeriesSummary) -> str:
    return (f"{_f(s.mean)} (stderr {_f(s.stderr)}, "
            f"range [{_f(s.minimum)}, {_f(s.maximum)}])")


# Closed forms: Figures 2, 5, 6, 7 and the prose about them.  The checks
# look the measures up in this module's namespace when they run, so a
# planted bug patched in here reaches every closed-form row.


def _measures():
    return (p_false_detection, p_false_detection_on_ch, p_incompleteness)


def _curve(measure, n: int) -> List[float]:
    return [measure(n, p) for p in PAPER_P_GRID]


@_claim("fig2-dense-dch-reaches",
        "Fig 2: a DCH 40 m out hears out-of-range members at N>=50")
def _fig2_dense_dch_reaches():
    # "unless the node population density is low and the DCH's distance
    # from the original CH is big, with high probability a DCH will be
    # able to hear from an 'out-of-range' cluster member".
    at40 = dict(zip(FIG2_N_VALUES, figure2_dch_reachability()[40.0]))
    return (f"d=40: N=100 {_f(at40[100])}, N=50 {_f(at40[50])}",
            at40[100] < 1e-6 and at40[50] < 1e-2)


@_claim("fig2-sparse-far-corner",
        "Fig 2: low density and a far DCH is the bad corner")
def _fig2_sparse_far_corner():
    value = figure2_dch_reachability()[95.0][FIG2_N_VALUES.index(25)]
    return f"d=95, N=25: {_f(value)}", value > 0.05


@_claim("fig2-density-helps", "Fig 2: more density always helps the DCH")
def _fig2_density_helps():
    rows = figure2_dch_reachability().values()
    falling = sum(all(a > b for a, b in zip(r, r[1:])) for r in rows)
    return f"{falling} of {len(rows)} distances", falling == len(rows)


@_claim("fig5-high-density-small",
        "Fig 5: N=100/N=75 stay very small even at p=0.5")
def _fig5_high_density_small():
    # "if the cluster is densely or moderately densely populated (N = 100
    # or N = 75), the values ... are very small, even when p equals 0.5."
    n100, n75 = p_false_detection(100, 0.5), p_false_detection(75, 0.5)
    return f"N=100 {_f(n100)}, N=75 {_f(n75)}", n100 < 1e-4 and n75 < 1e-3


@_claim("fig5-n50-reasonable", "Fig 5: N=50 still very reasonable at p=0.5")
def _fig5_n50_reasonable():
    # "Even with ... N = 50, the results of the measure are still very
    # reasonable" -- the curve tops out well below 1e-2.
    value = p_false_detection(50, 0.5)
    return f"N=50 {_f(value)}", value < 1e-2


@_claim("fig5-axis-span", "Fig 5: curves lie inside the published axis span")
def _fig5_axis_span():
    curves = [_curve(p_false_detection, n) for n in PAPER_N_VALUES]
    low = min(c[0] for c in curves)
    high = max(c[-1] for c in curves)
    return (f"p=0.05 min {_f(low)}, p=0.5 max {_f(high)}",
            low > 1e-25 and high < 1.0)


@_claim("fig5-literal-form-agrees",
        "Fig 5: the paper's double sum equals the closed form")
def _fig5_literal_form():
    # The O(N^2) sum, term by term, at the heaviest grid point.
    literal = p_false_detection_literal(100, 0.5)
    gap = abs(literal - p_false_detection(100, 0.5))
    return (f"N=100 p=0.5: literal {_f(literal)}, gap {_f(gap)}",
            gap == 0.0 or gap < 1e-12 * literal)


@_claim("fig6-negligible-below-0.25",
        "Fig 6: practically negligible for p below 0.25")
def _fig6_negligible_below_quarter():
    # "the likelihood of such a false detection is practically negligible
    # or extremely low when p is below 0.25."
    worst = max(p_false_detection_on_ch(n, 0.20) for n in PAPER_N_VALUES)
    return f"max at p=0.2: {_f(worst)}", worst < 1e-20


@_claim("fig6-below-1e-6-at-n50", "Fig 6: below 1e-6 even at N=50, p=0.5")
def _fig6_below_1e6_at_n50():
    # "the value of this measure is still below 10^-6 even when N drops
    # to 50" (at p = 0.5).
    value = p_false_detection_on_ch(50, 0.5)
    return f"N=50 p=0.5: {_f(value)}", value < 1e-6


@_claim("fig6-log-domain-reaches-axis",
        "Fig 6: evaluated down to the axis floor (~1e-103)")
def _fig6_log_domain_reaches_axis():
    # The y-axis reaches 1e-120; the log-domain form covers the deepest
    # plotted point without underflow.
    value = p_false_detection_on_ch_log10(100, 0.05)
    return f"log10 at N=100 p=0.05: {value:.2f}", -120.0 < value < -90.0


@_claim("ch-more-likely-than-dch",
        "Fig 5 vs 6: the CH is more likely than the DCH to false-detect")
def _ch_more_likely_than_dch():
    # "it seems a bit surprising that the CH is more likely than the DCH
    # to make a false detection" -- P^(FD) > P(FDoCH) pointwise.
    points = [(n, p) for n in PAPER_N_VALUES for p in PAPER_P_GRID]
    held = sum(p_false_detection(n, p) > p_false_detection_on_ch(n, p)
               for n, p in points)
    return f"{held} of {len(points)} grid points", held == len(points)


@_claim("fig7-density-improves",
        "Fig 7: N 50 -> 100 decreases incompleteness significantly")
def _fig7_density_improves():
    # "when N increases from 50 to 100, P^(Incompleteness) decreases
    # significantly" -- at least an order-of-magnitude win everywhere on
    # the grid, growing to many orders of magnitude at low p.
    n50, n100 = _curve(p_incompleteness, 50), _curve(p_incompleteness, 100)
    ratios = [a / b for a, b in zip(n100, n50)]
    return (f"N=100/N=50 max {_f(max(ratios))}, at p=0.05 {_f(ratios[0])}",
            all(a < b * 0.15 for a, b in zip(n100, n50))
            and n100[0] < n50[0] * 1e-6)


@_claim("fig7-sensitivity-grows-with-n",
        "Figs 5-7: larger N makes measures more sensitive to p")
def _fig7_sensitivity_grows_with_n():
    # "P^(Incompleteness) becomes more sensitive to p when N becomes
    # larger" -- the curves span more decades as N grows.
    spans = [math.log10(c[-1]) - math.log10(c[0])
             for c in (_curve(p_incompleteness, n) for n in PAPER_N_VALUES)]
    return (f"decades N=50/75/100: {', '.join(_f(s) for s in spans)}",
            spans[2] > spans[1] > spans[0])


@_claim("fig7-below-raw-loss",
        "Fig 7: peer forwarding always beats the raw loss p")
def _fig7_below_raw_loss():
    pairs = [(p, v) for n in PAPER_N_VALUES
             for p, v in zip(PAPER_P_GRID, _curve(p_incompleteness, n))]
    return (f"max P^(Inc)/p: {_f(max(v / p for p, v in pairs))}",
            all(v < p for p, v in pairs))


@_claim("monotone-in-p", "All curves increase monotonically with p")
def _monotone_in_p():
    curves = [_curve(m, n) for m in _measures() for n in PAPER_N_VALUES]
    rising = sum(all(b > a for a, b in zip(c, c[1:])) for c in curves)
    return f"{rising} of {len(curves)} curves rising", rising == len(curves)


@_claim("monotone-in-n", "All measures decrease monotonically with N")
def _monotone_in_n():
    columns = [[m(n, p) for n in PAPER_N_VALUES]
               for m in _measures() for p in PAPER_P_GRID]
    falling = sum(all(b < a for a, b in zip(c, c[1:])) for c in columns)
    return (f"{falling} of {len(columns)} (measure, p) columns falling",
            falling == len(columns))


# Monte Carlo twins and the real protocol at the measurable corner


def _mc_in_ci(estimator, measure, n: int, seed: int):
    estimate = mc_chunked(estimator, n, 0.5, 120_000, seed=seed, chunks=8)
    analytic = measure(n, 0.5)
    low, high = estimate.interval()
    return (f"analytic {_f(analytic)}, MC {_f(estimate.estimate)}, "
            f"99% CI [{_f(low)}, {_f(high)}]", estimate.contains(analytic))


@_claim("mc-false-detection-in-ci",
        "Fig 5 closed form inside its MC 99% CI (N=50, p=0.5)")
def _mc_false_detection():
    return _mc_in_ci(mc_false_detection, p_false_detection, 50, 11)


@_claim("mc-incompleteness-in-ci",
        "Fig 7 closed form inside its MC 99% CI (N=50, p=0.5)")
def _mc_incompleteness():
    return _mc_in_ci(mc_incompleteness, p_incompleteness, 50, 12)


@_claim("mc-ch-false-detection-in-ci",
        "Fig 6 closed form inside its MC 99% CI (N=10, p=0.5)")
def _mc_ch_false_detection():
    # N=10 keeps the conditional event measurable ((p(2-p))^(N-2) ~ 4e-2).
    return _mc_in_ci(mc_false_detection_on_ch, p_false_detection_on_ch, 10, 13)


@functools.cache
def _protocol_validation():
    return single_cluster_validation(n=50, p=0.5, executions=150, seed=7)


@_claim("protocol-incompleteness-in-ci",
        "Real protocol, one cluster (N=50, p=0.5): Fig 7 value in 99% CI")
def _protocol_incompleteness_in_ci():
    r = _protocol_validation()
    low, high = r.incompleteness_interval()
    return (f"measured {_f(r.incompleteness_rate)}, analytic "
            f"{_f(r.analytic_incompleteness)}, 99% CI [{_f(low)}, "
            f"{_f(high)}]", low <= r.analytic_incompleteness <= high)


@_claim("protocol-no-lasting-suspicion",
        "Real protocol, same run: at most 2 lasting false suspicions")
def _protocol_no_lasting_suspicion():
    r = _protocol_validation()
    low, high = r.false_detection_interval()
    e = r.executions
    return (f"{r.accuracy_violations_final} residual pair(s); "
            f"{r.false_detections} false detections (analytic "
            f"{_f(r.analytic_false_detection * e)}, 99% CI "
            f"[{_f(low * e)}, {_f(high * e)}])",
            r.accuracy_violations_final <= 2)


# Replication and scale (end-to-end scenarios)


@functools.cache
def _repeatability():
    config = ScenarioConfig(
        cluster_count=4, members_per_cluster=25, loss_probability=0.15,
        crash_count=2, executions=5,
    )
    return repeat_scenario(config, tuple(range(10))).metrics


@_claim("repeat-complete-every-seed",
        "4 clusters, 2 crashes, p=0.15: completeness 1 on 10 seeds")
def _repeat_complete():
    m = _repeatability()
    worst = m["mean_completeness"].minimum
    return (f"min {_f(worst)} over {m['nodes'].count} seeds; "
            f"{_f(m['nodes'].mean)} nodes, {_f(m['clusters'].mean)} "
            f"clusters, {_f(m['crashes'].mean)} crashes, latency "
            f"{_stats(m['mean_detection_latency'])}", worst == 1.0)


@_claim("repeat-accurate-every-seed",
        "Same 10 seeds: no lasting false suspicion on any")
def _repeat_accurate():
    violations = _repeatability()["accuracy_violations"]
    return f"max {_f(violations.maximum)}", violations.maximum == 0.0


@_claim("repeat-loss-tracks-config",
        "Same 10 seeds: observed loss within 0.01 of p=0.15")
def _repeat_loss_tracks_config():
    m = _repeatability()
    loss = m["observed_loss_rate"]
    return (f"mean {_stats(loss)} over {_stats(m['transmissions'])} "
            f"transmissions", abs(loss.mean - 0.15) < 0.01)


def _scale(engine: str, cluster_counts):
    # Locality: per-node cost does not grow with the field (within 30%),
    # and completeness holds at every size.
    nodes, costs, completeness = [], [], []
    for clusters in cluster_counts:
        s = run_scenario(ScenarioConfig(
            cluster_count=clusters, members_per_cluster=25,
            loss_probability=0.1, crash_count=1, executions=4, seed=17,
            engine=engine,
        )).summary()
        nodes.append(s["nodes"])
        costs.append(s["transmissions"] / s["nodes"] / 4)
        completeness.append(s["mean_completeness"])
    return (f"tx/node/execution {', '.join(map(_f, costs))} at "
            f"{', '.join(map(_f, nodes))} nodes; completeness "
            f"{', '.join(map(_f, completeness))}",
            max(costs) < 1.3 * min(costs)
            and all(c == 1.0 for c in completeness))


@_claim("scale-event-local",
        "Event engine, 2 to 9 clusters: per-node cost flat, complete")
def _scale_event():
    return _scale("event", (2, 4, 9))


@_claim("scale-array-local",
        "Array engine, 9 to 144 clusters: per-node cost flat, complete")
def _scale_array():
    return _scale("array", (9, 36, 144))


_FIELD_972 = ScenarioConfig(
    cluster_count=36, members_per_cluster=26, loss_probability=0.1,
    crash_count=4, executions=3, seed=1,
)


def _field(s) -> str:
    return (f"{_f(s['nodes'])} nodes, {_f(s['clusters'])} clusters, "
            f"{_f(s['crashes'])} crashes, completeness "
            f"{_f(s['mean_completeness'])}, violations "
            f"{_f(s['accuracy_violations'])}, latency "
            f"{_f(s['mean_detection_latency'])}")


@functools.cache
def _large_field_972():
    return run_scenario(_FIELD_972).summary()


@_claim("large-field-972-complete-accurate",
        "972 nodes, 4 crashes, p=0.1, 3 executions: complete, accurate")
def _large_field_complete_accurate():
    s = _large_field_972()
    return _field(s), (s["nodes"] > 900 and s["mean_completeness"] == 1.0
                       and s["accuracy_violations"] == 0)


@_claim("large-field-972-local-cost",
        "972 nodes: under 3.5 transmissions per node per execution")
def _large_field_local_cost():
    # The same per-node cost as the small fields of the scale rows.
    s = _large_field_972()
    cost = s["transmissions"] / s["nodes"] / 3
    return (f"{_f(s['transmissions'])} transmissions (loss "
            f"{_f(s['observed_loss_rate'])}): {_f(cost)} per node per "
            f"execution", cost < 3.5)


@functools.cache
def _engine_pair_972():
    runs = []
    for engine in ("event", "array"):
        start = time.perf_counter()
        result = run_scenario(replace(_FIELD_972, engine=engine),
                              tracer=NullTracer())
        runs.append((result.summary(), time.perf_counter() - start))
    return tuple(runs)


@_claim("array-engine-tenfold",
        "972 nodes: the array engine is >= 10x faster than event")
def _array_tenfold():
    (_e, event_s), (_a, array_s) = _engine_pair_972()
    return (f"event {event_s:.3f} s, array {array_s:.3f} s: "
            f"{event_s / array_s:.1f}x", event_s / array_s >= 10.0)


@_claim("array-engine-agrees-972",
        "972 nodes: both engines complete, the array engine accurate")
def _engines_agree_972():
    (event, _e), (array, _a) = _engine_pair_972()
    return (f"completeness event {_f(event['mean_completeness'])}, array "
            f"{_f(array['mean_completeness'])}; violations event "
            f"{_f(event['accuracy_violations'])}, array "
            f"{_f(array['accuracy_violations'])}",
            event["mean_completeness"] == 1.0
            and array["mean_completeness"] == 1.0
            and array["accuracy_violations"] == 0)


@functools.cache
def _large_field_1e5():
    # 3448 clusters of 28 members: the paper's ~30-node cluster regime,
    # a field the event engine would take tens of minutes to run.
    start = time.perf_counter()
    result = run_scenario(ScenarioConfig(
        cluster_count=3448, members_per_cluster=28, loss_probability=0.1,
        crash_count=4, executions=3, seed=1, engine="array",
    ), tracer=NullTracer())
    elapsed = time.perf_counter() - start
    return result.summary(), elapsed


@_claim("large-field-1e5-complete",
        "99 992 nodes (array engine): completeness above 0.999")
def _large_field_1e5_complete():
    s, _elapsed = _large_field_1e5()
    return (f"{_field(s)}, {_f(s['transmissions'])} transmissions, loss "
            f"{_f(s['observed_loss_rate'])}",
            s["nodes"] > 99_000 and s["mean_completeness"] > 0.999)


@_claim("large-field-1e5-interactive",
        "99 992 nodes (array engine) run in under 60 s")
def _large_field_1e5_interactive():
    _s, elapsed = _large_field_1e5()
    return f"{elapsed:.2f} s", elapsed < 60.0


@_claim("large-field-1e6-complete",
        "999 978 nodes, 2 crashes, 3 executions: completeness > 0.999")
def _large_field_1e6_complete():
    # Crash news crosses ~34k cluster boundaries at p=0.1 in two
    # spreading executions; a handful of straggler observers out of a
    # million is the lossy steady state, not a detection failure.
    s = run_scenario(ScenarioConfig(
        cluster_count=34_482, members_per_cluster=28, loss_probability=0.1,
        crash_count=2, executions=3, seed=1, engine="array",
    ), tracer=NullTracer()).summary()
    nodes = int(s["nodes"])
    return (f"{nodes} nodes, completeness {_f(s['mean_completeness'])}, "
            f"{int(s['transmissions'])} transmissions",
            nodes > 990_000 and s["mean_completeness"] > 0.999)


# Ablations: what each mechanism buys


def _ablation_rows(result) -> str:
    """Every number an ablation measured, configuration by configuration."""
    return "; ".join(
        f"{row.label}: "
        + ", ".join(f"{k} {_f(v)}" for k, v in row.metrics.items())
        for row in result.rows
    )


@_claim("ablation-digest", "Digest round R-2 cuts false detections over 10x")
def _ablation_digest():
    r = ablations.ablation_digest(n=40, p=0.3, executions=40, seed=0)
    key = "rate_per_member_execution"
    return _ablation_rows(r), (r.metric("with-digests", key)
                               < r.metric("without-digests", key) / 10)


@_claim("ablation-peer-forwarding",
        "Peer forwarding cuts missed R-3 updates over 5x")
def _ablation_peer_forwarding():
    r = ablations.ablation_peer_forwarding(n=40, p=0.3, executions=40, seed=0)
    key = "rate_per_member_execution"
    return _ablation_rows(r), (r.metric("with-peer-forwarding", key)
                               < r.metric("without-peer-forwarding", key) / 5)


@_claim("ablation-dch", "A DCH keeps the cluster served after its CH crashes")
def _ablation_dch():
    r = ablations.ablation_dch(n=30, p=0.15, executions=6, seed=0)
    key = "served_in_last_execution"
    return _ablation_rows(r), (r.metric("with-dch", key) > 0.9
                               and r.metric("without-dch", key) == 0.0)


@_claim("ablation-bgw",
        "Two BGW backups deliver across a boundary no worse than none")
def _ablation_bgw():
    r = ablations.ablation_bgw_count(p=0.45, trials=8, seed=0)
    key = "mean_cross_boundary_knowledge"
    return _ablation_rows(r), (r.metric("backups=2", key)
                               >= r.metric("backups=0", key))


@_claim("ablation-implicit-ack",
        "Implicit acks deliver across a boundary no worse than without")
def _ablation_implicit_ack():
    r = ablations.ablation_implicit_ack(p=0.45, trials=8, seed=0)
    key = "mean_cross_boundary_knowledge"
    return _ablation_rows(r), (r.metric("with-implicit-ack", key)
                               >= r.metric("without-implicit-ack", key))


@_claim("loss-model-bursty-complete",
        "Bursty loss at iid's mean rate (0.2) keeps completeness 1")
def _loss_model_bursty_complete():
    r = ablations.ablation_loss_model()
    return _ablation_rows(r), all(
        row.metrics["crash_completeness"] == 1.0 for row in r.rows)


#: Every row, in table order.
CLAIMS: Tuple[Claim, ...] = tuple(_ROWS)


def evaluate_claims(
    claims: Sequence[Claim] | None = None,
) -> List[Tuple[Claim, str, bool]]:
    """Run each row (default: all of :data:`CLAIMS`) in order."""
    rows = CLAIMS if claims is None else claims
    return [(claim, *claim.check()) for claim in rows]


def render_claims(results: Sequence[Tuple[Claim, str, bool]]) -> str:
    """The evaluated rows as one table; long cells wrap onto extra lines."""
    rows = []
    for claim, measured, ok in results:
        lines = zip_longest(
            textwrap.wrap(claim.statement, 44),
            textwrap.wrap(measured, 52, break_on_hyphens=False),
            fillvalue="",
        )
        for i, (statement, value) in enumerate(lines):
            status = ("PASS" if ok else "FAIL") if i == 0 else ""
            rows.append([claim.claim_id if i == 0 else "", statement, value,
                         status])
    passed = sum(ok for _claim, _measured, ok in results)
    return render_table(
        ["claim", "statement", "measured", "status"], rows,
        title=f"paper evaluation claims: {passed} of {len(results)} pass",
    )
