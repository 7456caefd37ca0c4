"""Differential conformance checking of whole scenario runs.

One seeded :class:`~repro.experiments.runner.ScenarioConfig` describes a
complete experiment (topology, crash schedule, loss model).
:func:`check_spec` runs it under paired configurations and asserts what
each pair promises:

- **digest ablation (R-2 off)**: no bit-identity promise -- instead both
  runs must satisfy every applicable trace audit;
- **event vs array engine**: :func:`engine_pair_violations` with a zero
  tolerance (the same check, with a wall-clock band, is the sim-vs-real
  differential of :mod:`repro.audit.realnet`), plus the array energy
  ledger equal to a scalar replay (:func:`energy_ledger_violations`);
- **distributed formation**: over perfect links both engines converge to
  the same clustering and verdict records; under the spec's own loss the
  array outcome satisfies the layout shape invariants
  (:func:`formation_violations`);

plus ground-truth oracles on the primary run:

- **completeness**: under a loss model whose total drop budget is below
  the forwarding machinery's tolerance (``max_forward_retries`` drops can
  never exhaust the GW ladder *and* the origin watch), every injected
  crash must be known to every operational clustered node by the end;
- **accuracy**: a detection of a node that is operational at the end must
  be refuted, unless it happened inside the final recovery window (where
  the refutation legitimately falls past the horizon);

plus the trace audits of :mod:`repro.audit.invariants` and a directed
:func:`probe_forwarder_conformance` that drives an
:class:`~repro.fds.intercluster.InterclusterForwarder` with crafted
seeded traffic (merged duties, partial acknowledgment coverage, inbound
retries) and replays the recorded events through the reference model --
the divergences such probes target are too rare in end-to-end runs for a
random soak to find.

When a violation is found, :func:`shrink_spec` greedily reduces the
scenario (fewer executions, clusters, members, crashes; simpler loss)
while the violation reproduces, and :func:`repro_snippet` renders the
minimal config as a ready-to-paste pytest case.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.audit.invariants import run_audit_statuses
from repro.experiments.runner import (
    RunResult,
    ScenarioConfig,
    run_scenario,
    scenario_config,
)
from repro.fds.config import FdsConfig
from repro.fds.events import (
    DETECTION,
    REFUTATION,
    TAKEOVER,
    TAKEOVER_REVERTED,
)
from repro.fds.intercluster import InterclusterForwarder
from repro.fds.messages import FailureReport, HealthStatusUpdate
from repro.obs.verdicts import VerdictTimeline
from repro.sim.engine import Simulator
from repro.sim.medium import RadioMedium
from repro.sim.node import SimNode
from repro.sim.trace import RecordingTracer, iter_jsonl
from repro.util.geometry import Vec2


def random_spec(rng: np.random.Generator) -> ScenarioConfig:
    """Sample one scenario from the soak distribution.

    Biased toward tight 2x2 lattices (multi-boundary gateways, the
    geometry where inter-cluster forwarding earns its keep) and toward
    the bounded-adversary loss model, under which completeness is a hard
    guarantee rather than a probabilistic one.
    """
    loss_kind = str(
        rng.choice(["perfect", "bounded", "bounded", "bernoulli", "gilbert"])
    )
    return scenario_config(
        seed=int(rng.integers(0, 2**31 - 1)),
        cluster_count=int(rng.choice([2, 3, 4, 4])),
        members_per_cluster=int(rng.integers(8, 17)),
        crash_count=int(rng.integers(0, 4)),
        executions=int(rng.integers(4, 8)),
        loss_kind=loss_kind,
        loss_p=float(rng.choice([0.15, 0.25, 0.35])),
        loss_budget=int(rng.integers(1, 3)),
        spacing_factor=float(rng.choice([1.25, 1.4, 1.6])),
        max_backups=int(rng.choice([1, 2, 3])),
    )


@dataclass(frozen=True)
class Violation:
    """One conformance failure of a spec."""

    kind: str
    description: str


def trace_fingerprint(tracer: RecordingTracer) -> str:
    """Stable digest of a full trace (the bit-identity currency).

    Streams line by line into the hash -- a soak trace never has to
    exist as one giant string just to be fingerprinted.
    """
    digest = hashlib.sha256()
    for line in iter_jsonl(tracer.records):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def completeness_guaranteed(spec: ScenarioConfig) -> bool:
    """Whether the spec's loss model makes completeness deterministic.

    Blocking one boundary crossing costs at least ``max_forward_retries
    + 1`` targeted drops (the GW's attempts alone), and the origin watch
    re-triggers the whole ladder besides -- so any adversary limited to
    ``max_forward_retries`` total drops cannot prevent eventual
    propagation.  Under unbounded Bernoulli loss the paper only promises
    probabilistic completeness, so the oracle would be unsound.
    """
    if spec.loss_kind == "perfect":
        return True
    if spec.loss_kind == "bounded":
        return spec.loss_model().budget <= spec.fds.max_forward_retries
    return False


def completeness_violations(result: RunResult) -> List[Violation]:
    if not completeness_guaranteed(result.config):
        return []
    return [
        Violation(
            kind="completeness",
            description=(
                f"crash of node {int(nid)} unknown to some operational "
                f"node at the end despite loss within the drop budget"
            ),
        )
        for nid in result.properties.incomplete_failures
    ]


def accuracy_violations(
    config: FdsConfig,
    operational: Iterable[int],
    horizon: float,
    losses: int,
    verdicts: VerdictTimeline,
    final_suspicions: Iterable[Tuple[int, int]],
) -> List[Violation]:
    """False suspicions must be refuted (or fall in the final window).

    Trace-based: every detection of a node that is ``operational`` at
    the end needs a refutation of it *somewhere* at or after the
    detection (:meth:`VerdictTimeline.unrefuted`).  A detection inside
    the last ``recovery window`` before ``horizon`` may legitimately
    still be awaiting its repair, so it is excused; when the run had no
    actual ``losses`` there is no excuse and ``final_suspicions`` (the
    scored report's accuracy violations) must be empty.  Everything is
    in the run's own timebase (see :func:`run_accuracy_violations`).
    """
    window = (config.max_forward_retries + 1) * config.phi
    operational = {int(nid) for nid in operational}
    violations = [
        Violation(
            kind="accuracy",
            description=(
                f"node {node} detected operational node "
                f"{target} at t={time:.3f} with no refutation "
                f"in the remaining {horizon - time:.1f}s"
            ),
        )
        for time, node, target in verdicts.unrefuted()
        # Past horizon - window the refutation may legitimately be late.
        if target in operational and time <= horizon - window
    ]
    if losses == 0:
        violations.extend(
            Violation(
                kind="accuracy",
                description=(
                    f"node {int(a)} still suspects operational node "
                    f"{int(b)} at the end of a loss-free run"
                ),
            )
            for a, b in final_suspicions
        )
    return violations


def run_accuracy_violations(result: RunResult) -> List[Violation]:
    """The accuracy oracle on a run of any engine, in its own timebase."""
    return accuracy_violations(
        result.fds,
        result.network.operational_ids(),
        result.network.sim.now,
        result.losses,
        result.verdicts,
        result.properties.accuracy_violations,
    )


def audit_violations(
    tracer: RecordingTracer,
    config: FdsConfig,
    crash_times: dict,
    label: str,
) -> List[Violation]:
    violations: List[Violation] = []
    for status in run_audit_statuses(tracer, config, crash_times):
        violations.extend(
            Violation(
                kind=f"audit:{finding.audit}",
                description=f"[{label}] {finding.description}",
            )
            for finding in status.findings
        )
    return violations


# ----------------------------------------------------------------------
# The engine pair
# ----------------------------------------------------------------------
#: The record kinds every engine emits with identical semantics -- the
#: service's externally visible verdicts.  The event engine additionally
#: traces transport-level kinds (relays, peer requests, gateway duties)
#: that the round-level engine folds into counters.
VERDICT_KINDS = (DETECTION, REFUTATION, TAKEOVER, TAKEOVER_REVERTED)


def verdict_records(tracer: RecordingTracer) -> List[Tuple]:
    """The verdict-bearing records of a trace as comparable tuples."""
    return [
        (
            record.time,
            record.kind,
            record.node,
            tuple(sorted(record.detail.items())),
        )
        for record in tracer.records
        if record.kind in VERDICT_KINDS
    ]


def _latencies_phi(result: RunResult) -> Dict[int, Optional[float]]:
    """Per-crashed-target detection latency in phi units."""
    return {
        int(nid): (None if seconds is None else seconds / result.fds.phi)
        for nid, seconds in result.detection_latencies.items()
    }


def engine_pair_violations(
    reference: RunResult,
    other: RunResult,
    label: str,
    tolerance_phi: float = 0.0,
) -> List[Violation]:
    """One config run on two engines: the event ``reference`` and ``other``.

    The engines share the placement and faultload streams (bit-identical
    topology and crash schedule) but draw per-copy loss privately, and
    rt runs on a wall clock, so the pair compares what is
    loss-independent or guaranteed, each run in its own timebase:

    - field shape: node and cluster counts, the crashed-node set, and
      each crash's execution index must be equal (stream identity);
    - latency anchors: a crashed node is silent, so its CH detects it at
      exactly ``0.4*phi + 2*thop`` after the crash no matter what the
      links do -- per crashed target, detected-ness must agree
      (never-detected for a crash at the horizon included) and the
      phi-unit latencies must lie within ``tolerance_phi`` of each
      other: 0 for the array engine, the band that absorbs asyncio timer
      jitter and socket latency for rt.  The anchor assumes the CH was
      not already suspecting the target when it crashed, so a target
      that either run *falsely* detected before its crash time (possible
      under heavy loss, and timed by private draws) is exempt;
    - guaranteed completeness: when the loss model's drop budget is
      within the forwarding tolerance, completeness is deterministic and
      the two verdicts must agree;
    - the accuracy oracle: ``other`` must satisfy the same trace-based
      refutation discipline as the reference (:func:`check_spec` holds
      the reference to both oracles themselves);
    - perfect links on an exact (``tolerance_phi == 0``) pair: with no
      loss draws at all, the verdict-bearing records must match bit for
      bit, times included.

    Raw completeness under unbounded loss, transmission counts, and
    transport-level trace kinds are deliberately *not* compared: they
    depend on which copies each engine's private stream dropped.  The
    anchors above hold under every loss kind the soak samples, the
    stateful ``gilbert`` chains included.
    """
    violations: List[Violation] = []

    def diverged(description: str) -> None:
        violations.append(
            Violation(kind=f"differential:{label}", description=description)
        )

    def crash_executions(result: RunResult) -> Dict[int, int]:
        return {
            int(nid): result.fds.crash_execution(result.fds_start, t)
            for nid, t in result.crash_times.items()
        }

    for what, count in (
        ("node", lambda r: len(r.network)),
        ("cluster", lambda r: len(r.layout.clusters)),
    ):
        if count(other) != count(reference):
            diverged(
                f"{what} counts diverged: {label} {count(other)} != "
                f"event {count(reference)}"
            )
    same_crashes = set(reference.crash_times) == set(other.crash_times)
    if not same_crashes:
        diverged(
            "crashed-node sets diverged (faultload stream identity "
            f"broken): {label} {sorted(map(int, other.crash_times))} != "
            f"event {sorted(map(int, reference.crash_times))}"
        )
    elif crash_executions(reference) != crash_executions(other):
        diverged(
            f"crash execution indices diverged: {label} "
            f"{crash_executions(other)} != event "
            f"{crash_executions(reference)}"
        )

    if same_crashes:
        want, got = _latencies_phi(reference), _latencies_phi(other)
        # The 0.4*phi + 2*thop anchor assumes the CH was not already
        # suspecting the target: a crash detected before it happened is
        # anchor-exempt.
        exempt = (
            reference.verdicts.predetected() | other.verdicts.predetected()
        )
        for target in sorted(set(want) - exempt):
            w, g = want[target], got[target]
            if (w is None) != (g is None):
                diverged(
                    f"crash of node {target} detected in "
                    f"{'event' if w is not None else label} only "
                    f"(event={w}, {label}={g})"
                )
            elif w is not None and abs(w - g) > tolerance_phi:
                diverged(
                    f"detection latency of node {target} off the "
                    f"loss-independent anchor: {label} {g:.3f} phi vs "
                    f"event {w:.3f} phi (|delta| {abs(w - g):.3f} > "
                    f"tolerance {tolerance_phi})"
                )

    if completeness_guaranteed(reference.config):
        complete = {
            name: "complete" if r.properties.is_complete else "incomplete"
            for name, r in (("event", reference), (label, other))
        }
        if complete["event"] != complete[label]:
            diverged(
                "completeness verdicts diverged under deterministic loss: "
                f"{complete}"
            )

    for v in run_accuracy_violations(other):
        diverged(f"[{label}] {v.description}")

    if tolerance_phi == 0 and reference.config.loss_kind == "perfect":
        if verdict_records(reference.tracer) != verdict_records(other.tracer):
            diverged(
                "verdict records diverged between engines on loss-free "
                "links (must be bit-identical)"
            )
    return violations


def formation_violations(spec: ScenarioConfig) -> List[Violation]:
    """The distributed-formation pair: event vs array, plus shape audit.

    **Lossless leg** (both engines, ``formation="protocol"`` over
    perfect links): the placement stream is shared and no loss draw is
    consulted, so the six-round protocol must converge to the *same*
    clustering on both engines -- the two
    :class:`~repro.sim.array_engine.layout.ArrayLayout` objects must be
    equal on every array and scalar, and the FDS phase's verdict records
    bit-identical, times included.

    **Lossy leg** (array engine only, the spec's own loss model): the
    engines draw formation loss from private streams, so under loss the
    elected head sets legitimately diverge (which also re-deals the
    faultload candidate list) and no cross-engine comparison is sound.
    Instead the array outcome must satisfy the structural layout
    invariants of :func:`~repro.sim.array_engine.formation.
    formation_shape_violations`: heads marked and self-affiliated,
    members in radio range of their confirmed head, forwarder ladders
    within width and strictly NID-ascending, the layout reads back as a
    ``ClusterLayout`` view.
    """
    from repro.sim.array_engine.formation import formation_shape_violations

    violations: List[Violation] = []

    lossless = replace(
        spec, loss_kind="perfect", loss_params=(), formation="protocol"
    )
    event = run_scenario(replace(lossless, engine="event"))
    array = run_scenario(replace(lossless, engine="array"))
    mismatched = array.layout.mismatches(event.layout)
    if mismatched:
        violations.append(
            Violation(
                kind="differential:formation",
                description=(
                    "lossless formation layouts diverged on "
                    f"{', '.join(mismatched)}"
                ),
            )
        )
    if verdict_records(event.tracer) != verdict_records(array.tracer):
        violations.append(
            Violation(
                kind="differential:formation",
                description=(
                    "verdict records diverged between engines after "
                    "lossless protocol formation (must be bit-identical)"
                ),
            )
        )
    if event.properties.completeness != array.properties.completeness:
        violations.append(
            Violation(
                kind="differential:formation",
                description=(
                    "completeness diverged after lossless protocol "
                    f"formation: array {array.properties.completeness} "
                    f"!= event {event.properties.completeness}"
                ),
            )
        )

    if spec.loss_kind != "perfect":
        lossy = run_scenario(
            replace(spec, engine="array", formation="protocol")
        )
        violations.extend(
            Violation(
                kind="differential:formation",
                description=f"lossy formation shape invariant broken: {v}",
            )
            for v in formation_shape_violations(lossy.formation)
        )
    return violations


def energy_ledger_violations(spec: ScenarioConfig) -> List[Violation]:
    """The array energy ledger vs a scalar EnergyModel replay.

    Runs the spec through the array engine with ``track_energy`` on and
    the charge journal recording, then replays the journal debit by
    debit through :class:`~repro.energy.model.EnergyModel`.  The two
    must agree bit for bit (per-node levels and counters, totals,
    spread), and the ledger's counters must mirror the run's message
    accounting: one transmit debit per counted transmission, one
    receive debit per delivered copy.
    """
    from repro.sim.array_engine.energy import replay_journal
    from repro.sim.array_engine.runner import run_array_scenario

    config = replace(spec, engine="array", track_energy=True)
    result = run_array_scenario(config, record_energy_journal=True)
    ledger = result.energy
    model = replay_journal(ledger)
    violations: List[Violation] = []

    if ledger.totals() != model.totals() or ledger.spread() != model.spread():
        violations.append(
            Violation(
                kind="differential:energy",
                description=(
                    "array energy ledger diverged from the scalar replay: "
                    f"ledger {ledger.totals()} spread {ledger.spread()} != "
                    f"model {model.totals()} spread {model.spread()}"
                ),
            )
        )
    for node in range(ledger.node_count):
        entry = model._entry(node)
        if (
            entry.level != ledger.level[node]
            or entry.tx_count != ledger.tx_count[node]
            or entry.rx_count != ledger.rx_count[node]
        ):
            violations.append(
                Violation(
                    kind="differential:energy",
                    description=(
                        f"array energy ledger diverged at node {node}: "
                        f"level {ledger.level[node]!r} tx "
                        f"{int(ledger.tx_count[node])} rx "
                        f"{int(ledger.rx_count[node])} != scalar "
                        f"{entry.level!r}/{entry.tx_count}/{entry.rx_count}"
                    ),
                )
            )
            break  # one node is a repro; don't spam N findings

    totals = ledger.totals()
    if totals["tx_total"] != float(result.messages.transmissions):
        violations.append(
            Violation(
                kind="differential:energy",
                description=(
                    "transmit debits do not mirror message accounting: "
                    f"tx_total {totals['tx_total']} != transmissions "
                    f"{result.messages.transmissions}"
                ),
            )
        )
    if totals["rx_total"] != float(result.messages.deliveries):
        violations.append(
            Violation(
                kind="differential:energy",
                description=(
                    "receive debits do not mirror delivered copies: "
                    f"rx_total {totals['rx_total']} != deliveries "
                    f"{result.messages.deliveries}"
                ),
            )
        )
    return violations


# ----------------------------------------------------------------------
# Directed forwarder-conformance probes
# ----------------------------------------------------------------------
def probe_forwarder_conformance(spec: ScenarioConfig) -> List[Violation]:
    """Drive a forwarder through the rare paths and replay the trace.

    Three seeded probes on a tiny synthetic medium:

    1. **merged duties**: two local updates with disjoint news toward the
       same destination while the first timer is in flight -- the re-armed
       watch must keep covering the first update's failures;
    2. **inbound retry**: a foreign update starts a duty toward our own
       CH which is never acknowledged -- every retry wait must follow the
       *origin* boundary's BGW ladder, not another boundary's;
    3. **origin watch**: a CH's multi-failure watch acknowledged by two
       partial overheard reports -- coverage must accumulate (a lone
       superset match would rebroadcast spuriously).

    The recorded events go through the same
    :func:`~repro.audit.invariants.audit_forwarder_conformance` model as
    end-to-end traces, so a reintroduced forwarding bug fails here even
    when the random topology never exercises it.
    """
    rng = np.random.default_rng(spec.seed)
    config = spec.fds
    ids = [int(x) for x in rng.permutation(np.arange(10, 90))[:8]]
    my_id, my_head, peer_b, peer_c, f1, f2, f3, _spare = ids
    violations: List[Violation] = []

    def fresh_node() -> Tuple[Simulator, SimNode, RecordingTracer]:
        sim = Simulator()
        tracer = RecordingTracer()
        medium = RadioMedium(
            sim, transmission_range=100.0, max_delay=0.01, tracer=tracer
        )
        node = SimNode(my_id, Vec2(0, 0), sim, medium)
        for i, other in enumerate((my_head, peer_b, peer_c)):
            SimNode(other, Vec2(5000.0 + 300.0 * i, 5000.0), sim, medium)
        return sim, node, tracer

    def forwarder(node: SimNode, duties, head_boundaries=()):
        return InterclusterForwarder(
            node,
            config,
            duties=dict(duties),
            head_boundaries=dict(head_boundaries),
            get_head=lambda: my_head,
            get_history=lambda: frozenset(),
            rebroadcast_update=lambda: None,
        )

    def run_probe(name: str, drive: Callable[[Simulator, SimNode], None]) -> None:
        sim, node, tracer = fresh_node()
        drive(sim, node)
        sim.run()
        violations.extend(
            Violation(kind=f"probe:{name}", description=v.description)
            for v in audit_violations(tracer, config, {}, f"probe:{name}")
            if v.kind == "audit:forwarder-conformance"
        )

    # The ladder check needs the *other* boundary to be the longer one,
    # or taking max() over all duties would coincide with the right answer.
    n_b = int(rng.integers(0, 3))
    n_c = n_b + 1 + int(rng.integers(0, 2))

    def drive_merge(sim: Simulator, node: SimNode) -> None:
        fwd = forwarder(node, {peer_b: (0, n_b)})
        fwd.on_local_update(
            HealthStatusUpdate(
                head=my_head, execution=1, new_failures=frozenset({f1})
            )
        )
        # Second report lands mid-flight, before the first ack window ends.
        sim.schedule_in(
            config.thop,
            lambda: fwd.on_local_update(
                HealthStatusUpdate(
                    head=my_head, execution=1, new_failures=frozenset({f2})
                )
            ),
        )

    def drive_inbound(sim: Simulator, node: SimNode) -> None:
        fwd = forwarder(node, {peer_b: (0, n_b), peer_c: (0, n_c)})
        fwd.on_foreign_update(
            HealthStatusUpdate(
                head=peer_b, execution=1, new_failures=frozenset({f3})
            )
        )

    def drive_origin(sim: Simulator, node: SimNode) -> None:
        fwd = forwarder(
            node, {}, head_boundaries={peer_b: 1, peer_c: 1}
        )
        update = HealthStatusUpdate(
            head=my_id, execution=1, new_failures=frozenset({f1, f2})
        )
        fwd._get_head = lambda: my_id  # probe plays the CH itself
        fwd.on_local_update(update)
        for covered in (frozenset({f1}), frozenset({f2})):
            fwd.on_overheard_report(
                FailureReport(
                    sender=peer_b,
                    origin=my_id,
                    target_head=peer_c,
                    failures=covered,
                )
            )

    run_probe("merged-duties", drive_merge)
    run_probe("inbound-retry", drive_inbound)
    run_probe("origin-watch", drive_origin)
    return violations


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------
def check_spec(spec: ScenarioConfig) -> List[Violation]:
    """Run every paired configuration and oracle; return all violations."""
    violations: List[Violation] = []

    base = run_scenario(replace(spec, engine="event"))
    ablated = run_scenario(
        replace(base.config, fds=replace(spec.fds, use_digests=False))
    )

    violations.extend(completeness_violations(base))
    violations.extend(run_accuracy_violations(base))
    for label, result in (("base", base), ("no-digests", ablated)):
        violations.extend(
            audit_violations(
                result.tracer, result.fds, result.crash_times, label
            )
        )
    array = run_scenario(replace(spec, engine="array"))
    violations.extend(engine_pair_violations(base, array, "array"))
    violations.extend(energy_ledger_violations(spec))
    violations.extend(formation_violations(spec))
    violations.extend(probe_forwarder_conformance(spec))
    return violations


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _with_budget(spec: ScenarioConfig, budget: int) -> ScenarioConfig:
    params = dict(spec.loss_params, budget=float(budget))
    return replace(spec, loss_params=tuple(params.items()))


def shrink_spec(
    spec: ScenarioConfig,
    max_evals: int = 32,
    still_fails: Optional[Callable[[ScenarioConfig], bool]] = None,
) -> ScenarioConfig:
    """Greedily reduce a failing spec while it keeps failing.

    Each pass tries one simplification (fewer executions, clusters,
    members, crashes; smaller drop budget; perfect links; fewer backups)
    and keeps it if the spec still produces *any* violation.  Bounded by
    ``max_evals`` full re-checks, so shrinking a pathological spec cannot
    run away.
    """
    if still_fails is None:

        def still_fails(candidate: ScenarioConfig) -> bool:
            return bool(check_spec(candidate))

    evals = 0

    def attempt(candidate: ScenarioConfig) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        return still_fails(candidate)

    current = spec
    passes: Sequence[Callable[[ScenarioConfig], Optional[ScenarioConfig]]] = (
        lambda s: replace(s, executions=s.executions - 1)
        if s.executions > 3
        else None,
        lambda s: replace(s, cluster_count=s.cluster_count - 1)
        if s.cluster_count > 2
        else None,
        lambda s: replace(
            s, members_per_cluster=max(4, (3 * s.members_per_cluster) // 4)
        )
        if s.members_per_cluster > 4
        else None,
        lambda s: replace(s, crash_count=s.crash_count - 1)
        if s.crash_count > 0
        else None,
        lambda s: _with_budget(s, s.loss_model().budget - 1)
        if s.loss_kind == "bounded" and s.loss_model().budget > 0
        else None,
        lambda s: replace(s, loss_kind="perfect", loss_params=())
        if s.loss_kind != "perfect"
        else None,
        lambda s: replace(s, max_backups=s.max_backups - 1)
        if s.max_backups
        else None,
    )
    progress = True
    while progress and evals < max_evals:
        progress = False
        for simplify in passes:
            candidate = simplify(current)
            if candidate is not None and attempt(candidate):
                current = candidate
                progress = True
    return current


def _literal(value: object) -> str:
    """``value`` as source text; a dataclass as a constructor call
    naming only the fields that differ from their defaults."""
    if not is_dataclass(value):
        return repr(value)
    parts = []
    for f in fields(value):
        default = f.default if f.default is not MISSING else f.default_factory()
        if getattr(value, f.name) != default:
            parts.append(f"{f.name}={_literal(getattr(value, f.name))}")
    return f"{type(value).__name__}({', '.join(parts)})"


def repro_snippet(
    spec: ScenarioConfig,
    violations: Sequence[Violation],
    check: Callable[[ScenarioConfig], List[Violation]] = check_spec,
) -> str:
    """A ready-to-paste pytest case reproducing the violations ``check``
    (:func:`check_spec`, or the realnet differential) reported."""
    lines = [f"    #   - {v.kind}: {v.description}" for v in violations]
    body = "\n".join(lines) if lines else "    #   (violations list was empty)"
    name = check.__name__
    return (
        f"from {check.__module__} import {name}\n"
        "from repro.experiments.runner import ScenarioConfig\n"
        "from repro.fds.config import FdsConfig\n"
        "\n"
        "\n"
        "def test_differential_regression():\n"
        "    # Shrunk from a failing differential run; observed violations:\n"
        f"{body}\n"
        f"    spec = {_literal(spec)}\n"
        f"    assert {name}(spec) == []\n"
    )
