"""Differential conformance checking of whole scenario runs.

One seeded :class:`ScenarioSpec` describes a complete experiment
(topology, crash schedule, loss model).  :func:`check_spec` runs it under
paired configurations and asserts what each pair promises:

- **digest ablation (R-2 off)**: no bit-identity promise -- instead both
  runs must satisfy every applicable trace audit;
- **event vs array engine**: equal field shape, crashed-target detection
  latencies and guaranteed completeness, the same accuracy discipline,
  and the array energy ledger equal to a scalar replay
  (:func:`array_engine_violations`);
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
minimal spec as a ready-to-paste pytest case.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.audit.invariants import run_audit_statuses
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.fds.config import FdsConfig
from repro.fds.events import (
    DETECTION,
    REFUTATION,
    TAKEOVER,
    TAKEOVER_REVERTED,
)
from repro.fds.intercluster import InterclusterForwarder
from repro.fds.messages import FailureReport, HealthStatusUpdate
from repro.sim.engine import Simulator
from repro.sim.loss import loss_params
from repro.sim.medium import RadioMedium
from repro.sim.node import SimNode
from repro.sim.trace import RecordingTracer, iter_jsonl
from repro.util.geometry import Vec2


@dataclass(frozen=True)
class ScenarioSpec:
    """A seeded, self-contained scenario for differential checking.

    Everything :func:`check_spec` runs derives deterministically from
    these fields, so a spec *is* a repro: same spec, same verdict.
    ``phi`` is deliberately generous relative to ``thop`` so the
    round-structure audit stays applicable (the simulator is
    event-driven; a long idle tail costs no wall-clock).
    """

    seed: int = 0
    cluster_count: int = 4
    members_per_cluster: int = 12
    crash_count: int = 2
    executions: int = 5
    loss_kind: str = "perfect"
    loss_p: float = 0.3
    loss_budget: int = 2
    spacing_factor: float = 1.25
    max_backups: int = 2
    phi: float = 20.0
    thop: float = 0.5

    def fds_config(self, use_digests: bool = True) -> FdsConfig:
        return FdsConfig(phi=self.phi, thop=self.thop, use_digests=use_digests)

    def to_config(
        self,
        use_digests: bool = True,
        engine: str = "event",
    ) -> ScenarioConfig:
        return ScenarioConfig(
            cluster_count=self.cluster_count,
            members_per_cluster=self.members_per_cluster,
            crash_count=self.crash_count,
            executions=self.executions,
            seed=self.seed,
            loss_kind=self.loss_kind,
            loss_params=loss_params(
                self.loss_kind, self.loss_p, self.loss_budget
            ),
            spacing_factor=self.spacing_factor,
            max_backups=self.max_backups,
            engine=engine,
            fds=self.fds_config(use_digests=use_digests),
        )


def random_spec(rng: np.random.Generator) -> ScenarioSpec:
    """Sample one scenario from the soak distribution.

    Biased toward tight 2x2 lattices (multi-boundary gateways, the
    geometry where inter-cluster forwarding earns its keep) and toward
    the bounded-adversary loss model, under which completeness is a hard
    guarantee rather than a probabilistic one.
    """
    loss_kind = str(
        rng.choice(["perfect", "bounded", "bounded", "bernoulli", "gilbert"])
    )
    return ScenarioSpec(
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
def completeness_guaranteed(spec: ScenarioSpec) -> bool:
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
        return spec.loss_budget <= spec.fds_config().max_forward_retries
    return False


def completeness_violations(
    spec: ScenarioSpec, result: ScenarioResult
) -> List[Violation]:
    if not completeness_guaranteed(spec):
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
    tracer: RecordingTracer,
    final_suspicions: Iterable[Tuple[int, int]],
) -> List[Violation]:
    """False suspicions must be refuted (or fall in the final window).

    Trace-based: pair every detection of a node that is ``operational``
    at the end with a later refutation *somewhere*.  A detection inside
    the last ``recovery window`` before ``horizon`` may legitimately
    still be awaiting its repair, so it is excused; when the run had no
    actual ``losses`` there is no excuse and ``final_suspicions`` (the
    scored report's accuracy violations) must be empty.  Everything is
    in the run's own timebase, so the same oracle serves the simulated
    engines and (with the wall-scaled ``config``) the rt runtime.
    """
    window = (config.max_forward_retries + 1) * config.phi
    operational = {int(nid) for nid in operational}
    refuted_at: dict = {}
    for record in tracer.iter_kind(REFUTATION):
        target = int(record.detail["target"])
        refuted_at.setdefault(target, []).append(record.time)
    violations: List[Violation] = []
    for record in tracer.iter_kind(DETECTION):
        target = int(record.detail["target"])
        if target not in operational:
            continue
        if any(t >= record.time for t in refuted_at.get(target, [])):
            continue
        if record.time > horizon - window:
            continue  # refutation legitimately past the horizon
        violations.append(
            Violation(
                kind="accuracy",
                description=(
                    f"node {record.node} detected operational node "
                    f"{target} at t={record.time:.3f} with no refutation "
                    f"in the remaining {horizon - record.time:.1f}s"
                ),
            )
        )
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


def _sim_accuracy_violations(result: ScenarioResult) -> List[Violation]:
    """The accuracy oracle on a simulated (event or array) run."""
    return accuracy_violations(
        result.config.fds,
        result.network.operational_ids(),
        result.network.sim.now,
        result.messages.losses,
        result.tracer,
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


def predetected_targets(result) -> set:
    """Crash targets some node *falsely* detected before they crashed.

    The ``0.4*phi + 2*thop`` latency anchor assumes the CH was not
    already suspecting the target, so such targets are anchor-exempt.
    """
    predetected = set()
    for record in result.tracer.iter_kind(DETECTION):
        target = int(record.detail["target"])
        crash_time = result.crash_times.get(target)
        if crash_time is not None and record.time < crash_time:
            predetected.add(target)
    return predetected


# ----------------------------------------------------------------------
# Array-engine differential pair
# ----------------------------------------------------------------------
#: The record kinds both engines emit with identical semantics -- the
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


def array_engine_violations(
    spec: ScenarioSpec, event: ScenarioResult
) -> List[Violation]:
    """Verdict-level equivalence of the round-level array engine.

    The engines share the placement and faultload streams (bit-identical
    topology and crash schedule) but draw per-copy loss privately, so
    the pair compares what is loss-independent or guaranteed:

    - field shape: node/cluster/crash counts must be equal;
    - crashed-target detections: a crashed node is silent, so its CH
      detects it at exactly ``0.4*phi + 2*thop`` after the crash no
      matter what the links do -- the per-target latency maps must be
      equal entry for entry (including never-detected ``None`` for a
      crash at the horizon).  The anchor assumes the CH was not already
      suspecting the target when it crashed, so a target that either
      engine *falsely* detected before its crash time (possible under
      heavy loss, and timed by each engine's private draws) is exempt;
    - guaranteed completeness: when the loss model's drop budget is
      within the forwarding tolerance, both engines must report every
      crash to every operational node;
    - the accuracy oracle: the array run must satisfy the same
      trace-based refutation discipline as the event run;
    - perfect links: with no loss draws at all, the verdict-bearing
      records must match bit for bit, times included.

    Raw completeness under unbounded Bernoulli loss, transmission
    counts, and transport-level trace kinds are deliberately *not*
    compared: they depend on which copies each engine's private stream
    dropped.

    The loss-independent anchors above hold under every loss kind the
    spec distribution samples, including the stateful ``gilbert``
    chains -- each engine drives its own chains from its private stream,
    but crashed-target latencies and guaranteed completeness do not
    depend on the draws.

    An **energy sub-pair** reruns the array engine with the ledger
    journal on and replays every charge batch through the scalar
    :class:`~repro.energy.model.EnergyModel`: levels, counters, totals
    and spread must be bit-identical, and the debit population must
    mirror the run's message accounting exactly (one transmit debit per
    transmission, one receive debit per delivered copy).
    """
    array = run_scenario(spec.to_config(engine="array"))
    violations: List[Violation] = []

    event_summary = event.summary()
    array_summary = array.summary()
    for key in ("nodes", "clusters", "crashes"):
        if event_summary[key] != array_summary[key]:
            violations.append(
                Violation(
                    kind="differential:array",
                    description=(
                        f"field shape diverged between engines: {key} "
                        f"{array_summary[key]} != {event_summary[key]}"
                    ),
                )
            )

    predetected = predetected_targets(event) | predetected_targets(array)
    event_latencies = {
        t: v for t, v in event.detection_latencies.items()
        if t not in predetected
    }
    array_latencies = {
        t: v for t, v in array.detection_latencies.items()
        if t not in predetected
    }
    if event_latencies != array_latencies:
        violations.append(
            Violation(
                kind="differential:array",
                description=(
                    "crashed-target detection latencies diverged "
                    f"(loss-independent anchor): array {array_latencies} "
                    f"!= event {event_latencies}"
                ),
            )
        )

    if completeness_guaranteed(spec):
        for label, result in (("event", event), ("array", array)):
            if result.properties.mean_completeness != 1.0:
                violations.append(
                    Violation(
                        kind="differential:array",
                        description=(
                            f"{label} engine incomplete "
                            f"({result.properties.mean_completeness:.4f}) "
                            "despite loss within the drop budget"
                        ),
                    )
                )

    violations.extend(
        Violation(kind="differential:array", description=f"[array] {v.description}")
        for v in _sim_accuracy_violations(array)
    )

    if spec.loss_kind == "perfect":
        if verdict_records(event.tracer) != verdict_records(array.tracer):
            violations.append(
                Violation(
                    kind="differential:array",
                    description=(
                        "verdict records diverged between engines on "
                        "loss-free links (must be bit-identical)"
                    ),
                )
            )

    violations.extend(energy_ledger_violations(spec))
    return violations


def formation_violations(spec: ScenarioSpec) -> List[Violation]:
    """The distributed-formation pair: event vs array, plus shape audit.

    **Lossless leg** (both engines, ``formation="protocol"`` over
    perfect links): the placement stream is shared and no loss draw is
    consulted, so the six-round protocol must converge to the *same*
    clustering on both engines -- the extracted
    :class:`~repro.cluster.state.ClusterLayout` (clusters, deputies,
    boundaries, unclustered set) and the FDS phase's verdict records
    must be bit-identical, times included.

    **Lossy leg** (array engine only, the spec's own loss model): the
    engines draw formation loss from private streams, so under loss the
    elected head sets legitimately diverge (which also re-deals the
    faultload candidate list) and no cross-engine comparison is sound.
    Instead the array outcome must satisfy the structural layout
    invariants of :func:`~repro.sim.array_engine.formation.
    formation_shape_violations`: heads marked and self-affiliated,
    members in radio range of their confirmed head, forwarder ladders
    within width and strictly NID-ascending, extraction round-trips
    through ``ClusterLayout`` validation.
    """
    from repro.sim.array_engine.formation import (
        formation_cluster_layout,
        formation_shape_violations,
    )

    violations: List[Violation] = []

    lossless = replace(spec, loss_kind="perfect")
    event = run_scenario(
        replace(lossless.to_config(engine="event"), formation="protocol")
    )
    array = run_scenario(
        replace(lossless.to_config(engine="array"), formation="protocol")
    )
    layout = formation_cluster_layout(array.formation)
    for field_name, got, want in (
        ("clusters", layout.clusters, event.layout.clusters),
        ("boundaries", layout.boundaries, event.layout.boundaries),
        ("unclustered", layout.unclustered, event.layout.unclustered),
    ):
        if got != want:
            violations.append(
                Violation(
                    kind="differential:formation",
                    description=(
                        f"lossless formation layouts diverged on "
                        f"{field_name}: array {got!r} != event {want!r}"
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
            replace(spec.to_config(engine="array"), formation="protocol")
        )
        violations.extend(
            Violation(
                kind="differential:formation",
                description=f"lossy formation shape invariant broken: {v}",
            )
            for v in formation_shape_violations(lossy.formation)
        )
    return violations


def energy_ledger_violations(spec: ScenarioSpec) -> List[Violation]:
    """The array energy ledger vs a scalar EnergyModel replay.

    Runs the spec through the array engine with ``track_energy`` on and
    the charge journal recording, then replays the journal debit by
    debit through :class:`~repro.energy.model.EnergyModel`.  The two
    must agree bit for bit (per-node levels and counters, totals,
    spread), and the ledger's counters must mirror the run's message
    accounting: one transmit debit per counted transmission, one
    receive debit per delivered copy.
    """
    from repro.sim.array_engine import run_array_scenario
    from repro.sim.array_engine.energy import replay_journal

    config = replace(spec.to_config(engine="array"), track_energy=True)
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
def probe_forwarder_conformance(spec: ScenarioSpec) -> List[Violation]:
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
    config = spec.fds_config()
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
def check_spec(spec: ScenarioSpec) -> List[Violation]:
    """Run every paired configuration and oracle; return all violations."""
    violations: List[Violation] = []

    base = run_scenario(spec.to_config())
    ablated = run_scenario(spec.to_config(use_digests=False))

    violations.extend(completeness_violations(spec, base))
    violations.extend(_sim_accuracy_violations(base))
    for label, result in (("base", base), ("no-digests", ablated)):
        violations.extend(
            audit_violations(
                result.tracer, result.config.fds, result.crash_times, label
            )
        )
    violations.extend(array_engine_violations(spec, base))
    violations.extend(formation_violations(spec))
    violations.extend(probe_forwarder_conformance(spec))
    return violations


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink_spec(
    spec: ScenarioSpec,
    max_evals: int = 32,
    still_fails: Optional[Callable[[ScenarioSpec], bool]] = None,
) -> ScenarioSpec:
    """Greedily reduce a failing spec while it keeps failing.

    Each pass tries one simplification (fewer executions, clusters,
    members, crashes; smaller drop budget; perfect links; fewer backups)
    and keeps it if the spec still produces *any* violation.  Bounded by
    ``max_evals`` full re-checks, so shrinking a pathological spec cannot
    run away.
    """
    if still_fails is None:

        def still_fails(candidate: ScenarioSpec) -> bool:
            return bool(check_spec(candidate))

    evals = 0

    def attempt(candidate: ScenarioSpec) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        return still_fails(candidate)

    current = spec
    passes: Sequence[Callable[[ScenarioSpec], Optional[ScenarioSpec]]] = (
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
        lambda s: replace(s, loss_budget=s.loss_budget - 1)
        if s.loss_kind == "bounded" and s.loss_budget > 0
        else None,
        lambda s: replace(s, loss_kind="perfect")
        if s.loss_kind != "perfect"
        else None,
        lambda s: replace(s, max_backups=s.max_backups - 1)
        if s.max_backups > 0
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


def snippet_parts(
    spec: ScenarioSpec, violations: Sequence[Violation]
) -> Tuple[str, str]:
    """``(comment lines listing the violations, ScenarioSpec(...) literal)``
    -- what every seeded-repro snippet is built from."""
    lines = [f"    #   - {v.kind}: {v.description}" for v in violations]
    body = "\n".join(lines) if lines else "    #   (violations list was empty)"
    values = ", ".join(
        f"{f.name}={getattr(spec, f.name)!r}" for f in fields(spec)
    )
    return body, f"ScenarioSpec({values})"


def repro_snippet(spec: ScenarioSpec, violations: Sequence[Violation]) -> str:
    """A ready-to-paste pytest case reproducing the violations."""
    body, literal = snippet_parts(spec, violations)
    return (
        "from repro.audit.differential import ScenarioSpec, check_spec\n"
        "\n"
        "\n"
        "def test_soak_regression():\n"
        "    # Shrunk from a failing soak run; observed violations:\n"
        f"{body}\n"
        f"    spec = {literal}\n"
        "    assert check_spec(spec) == []\n"
    )
