"""Array engine vs event engine: layout and verdict equivalence, edges.

The round-level numpy engine (``repro.sim.array_engine``) must agree
with the discrete-event reference wherever the two are comparable:

- the vectorized field construction reproduces ``build_clusters`` on the
  ``multi_cluster_field`` lattice exactly (positions, membership,
  deputies, gateway ladders);
- under lossless channels (``perfect`` loss, or Bernoulli p=0) the
  verdict traces are bit-identical;
- under loss -- including the stateful Gilbert-Elliott chains -- the
  loss-independent anchors hold (crashed-target detection latency,
  guaranteed completeness, the accuracy oracle);
- with ``track_energy`` the batched ledger is bit-identical to a scalar
  :class:`~repro.energy.model.EnergyModel` replay of its charge journal,
  and its counters mirror the run's message accounting exactly.

What is deliberately *not* compared: raw Bernoulli-loss completeness,
transmission counts, and transport-level trace records -- those depend
on which copies each engine's private loss stream drops (see
``repro.audit.differential.engine_pair_violations``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.audit.differential import (
    energy_ledger_violations,
    engine_pair_violations,
    verdict_records,
)
from repro.cluster.geometric import build_clusters
from repro.errors import ConfigurationError, ExperimentError, TopologyError
from repro.experiments.runner import (
    ScenarioConfig,
    run_scenario,
    scenario_config,
)
from repro.sim.array_engine.layout import PAD, build_array_layout
from repro.sim.array_engine.runner import run_array_scenario
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.util.rng import RngFactory

RADIUS = 100.0


def _config(**overrides) -> ScenarioConfig:
    base = dict(
        cluster_count=4,
        members_per_cluster=10,
        loss_probability=0.0,
        crash_count=2,
        executions=4,
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _array_pair_violations(spec: ScenarioConfig) -> list:
    """The soak's event/array pair plus its energy sub-pair."""
    event = run_scenario(spec)
    array = run_scenario(replace(spec, engine="array"))
    return (
        engine_pair_violations(event, array, "array")
        + energy_ledger_violations(spec)
    )


def _real(row: np.ndarray) -> list:
    """The non-PAD entries of a padded int row, in slot order."""
    return [int(v) for v in row if v != PAD]


# ---------------------------------------------------------------------------
# Layout: the vectorized construction vs the real clustering pipeline.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("spacing_factor", [1.6, 1.25])
def test_layout_matches_oracle(seed, spacing_factor):
    cluster_count, members = 6, 12
    positions = multi_cluster_field(
        cluster_count=cluster_count,
        members_per_cluster=members,
        radius=RADIUS,
        rng=RngFactory(seed).stream("placement"),
        spacing_factor=spacing_factor,
    )
    oracle = build_clusters(UnitDiskGraph(positions, radius=RADIUS))
    arr = build_array_layout(
        cluster_count,
        members,
        RADIUS,
        rng=RngFactory(seed).stream("placement"),
        spacing_factor=spacing_factor,
    )

    # Positions are bit-identical (same stream, same draw order).
    assert arr.node_count == len(positions)
    for nid, pos in positions.items():
        assert arr.xs[nid] == pos.x
        assert arr.ys[nid] == pos.y
    assert sorted(oracle.clusters) == list(range(cluster_count))
    _assert_same_layout(arr, oracle)


def _assert_same_layout(arr, oracle):
    """An ArrayLayout against the ClusterLayout of the same lattice."""
    # Cluster membership: heads are NIDs 0..C-1; every Cluster.members
    # frozenset (head included) equals the head + the padded member row.
    assert not oracle.unclustered
    for head, cluster in oracle.clusters.items():
        row = _real(arr.members[head])
        assert cluster.members == frozenset([head, *row])
        assert row == sorted(row)  # slots are NID-ascending
        for nid in row:
            assert arr.assign[nid] == head
        # Deputy ladder: same nodes, same rank order.
        assert tuple(_real(arr.deputies[head])) == cluster.deputies

    # Boundaries: same ordered (owner, peer) pairs, same GW + BGW ladder.
    array_pairs = {
        (int(o), int(p)): _real(slots)
        for o, p, slots in zip(
            arr.boundary_owner, arr.boundary_peer, arr.boundary_gateway_slots
        )
    }
    assert set(array_pairs) == set(oracle.boundaries)
    for (owner, peer), boundary in oracle.boundaries.items():
        ladder = [int(arr.members[owner][s]) for s in array_pairs[(owner, peer)]]
        assert tuple(ladder) == boundary.all_forwarders


@pytest.mark.parametrize("formation", ["oracle", "protocol"])
@pytest.mark.parametrize("knob", [0, 1, 3])
def test_layout_knobs_reach_every_layout_builder(formation, knob):
    """``fds.deputy_count`` and ``max_backups`` size the deputy and
    gateway ladders of every layout -- oracle or protocol, either engine
    (the event oracle used to install 2 deputies whatever was asked, and
    protocol formation 2 backups)."""
    from repro.fds.config import FdsConfig

    config = _config(
        formation=formation, fds=FdsConfig(deputy_count=knob),
        max_backups=knob, spacing_factor=1.25, crash_count=0, executions=1,
    )
    event_arrays = run_scenario(config).layout
    array = run_scenario(replace(config, engine="array"))
    event = event_arrays.cluster_layout()
    if formation == "oracle":
        _assert_same_layout(array.layout, event)
    else:
        assert array.layout.mismatches(event_arrays) == []
    assert max(len(c.deputies) for c in event.clusters.values()) == knob
    assert max(
        len(b.all_forwarders) for b in event.boundaries.values()
    ) == 1 + knob


# ---------------------------------------------------------------------------
# Verdict equivalence under lossless channels.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_lossless_runs_are_verdict_identical(seed):
    """p=0 consumes no loss randomness: both engines must emit the same
    verdict records at the same times with the same details."""
    config = _config(seed=seed, loss_probability=0.0)
    event = run_scenario(config)
    array = run_scenario(replace(config, engine="array"))
    assert verdict_records(event.tracer) == verdict_records(array.tracer)
    assert event.detection_latencies == array.detection_latencies
    # Lossless runs are fully deterministic, so the per-observer
    # completeness maps must match exactly (seed 7 crashes happen to kill
    # gateway ladders, leaving completeness < 1 -- in both engines alike).
    assert event.properties.completeness == array.properties.completeness
    assert (
        event.properties.accuracy_violations
        == array.properties.accuracy_violations
        == ()
    )
    assert event.summary()["mean_detection_latency"] == (
        array.summary()["mean_detection_latency"]
    )


def test_perfect_loss_kind_is_verdict_identical():
    config = _config(loss_kind="perfect", loss_probability=0.3, seed=9)
    event = run_scenario(config)
    array = run_scenario(replace(config, engine="array"))
    assert verdict_records(event.tracer) == verdict_records(array.tracer)


@pytest.mark.parametrize("seed", [2, 13])
def test_lossy_anchors_hold(seed):
    """Under Bernoulli loss the engines draw from private streams, so only
    the loss-independent anchors are compared -- exactly the soak pair."""
    spec = scenario_config(
        seed=seed,
        cluster_count=4,
        members_per_cluster=10,
        crash_count=2,
        executions=4,
        loss_kind="bernoulli",
        loss_p=0.2,
    )
    assert _array_pair_violations(spec) == []


def test_bounded_loss_guaranteed_completeness():
    """Bounded adversarial loss within the retry budget: both engines must
    deliver completeness 1.0 (the paper's guarantee), checked via the
    differential pair."""
    spec = scenario_config(
        seed=4,
        cluster_count=4,
        members_per_cluster=8,
        crash_count=2,
        executions=4,
        loss_kind="bounded",
        loss_budget=1,
    )
    assert run_scenario(spec).properties.mean_completeness == 1.0
    assert _array_pair_violations(spec) == []


# ---------------------------------------------------------------------------
# Edge cases.
# ---------------------------------------------------------------------------


def _assert_detected_before_crash(result) -> None:
    """Under total loss every CH detects all its members in the first
    execution (own-CH detections need no messages), the members that
    crash later included.  Those detections precede the crashes, so no
    crash has a detection of its own: every latency is ``None``."""
    crashed = set(map(int, result.crash_times))
    assert crashed and crashed <= result.verdicts.predetected()
    assert all(v is None for v in result.detection_latencies.values())


def test_total_loss_detects_everyone_learns_nothing():
    """p=1 drops every message: each CH falsely detects all its members
    (no heartbeats arrive) but no verdict ever crosses a cluster, so
    observer completeness collapses."""
    config = _config(loss_probability=1.0, crash_count=2, engine="array")
    result = run_scenario(config)
    assert result.properties.mean_completeness < 0.1
    _assert_detected_before_crash(result)
    assert result.messages.deliveries == 0


def test_no_crashes_is_quiet():
    config = _config(crash_count=0, loss_probability=0.0)
    event = run_scenario(config)
    array = run_scenario(replace(config, engine="array"))
    assert verdict_records(event.tracer) == verdict_records(array.tracer) == []
    assert array.properties.mean_completeness == 1.0
    assert array.properties.accuracy_violations == ()
    assert array.crash_times == {}


def test_whole_cluster_crashed():
    """Crash count equal to the entire member population: every cluster
    empties out and only heads survive.  With all gateways dead no news
    can cross a boundary, so completeness stalls below 1.0 -- and both
    engines must agree on exactly how far each verdict spread."""
    config = _config(
        cluster_count=3,
        members_per_cluster=4,
        crash_count=12,
        executions=6,
        loss_probability=0.0,
    )
    event = run_scenario(config)
    array = run_scenario(replace(config, engine="array"))
    assert len(array.crash_times) == 12
    assert verdict_records(event.tracer) == verdict_records(array.tracer)
    assert event.properties.completeness == array.properties.completeness
    assert array.properties.mean_completeness < 1.0
    assert set(array.network.operational_ids()) == {0, 1, 2}


def test_distance_loss_runs():
    config = _config(
        loss_kind="distance",
        loss_probability=0.3,
        seed=6,
        engine="array",
    )
    result = run_scenario(config)
    assert 0.0 <= result.properties.mean_completeness <= 1.0
    assert result.messages.deliveries > 0


# ---------------------------------------------------------------------------
# Gilbert-Elliott loss: the stateful chains, vectorized.
# ---------------------------------------------------------------------------


def test_gilbert_array_run_accepted():
    config = _config(loss_kind="gilbert", engine="array")
    result = run_scenario(config)
    assert result.messages.deliveries > 0
    assert 0.0 <= result.properties.mean_completeness <= 1.0
    # Every crashed member is still detected by its own CH on time.
    for latency in result.detection_latencies.values():
        assert latency is not None


def test_gilbert_anchors_hold_at_972_nodes():
    """The soak pair under bursty loss at the paper's mid-scale field:
    12 clusters x (80 members + head) = 972 nodes.  The engines drive
    their chains from private streams, so only the loss-independent
    anchors are compared -- plus the energy ledger sub-pair."""
    spec = scenario_config(
        seed=17,
        cluster_count=12,
        members_per_cluster=80,
        crash_count=2,
        executions=3,
        loss_kind="gilbert",
        loss_p=0.15,
    )
    assert _array_pair_violations(spec) == []


def test_gilbert_never_leaves_good_is_lossless():
    """Degenerate chain: p_gb=0 pins every link in Good and p_good=0
    loses nothing, so both engines must be verdict-bit-identical even
    though each consumed its private stream for the draws."""
    params = (("p_good", 0.0), ("p_bad", 1.0), ("p_gb", 0.0), ("p_bg", 1.0))
    config = _config(loss_kind="gilbert", loss_params=params, seed=11)
    event = run_scenario(config)
    array = run_scenario(replace(config, engine="array"))
    assert verdict_records(event.tracer) == verdict_records(array.tracer)
    assert event.detection_latencies == array.detection_latencies
    assert array.messages.losses == 0


def test_gilbert_always_bad_drops_everything():
    """Degenerate chain: p_gb=1 enters Bad before the first draw (the
    transition precedes the loss draw) and p_bad=1 with p_bg=0 keeps
    every copy lost -- total blackout, like Bernoulli p=1."""
    params = (("p_good", 0.0), ("p_bad", 1.0), ("p_gb", 1.0), ("p_bg", 0.0))
    config = _config(loss_kind="gilbert", loss_params=params, engine="array")
    result = run_scenario(config)
    assert result.messages.deliveries == 0
    assert result.properties.mean_completeness < 0.1
    _assert_detected_before_crash(result)


def test_gilbert_single_link_ladder_matches_scalar_reference():
    """Sequential single-copy tape ladders on one chain cell consume the
    stream exactly like the scalar model (transition uniform, then loss
    uniform in the new state), so seeding both identically must
    reproduce the same delivered sequence -- correlated bursts included
    -- and so must one 200-attempt ladder."""
    from repro.sim.array_engine.loss import ArrayLossDraw
    from repro.sim.loss import GilbertElliottLoss

    params = dict(p_good=0.05, p_bad=0.9, p_gb=0.3, p_bg=0.25)
    array = ArrayLossDraw(
        "gilbert", tuple(params.items()),
        loss_probability=0.0, transmission_range=100.0,
        rng=np.random.default_rng(99),
    )
    scalar = GilbertElliottLoss(**params)
    scalar_rng = np.random.default_rng(99)
    array.ensure_chain("link", ())
    with array.tape() as tape:
        got = [bool(tape.ladder(1, "link", ())) for _ in range(200)]
    want = [
        not scalar.is_lost(0, 1, 10.0, float(i), scalar_rng)
        for i in range(200)
    ]
    assert got == want
    array.rng = np.random.default_rng(99)
    array.ensure_chain("ladder", ())
    with array.tape() as tape:
        assert tape.ladder_flags(200, "ladder", ()) == want
    assert any(got) and not all(got)  # the chain actually burst


def test_gilbert_stationary_loss_rate_matches_scalar():
    from repro.sim.array_engine.loss import ArrayLossDraw
    from repro.sim.loss import GilbertElliottLoss

    params = dict(p_good=0.02, p_bad=0.8, p_gb=0.07, p_bg=0.3)
    array = ArrayLossDraw(
        "gilbert", tuple(params.items()),
        loss_probability=0.0, transmission_range=100.0,
        rng=np.random.default_rng(0),
    )
    assert array.model.stationary_loss_rate == (
        GilbertElliottLoss(**params).stationary_loss_rate
    )


def test_gilbert_non_ergodic_chain_rejected():
    from repro.sim.array_engine.loss import ArrayLossDraw

    with pytest.raises(ConfigurationError, match="ergodic"):
        ArrayLossDraw(
            "gilbert", (("p_gb", 0.0), ("p_bg", 0.0)),
            loss_probability=0.0, transmission_range=100.0,
            rng=np.random.default_rng(0),
        )


# ---------------------------------------------------------------------------
# Energy: the batched ledger vs the scalar model.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("loss_kind", ["perfect", "bernoulli", "gilbert"])
def test_array_energy_bit_identical_to_scalar_replay(loss_kind):
    """Replaying the ledger's charge journal debit by debit through the
    scalar EnergyModel must reproduce every level, counter, total and
    the spread bit for bit -- under any loss kind."""
    from repro.sim.array_engine.energy import replay_journal

    config = _config(
        loss_kind=loss_kind,
        loss_probability=0.25,
        track_energy=True,
        engine="array",
        executions=5,
    )
    result = run_array_scenario(config, record_energy_journal=True)
    ledger = result.energy
    model = replay_journal(ledger)
    assert ledger.totals() == model.totals()
    assert ledger.spread() == model.spread()
    for node in range(ledger.node_count):
        entry = model._entry(node)
        assert entry.level == ledger.level[node]
        assert entry.tx_count == ledger.tx_count[node]
        assert entry.rx_count == ledger.rx_count[node]


def test_array_energy_counts_mirror_message_accounting():
    """One transmit debit per counted transmission, one receive debit per
    delivered copy -- the ledger population rule, under bursty loss."""
    config = _config(
        loss_kind="gilbert", track_energy=True, engine="array", executions=6
    )
    result = run_scenario(config)
    totals = result.energy.totals()
    assert totals["tx_total"] == float(result.messages.transmissions)
    assert totals["rx_total"] == float(result.messages.deliveries)
    assert result.energy.spread() > 0.0  # heads outspend members
    # The scoring surface behaves like the scalar model's.
    frac = result.energy.remaining_fraction(0, result.network.sim.now)
    assert 0.0 <= frac <= 1.0


def test_array_energy_disabled_by_default():
    result = run_scenario(_config(engine="array"))
    assert result.energy is None


# ---------------------------------------------------------------------------
# Distributed formation on the array engine.
# ---------------------------------------------------------------------------


def _formation_pair(**overrides):
    """Run the same protocol-formation scenario on both engines."""
    config = _config(formation="protocol", **overrides)
    event = run_scenario(config)
    array = run_scenario(replace(config, engine="array"))
    return event, array


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_protocol_formation_lossless_bit_identical(seed):
    """The acceptance lock: under lossless channels the vectorized
    formation must converge to the exact ArrayLayout of the event
    engine's ``run_formation`` -- every array and scalar -- and the FDS
    phase that follows must emit bit-identical verdict records."""
    event, array = _formation_pair(seed=seed, loss_probability=0.0)
    assert array.layout.mismatches(event.layout) == []
    assert verdict_records(event.tracer) == verdict_records(array.tracer)
    assert event.detection_latencies == array.detection_latencies
    assert event.properties.completeness == array.properties.completeness
    assert (
        event.properties.operational_count
        == array.properties.operational_count
    )


def test_protocol_formation_accepts_every_loss_kind():
    for loss_kind in ("perfect", "bernoulli", "bounded", "distance",
                      "gilbert"):
        config = _config(
            formation="protocol", engine="array",
            loss_kind=loss_kind, loss_probability=0.25, seed=5,
        )
        result = run_scenario(config)
        assert result.formation is not None
        assert 0.0 <= result.properties.mean_completeness <= 1.0


def test_protocol_formation_lossy_shape_invariants():
    """Under loss the engines' head sets legitimately diverge, so the
    array outcome is audited structurally instead (the soak's lossy
    leg)."""
    from repro.sim.array_engine.formation import formation_shape_violations

    for seed in range(8):
        config = _config(
            formation="protocol", engine="array",
            loss_probability=0.4, seed=seed, executions=3,
        )
        result = run_scenario(config)
        assert formation_shape_violations(result.formation) == []


def test_fds_rounds_with_nonidentity_heads_match_event():
    """Protocol-formed layouts carry arbitrary head NIDs; the round
    program's knowledge rows, energy debits and trace records must
    address heads by NID, not cluster index.  Form under loss (electing
    heads != 0..C-1), then run a *lossless* FDS phase over the same
    frozen layout on both engines and demand verdict bit-identity."""
    from repro.failure.faultload import make_random_crashes
    from repro.failure.injection import FailureInjector
    from repro.fds.config import FdsConfig
    from repro.fds.service import install_fds
    from repro.sim.array_engine.formation import formation_array_layout
    from repro.sim.array_engine.loss import ArrayLossDraw
    from repro.sim.array_engine.rounds import ArrayRoundEngine
    from repro.sim.loss import build_loss_model
    from repro.sim.network import NetworkConfig, build_network
    from repro.sim.trace import RecordingTracer
    from repro.types import NodeId
    from repro.util.geometry import Vec2

    lossy = run_scenario(_config(
        formation="protocol", engine="array",
        loss_probability=0.4, seed=2, crash_count=0, executions=1,
    ))
    outcome = lossy.formation
    heads = [int(h) for h in outcome.head_ids()]
    assert heads != list(range(len(heads)))  # the interesting case

    array_layout = formation_array_layout(outcome)
    cluster_layout = array_layout.cluster_layout()
    fds = FdsConfig()
    executions = 4

    positions = {
        NodeId(i): Vec2(float(outcome.xs[i]), float(outcome.ys[i]))
        for i in range(outcome.node_count)
    }
    event_tracer = RecordingTracer()
    network = build_network(
        positions,
        NetworkConfig(
            transmission_range=outcome.radius, loss_probability=0.0,
            seed=0,
        ),
        loss_model=build_loss_model("perfect", ()),
        tracer=event_tracer,
    )
    deployment = install_fds(network, cluster_layout, fds, start_time=0.0)
    injector = FailureInjector(network, fds, fds_start=0.0)
    candidates = tuple(
        nid for nid in network.operational_ids()
        if nid not in cluster_layout.heads
    )
    faultload = make_random_crashes(
        candidates, 3, fds, RngFactory(2).stream("faultload"),
        fds_start=0.0, first_execution=1, last_execution=executions - 2,
    )
    faultload.inject(injector)
    deployment.run_executions(executions)

    array_tracer = RecordingTracer()
    crash_exec = np.full(outcome.node_count, executions + 1, dtype=np.int64)
    for event in faultload.events:
        crash_exec[int(event.node_id)] = fds.crash_execution(0.0, event.time)
    engine = ArrayRoundEngine(
        array_layout, fds,
        ArrayLossDraw(
            "perfect", (), loss_probability=0.0,
            transmission_range=outcome.radius,
            rng=np.random.default_rng(0),
        ),
        array_tracer, crash_exec, fds_start=0.0,
    )
    for e in range(executions):
        engine.run_execution(e)

    assert verdict_records(event_tracer) == verdict_records(array_tracer)
    assert len(faultload.events) == 3


# ---------------------------------------------------------------------------
# Formation edge cases, on both engines.
# ---------------------------------------------------------------------------


def _formation_layouts_for_field(xs, ys, radius, loss_p=0.0, iterations=3):
    """Run formation over an explicit field on both engines; return the
    two layouts, read as ClusterLayouts."""
    from repro.cluster.formation import FormationConfig, run_formation
    from repro.sim.array_engine.formation import (
        formation_array_layout,
        run_array_formation,
    )
    from repro.sim.array_engine.loss import ArrayLossDraw
    from repro.sim.loss import build_loss_model
    from repro.sim.network import NetworkConfig, build_network
    from repro.types import NodeId
    from repro.util.geometry import Vec2

    config = FormationConfig(iterations=iterations)
    positions = {
        NodeId(i): Vec2(float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))
    }
    kind = "perfect" if loss_p == 0.0 else "bernoulli"
    params = () if loss_p == 0.0 else (("p", loss_p),)
    network = build_network(
        positions,
        NetworkConfig(
            transmission_range=radius, loss_probability=loss_p, seed=0,
        ),
        loss_model=build_loss_model(kind, params),
    )
    event_layout = run_formation(network, config).cluster_layout()

    loss = ArrayLossDraw(
        kind, params, loss_probability=loss_p, transmission_range=radius,
        rng=np.random.default_rng(1),
    )
    outcome = run_array_formation(
        np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), radius,
        config, loss, np.random.default_rng(2),
    )
    return event_layout, formation_array_layout(outcome).cluster_layout()


def test_formation_single_node_field():
    event_layout, array_layout = _formation_layouts_for_field(
        [0.0], [0.0], RADIUS
    )
    assert event_layout.clusters == array_layout.clusters
    assert list(array_layout.clusters) == [0]
    assert array_layout.clusters[0].members == frozenset({0})
    assert not array_layout.unclustered


def test_formation_fully_connected_single_cluster():
    """Everyone in range of everyone: exactly one cluster, headed by the
    lowest NID, identical on both engines."""
    rng = np.random.default_rng(42)
    xs = rng.uniform(0, 60, size=30)
    ys = rng.uniform(0, 60, size=30)
    event_layout, array_layout = _formation_layouts_for_field(xs, ys, RADIUS)
    assert event_layout.clusters == array_layout.clusters
    assert event_layout.boundaries == array_layout.boundaries
    assert list(array_layout.clusters) == [0]
    assert array_layout.clusters[0].members == frozenset(range(30))


def test_formation_total_loss_terminates_with_singletons():
    """p=1 drops every formation message: every node eventually declares
    itself (nobody suppresses it), no join ever lands, and both engines
    -- whose private draws all lose regardless of the uniforms -- end at
    N singleton clusters."""
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 200, size=12)
    ys = rng.uniform(0, 200, size=12)
    event_layout, array_layout = _formation_layouts_for_field(
        xs, ys, RADIUS, loss_p=1.0
    )
    assert event_layout.clusters == array_layout.clusters
    assert sorted(array_layout.clusters) == list(range(12))
    for head, cluster in array_layout.clusters.items():
        assert cluster.members == frozenset({head})
    assert not array_layout.boundaries


def test_formation_degenerate_extra_iterations_are_noops():
    """Once every node is marked, further F4 iterations change nothing:
    iterations=3 and iterations=8 converge to the same layout on both
    engines."""
    rng = np.random.default_rng(7)
    xs = rng.uniform(0, 300, size=40)
    ys = rng.uniform(0, 300, size=40)
    base_event, base_array = _formation_layouts_for_field(
        xs, ys, RADIUS, iterations=3
    )
    long_event, long_array = _formation_layouts_for_field(
        xs, ys, RADIUS, iterations=8
    )
    assert base_event.clusters == long_event.clusters == long_array.clusters
    assert base_array.clusters == long_array.clusters
    assert base_array.boundaries == long_array.boundaries
    assert base_array.unclustered == long_array.unclustered


def test_formation_differential_pair_clean():
    """The soak's ``differential:formation`` pair on representative
    specs: lossless cross-engine bit-identity plus the lossy structural
    audit."""
    from repro.audit.differential import formation_violations

    for spec in (
        scenario_config(seed=21, cluster_count=3, members_per_cluster=9,
                        crash_count=2, executions=4, loss_kind="perfect"),
        scenario_config(seed=33, cluster_count=4, members_per_cluster=8,
                        crash_count=1, executions=4, loss_kind="bernoulli",
                        loss_p=0.3),
    ):
        assert formation_violations(spec) == []


# ---------------------------------------------------------------------------
# Guard rails: unsupported features fail loudly, not silently wrong.
# ---------------------------------------------------------------------------


def test_unknown_engine_rejected():
    with pytest.raises(ExperimentError, match="engine"):
        _config(engine="quantum")


@pytest.mark.parametrize("field, name", [
    (dict(cluster_count=0), "cluster_count"),
    (dict(members_per_cluster=0), "members_per_cluster"),
    (dict(transmission_range=0.0), "radius"),
    (dict(spacing_factor=2.0), "spacing_factor"),
])
@pytest.mark.parametrize("formation", ["oracle", "protocol"])
def test_both_engines_reject_the_same_fields(field, name, formation):
    """One lattice contract: what ``multi_cluster_field`` refuses, the
    array layout refuses with the same typed error and message (it used
    to run 0-node and memberless fields to a "result")."""
    raised = {}
    for engine in ("event", "array"):
        config = _config(
            crash_count=0, engine=engine, formation=formation, **field
        )
        with pytest.raises((ConfigurationError, TopologyError), match=name) as info:
            run_scenario(config)
        raised[engine] = (type(info.value), str(info.value))
    assert raised["event"] == raised["array"]
