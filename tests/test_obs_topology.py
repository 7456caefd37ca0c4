"""The ``meta.topology`` record: emission by every engine, reconstruction.

The record makes the spool self-describing for *structure* the way
``meta.scenario`` makes it self-describing for *time*: the dashboard's
cluster map is rebuilt from the spool alone.  The cross-engine contract
is that the event and array engines serialize byte-identical details for
the same deployment, so topology never perturbs trace fingerprints
differentially.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import EventEngine, ScenarioConfig, run_scenario
from repro.obs.analyze import TOPOLOGY_KIND, TopologyView
from repro.obs.spool import SpoolingTracer, read_spool
from repro.obs.topology import (
    _round_coords,
    array_topology_detail,
    topology_payload,
    topology_view,
)
from repro.rt.runtime import RtRuntime
from repro.sim.trace import TraceRecord, record_line
from repro.topology.generators import multi_cluster_field
from repro.util.rng import RngFactory


def _spool_scenario(tmp_path, **overrides):
    config = ScenarioConfig(
        cluster_count=2, members_per_cluster=6, crash_count=1,
        executions=2, seed=7, **overrides,
    )
    path = tmp_path / "t.jsonl"
    with SpoolingTracer(path) as tracer:
        run_scenario(config, tracer=tracer)
    return path


class TestEmission:
    def test_event_engine_emits_one_record_after_meta(self, tmp_path):
        records = read_spool(_spool_scenario(tmp_path))
        kinds = [r.kind for r in records[:2]]
        assert kinds == ["meta.scenario", TOPOLOGY_KIND]
        assert sum(1 for r in records if r.kind == TOPOLOGY_KIND) == 1
        detail = records[1].detail
        assert len(detail["clusters"]) == 2
        assert len(detail["nodes"]) == len(detail["x"]) == len(detail["y"])

    def test_array_engine_emits_identical_shape(self, tmp_path):
        records = read_spool(_spool_scenario(tmp_path, engine="array"))
        topo = next(r for r in records if r.kind == TOPOLOGY_KIND)
        assert set(topo.detail) == {
            "clusters", "boundaries", "unclustered", "nodes", "x", "y",
        }
        assert len(topo.detail["clusters"]) == 2

    def test_engines_serialize_identical_topology(self, tmp_path):
        """Same deployment -> byte-identical detail, so the record can
        live inside fingerprinted differential traces."""
        event = read_spool(_spool_scenario(tmp_path / "e"))
        array = read_spool(
            _spool_scenario(tmp_path / "a", engine="array")
        )
        pick = lambda records: next(
            r.detail for r in records if r.kind == TOPOLOGY_KIND
        )
        assert json.dumps(pick(event), sort_keys=True) \
            == json.dumps(pick(array), sort_keys=True)


def per_element_topology_detail(layout):
    """``array_topology_detail`` as it was before it went through
    ``ndarray.tolist()``: one ``int()``/``float()`` per numpy scalar."""
    pad = -1
    head_nids = [int(h) for h in layout.head_nids]
    clusters = []
    for c, head in enumerate(head_nids):
        row = layout.members[c]
        mask = layout.member_mask[c]
        members = sorted({head, *(int(m) for m in row[mask])})
        deputies = [int(d) for d in layout.deputies[c] if int(d) != pad]
        clusters.append(
            {"head": head, "members": members, "deputies": deputies}
        )
    clusters.sort(key=lambda entry: entry["head"])
    boundaries = []
    for b in range(len(layout.boundary_owner)):
        owner_cluster = int(layout.boundary_owner[b])
        forwarders = [
            int(layout.members[owner_cluster][int(slot)])
            for slot in layout.boundary_gateway_slots[b]
            if int(slot) != pad
        ]
        boundaries.append({
            "owner": head_nids[owner_cluster],
            "peer": head_nids[int(layout.boundary_peer[b])],
            "forwarders": forwarders,
        })
    boundaries.sort(key=lambda entry: (entry["owner"], entry["peer"]))
    unclustered = sorted(
        int(n)
        for n in range(layout.node_count)
        if int(layout.assign[n]) == pad
    )
    return {
        "clusters": clusters,
        "boundaries": boundaries,
        "unclustered": unclustered,
        "nodes": list(range(layout.node_count)),
        "x": [round(float(v), 4) for v in layout.xs],
        "y": [round(float(v), 4) for v in layout.ys],
    }


class TestArrayDetail:
    @pytest.mark.parametrize("overrides", [
        dict(cluster_count=9, members_per_cluster=20),
        # Lossy two-iteration formation: a head with NID 17, twelve
        # stragglers, ragged rows, short gateway ladders.
        dict(cluster_count=4, members_per_cluster=12, seed=1,
             formation="protocol", formation_iterations=2,
             loss_probability=0.3),
    ], ids=["oracle", "protocol"])
    def test_list_built_detail_equals_per_element_detail(self, overrides):
        config = dict(
            cluster_count=2, members_per_cluster=6, crash_count=1,
            executions=2, seed=7, engine="array",
        )
        config.update(overrides)
        layout = run_scenario(ScenarioConfig(**config)).layout
        got = array_topology_detail(layout)
        want = per_element_topology_detail(layout)
        assert got == want
        # Plain JSON types only (no numpy scalar compares equal *and*
        # serializes), and the very bytes the spool pins.
        assert json.dumps(got, sort_keys=True) \
            == json.dumps(want, sort_keys=True)
        if "formation" in overrides:
            assert got["unclustered"]
            assert max(c["head"] for c in got["clusters"]) \
                >= len(got["clusters"])


def reference_layout_topology_detail(layout, positions):
    """The retired second serializer: ``meta.topology`` detail from a
    ``ClusterLayout`` plus the placement (``Vec2`` per NID)."""
    clusters = [
        {
            "head": int(head),
            "members": sorted(int(m) for m in cluster.members),
            "deputies": [int(d) for d in cluster.deputies],
        }
        for head, cluster in sorted(layout.clusters.items())
    ]
    boundaries = [
        {
            "owner": int(owner),
            "peer": int(peer),
            "forwarders": [int(f) for f in boundary.all_forwarders],
        }
        for (owner, peer), boundary in sorted(layout.boundaries.items())
    ]
    nodes = sorted(int(n) for n in positions)
    return {
        "clusters": clusters,
        "boundaries": boundaries,
        "unclustered": sorted(int(n) for n in layout.unclustered),
        "nodes": nodes,
        "x": _round_coords([positions[n].x for n in nodes]),
        "y": _round_coords([positions[n].y for n in nodes]),
    }


#: Event-oracle, lossy event-protocol and rt (22-node) fields.
SERIALIZED_FIELDS = [
    *(
        (EventEngine, dict(cluster_count=c, members_per_cluster=m, seed=seed))
        for c, m in ((2, 6), (9, 20), (5, 14))
        for seed in (0, 7)
    ),
    *(
        (EventEngine, dict(
            cluster_count=4, members_per_cluster=12, seed=seed,
            formation="protocol", formation_iterations=2,
            loss_probability=0.3,
        ))
        for seed in range(4)
    ),
    *(
        (RtRuntime, dict(cluster_count=2, members_per_cluster=10, seed=seed))
        for seed in range(3)
    ),
]


class TestOneSerializer:
    @pytest.mark.parametrize("engine_class, fields", SERIALIZED_FIELDS)
    def test_bytes_equal_the_retired_serializer(self, engine_class, fields):
        config = ScenarioConfig(crash_count=1, executions=2, **fields)
        engine = engine_class(config)
        engine.prepare()
        positions = multi_cluster_field(
            config.cluster_count, config.members_per_cluster,
            config.transmission_range,
            RngFactory(config.seed).stream("placement"),
            spacing_factor=config.spacing_factor,
        )
        want = reference_layout_topology_detail(
            engine.layout.cluster_layout(), positions
        )
        assert record_line(0.0, TOPOLOGY_KIND, None, engine.topology_detail()) \
            == record_line(0.0, TOPOLOGY_KIND, None, want)


#: Exact and near halves of the fourth decimal: where the scaled
#: product ``v * 1e4`` may round the other way from ``v`` itself.
HALVES = st.integers(-10 ** 9, 10 ** 9).map(lambda n: (n + 0.5) / 1e4)
COORDS = st.one_of(
    st.floats(),
    HALVES,
    HALVES.map(lambda v: math.nextafter(v, math.inf)),
    HALVES.map(lambda v: math.nextafter(v, -math.inf)),
)


class TestCoordinateRounding:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(COORDS, max_size=40))
    @example(values=[
        0.0, -0.0, -0.00001, 0.00005, -0.00005, 0.03125, -0.03125, 2.675,
        1.00005, 5e-324, 1e300, -1e300, 2 ** 52 / 1e4, 2 ** 53 / 1e4,
        math.inf, -math.inf, math.nan,
    ])
    def test_vectorized_rounding_equals_round(self, values):
        """Value, sign of zero and type: the bytes ``json.dumps`` writes."""
        got = _round_coords(values)
        assert [repr(v) for v in got] == [repr(round(v, 4)) for v in values]
        assert all(type(v) is float for v in got)


class TestReconstruction:
    def test_view_crosses_topology_with_crash_stream(self, tmp_path):
        view = topology_view(
            iter(read_spool(_spool_scenario(tmp_path)))
        )
        assert view.found and view.meta.found
        assert len(view.positions) == view.meta.nodes
        roles = view.roles()
        heads = {c["head"] for c in view.clusters}
        assert {n for n, role in roles.items() if role == "head"} == heads
        owners = view.cluster_of()
        for head in heads:
            assert owners[head] == head
        assert len(view.crash_times) == 1
        crashed = next(iter(view.crash_times))
        # The injected crash was detected; latency is positive.
        assert view.first_announcement[crashed] > view.crash_times[crashed]

    def test_role_precedence_head_beats_deputy_beats_gateway(self):
        view = TopologyView(
            clusters=[
                {"head": 1, "members": [1, 2, 3], "deputies": [2]},
                {"head": 5, "members": [5, 6], "deputies": [6]},
            ],
            boundaries=[{"owner": 1, "peer": 5, "forwarders": [2, 3]}],
            unclustered=[9],
            positions={n: (0.0, 0.0) for n in (1, 2, 3, 5, 6, 9)},
        )
        roles = view.roles()
        assert roles[1] == "head"
        assert roles[2] == "deputy"     # deputy wins over gateway
        assert roles[3] == "gateway"
        assert roles[6] == "deputy"
        assert roles[9] == "unclustered"

    def test_pre_topology_spool_degrades_gracefully(self):
        records = [
            TraceRecord(time=0.0, kind="meta.scenario", node=None,
                        detail={"nodes": 2, "phi": 30.0, "thop": 0.5,
                                "seed": 0, "executions": 1}),
            TraceRecord(time=3.0, kind="sim.crash", node=1, detail={}),
            TraceRecord(time=4.0, kind="fds.detection", node=0,
                        detail={"target": 1}),
        ]
        view = topology_view(iter(records))
        assert view.found is False
        payload = topology_payload(view)
        assert payload["found"] is False
        assert payload["crashed"] == payload["detected"] == 1
        row = next(n for n in payload["nodes"] if n["id"] == 1)
        assert row["x"] is None and row["crashed_at"] == 3.0
        assert row["detected_at"] == 4.0

    def test_payload_clusters_and_counts(self, tmp_path):
        view = topology_view(
            iter(read_spool(_spool_scenario(tmp_path)))
        )
        payload = topology_payload(view)
        assert payload["found"] is True
        assert sum(c["size"] for c in payload["clusters"]) \
            + len(payload["unclustered"]) == view.meta.nodes
        assert payload["meta"]["nodes"] == view.meta.nodes
        for row in payload["nodes"]:
            assert row["role"] in (
                "head", "deputy", "gateway", "member", "unclustered"
            )
