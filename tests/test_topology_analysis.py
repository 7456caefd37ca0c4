"""Tests for topology analysis (connectivity, components)."""

import re
from pathlib import Path

import networkx as nx

from repro.topology.analysis import (
    connected_components,
    degree_statistics,
    is_connected,
    isolated_nodes,
    largest_component,
    reachable_from,
)
from repro.topology.graph import UnitDiskGraph
from repro.topology.placement import uniform_rect_placement
from repro.util.geometry import Vec2


def nx_graph(graph):
    """The networkx oracle for ``graph``, built from its public queries."""
    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from((a, b) for a in graph.nodes() for b in graph.neighbors(a))
    return g


def two_islands():
    positions = {
        0: Vec2(0, 0), 1: Vec2(50, 0), 2: Vec2(100, 0),
        3: Vec2(1000, 0), 4: Vec2(1050, 0),
        5: Vec2(5000, 5000),  # isolated
    }
    return UnitDiskGraph(positions, 100.0)


class TestComponents:
    def test_island_decomposition(self):
        g = two_islands()
        components = connected_components(g)
        assert [sorted(c) for c in components] == [[0, 1, 2], [3, 4], [5]]

    def test_largest_first(self):
        g = two_islands()
        assert largest_component(g) == {0, 1, 2}

    def test_is_connected(self):
        assert not is_connected(two_islands())
        g = UnitDiskGraph({0: Vec2(0, 0), 1: Vec2(50, 0)}, 100.0)
        assert is_connected(g)

    def test_isolated_nodes(self):
        assert isolated_nodes(two_islands()) == (5,)

    def test_matches_networkx(self, rng):
        placement = uniform_rect_placement(120, 600.0, 600.0, rng)
        g = UnitDiskGraph(placement, 90.0)
        ours = sorted(sorted(c) for c in connected_components(g))
        theirs = sorted(
            sorted(c) for c in nx.connected_components(nx_graph(g))
        )
        assert ours == theirs


class TestReachability:
    def test_reachable_from_single_source(self):
        g = two_islands()
        assert reachable_from(g, [0]) == {0, 1, 2}

    def test_reachable_from_multiple_sources(self):
        g = two_islands()
        assert reachable_from(g, [0, 3]) == {0, 1, 2, 3, 4}

    def test_source_always_included(self):
        g = two_islands()
        assert reachable_from(g, [5]) == {5}


class TestDegreeStats:
    def test_values(self):
        g = two_islands()
        stats = degree_statistics(g)
        assert stats["min"] == 0.0
        assert stats["max"] == 2.0

    def test_edge_count_matches_networkx(self):
        g = two_islands()
        assert nx_graph(g).number_of_edges() == g.edge_count()


def test_networkx_stays_off_the_import_path_of_a_run():
    # networkx is a test-only oracle: no file under src/repro imports it,
    # so no CLI call, campaign worker or benchmark child can pay for it.
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    importing = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if re.search(r"^\s*(import|from)\s+networkx\b", path.read_text(), re.M)
    ]
    assert importing == []
