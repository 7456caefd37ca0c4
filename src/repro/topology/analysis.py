"""Structural analysis of unit-disk graphs.

Connectivity matters for completeness: the paper defines an "operational
node" as one neither crashed nor *partitioned from the network*, so the
metrics layer uses these helpers to exclude partitioned nodes from
completeness accounting.
"""

from __future__ import annotations

from collections import deque
from statistics import mean
from typing import Dict, Iterable, List, Set, Tuple

from repro.topology.graph import UnitDiskGraph
from repro.types import NodeId


def connected_components(graph: UnitDiskGraph) -> List[Set[NodeId]]:
    """Connected components, largest first (BFS, no recursion limits)."""
    unvisited = set(graph.nodes())
    components: List[Set[NodeId]] = []
    while unvisited:
        start = min(unvisited)
        component = {start}
        queue = deque([start])
        unvisited.discard(start)
        while queue:
            current = queue.popleft()
            for neighbor in graph.neighbors(current):
                if neighbor in unvisited:
                    unvisited.discard(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(component)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def is_connected(graph: UnitDiskGraph) -> bool:
    """Whether the graph is a single connected component."""
    return len(connected_components(graph)) == 1


def isolated_nodes(graph: UnitDiskGraph) -> Tuple[NodeId, ...]:
    """Nodes with no neighbors (outside everyone's transmission range).

    The clustering algorithm covers "all the nodes except the isolated
    ones"; tests use this to state that invariant precisely.
    """
    return tuple(nid for nid in graph.nodes() if graph.degree(nid) == 0)


def degree_statistics(graph: UnitDiskGraph) -> Dict[str, float]:
    """Min / mean / max degree -- the density figures of merit."""
    degrees = [graph.degree(nid) for nid in graph.nodes()]
    return {
        "min": float(min(degrees)),
        "mean": float(mean(degrees)),
        "max": float(max(degrees)),
    }


def largest_component(graph: UnitDiskGraph) -> Set[NodeId]:
    """The node set of the largest connected component."""
    return connected_components(graph)[0]


def reachable_from(graph: UnitDiskGraph, sources: Iterable[NodeId]) -> Set[NodeId]:
    """All nodes reachable from any of ``sources`` (including themselves)."""
    seen: Set[NodeId] = set()
    queue = deque()
    for source in sources:
        if source not in seen:
            seen.add(source)
            queue.append(source)
    while queue:
        current = queue.popleft()
        for neighbor in graph.neighbors(current):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen
