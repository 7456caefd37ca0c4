"""Centralized (oracle) cluster construction from the ground-truth graph.

This computes the *fixed point* the distributed formation protocol converges
to under perfect links: iterative lowest-ID clustering (Baker/Ephremides,
Gerla/Tsai -- the algorithms the paper's own variant descends from), plus
the paper's redundancy roles:

1. Repeatedly: among unmarked nodes, every node whose NID is the lowest in
   its unmarked one-hop neighborhood declares itself CH; its unmarked
   neighbors join it (the lowest such CH) as members.  Iterate until no
   unmarked node has an unmarked neighbor; isolated nodes stay unclustered.
2. Deputies (F2) per cluster, ranked by coverage: (distance to CH
   ascending, in-cluster degree descending, NID).  Section 4.2's
   reachability discussion (Figure 2(a)) shows a DCH fails by being too
   far from the CH to reach all members, so closer candidates rank first.
3. Boundaries (F1/F3): for every ordered pair of clusters where the owner
   has a member adjacent to the peer CH, a :class:`Boundary` owned by that
   side, whose candidates (such members) rank by (the larger of their two
   CH distances, NID) -- the most central node of the lens-shaped overlap
   hears both CHs most reliably.  The first is the GW, the next
   ``max_backups`` the ranked BGWs (rank k waits ``k * 2*Thop``).

The arrays are computed once, by
:func:`repro.sim.array_engine.layout.geometric_layout` over the graph's
unit-disk edge list.  The oracle sets up analysis and benchmark scenarios
deterministically; the distributed protocol in
:mod:`repro.cluster.formation` is tested for convergence *to this oracle's
output* under perfect links.
"""

from __future__ import annotations

from repro.cluster.state import ClusterLayout
from repro.topology.graph import UnitDiskGraph
from repro.util.validation import check_int_at_least

#: Default number of deputies per cluster.  Two gives the takeover chain a
#: backup without meaningfully increasing R-3 traffic.
DEFAULT_DEPUTY_COUNT = 2

#: Default cap on BGWs per boundary; the analysis in Section 5 of the paper
#: and our ablations vary this as ``n``.
DEFAULT_MAX_BACKUPS = 2


def build_clusters(
    graph: UnitDiskGraph,
    deputy_count: int = DEFAULT_DEPUTY_COUNT,
    max_backups: int = DEFAULT_MAX_BACKUPS,
) -> ClusterLayout:
    """Full oracle layout: partition + deputies + boundaries, validated
    against ``graph``."""
    # Imported here: the array engine package imports the experiment
    # runner, which imports this module.
    from repro.sim.array_engine.layout import geometric_layout

    check_int_at_least("deputy_count", deputy_count, 0)
    check_int_at_least("max_backups", max_backups, 0)
    xs, ys, edges = graph.field()
    layout = geometric_layout(
        xs, ys, graph.radius, edges, deputy_count, max_backups
    )
    return layout.cluster_layout(graph)
