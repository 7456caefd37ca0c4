"""Cluster-map topology in the trace: emission and reconstruction.

The spool is self-describing for *time* (``meta.scenario``) but, before
this module, said nothing about *structure* -- which nodes head which
clusters, who the deputies are, where the GW/BGW forwarding ladders sit.
The dashboard's cluster map needs exactly that, so runs now stamp one
``meta.topology`` record right after ``meta.scenario``.  Every engine
(event, array, rt) runs on an
:class:`~repro.sim.array_engine.layout.ArrayLayout`, so one serializer
writes it: :func:`array_topology_detail`, from the flat arrays and the
node positions they carry.

:func:`topology_view` replays a record stream into a
:class:`~repro.obs.analyze.TopologyView` -- cluster membership crossed
with the ground-truth ``sim.crash`` stream and the ``fds.detection``
verdicts, so the map can show crashed-but-undetected vs detected nodes;
the per-record rule is :class:`~repro.obs.analyze.TopologyReducer`, next
to the other reducers.  Spools written before this record existed
degrade gracefully (``found=False``; crash/detection status is still
reported per node).

Everything here is duck-typed over the layout objects (no imports from
``repro.cluster`` or ``repro.sim.array_engine``) to keep ``repro.obs``
dependency-free of the engines it observes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.obs.analyze import (
    TopologyReducer,
    TopologyView,
    meta_payload,
    reduce_records,
)
from repro.sim.trace import TraceRecord

#: Coordinate rounding in the emitted record (display precision; keeps a
#: million-node topology line ~40% smaller than full float reprs).
_COORD_DECIMALS = 4
_COORD_SCALE = 10.0 ** _COORD_DECIMALS


def _round_coords(values) -> List[float]:
    """``[round(v, _COORD_DECIMALS) for v in values]``, vectorized.

    ``round`` rounds the exact value of ``v`` and returns the double
    nearest the decimal result.  With ``k = rint(v * 1e4)`` an integer
    below 2**52, ``k / 1e4`` *is* that nearest double (IEEE division is
    correctly rounded), and ``k`` is ``round``'s integer unless the
    inexact product ``v * 1e4`` lies near a half-integer.  Those values,
    and non-finite or huge ones, go through ``round`` itself.  (np.round
    is not correctly rounded, and the array spool's bytes are pinned.)
    """
    exact = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = exact * _COORD_SCALE
        k = np.rint(scaled)
        near_half = (
            np.abs(np.abs(scaled - k) - 0.5) <= 2 * np.spacing(np.abs(scaled))
        )
        fallback = near_half | ~(np.abs(scaled) < 2.0 ** 52)
    out = (k / _COORD_SCALE).tolist()
    for i in np.flatnonzero(fallback).tolist():
        out[i] = round(float(exact[i]), _COORD_DECIMALS)
    return out


# ----------------------------------------------------------------------
# Emission side
# ----------------------------------------------------------------------
def array_topology_detail(layout) -> Dict[str, object]:
    """``meta.topology`` detail from an :class:`ArrayLayout`.

    Node index is NID.  All values are plain JSON types: members include
    the head NID (as :class:`~repro.cluster.state.Cluster` members do),
    boundary forwarders are member NIDs (PAD slots dropped) in ladder
    order, and unclustered nodes are those with ``assign == PAD``.
    """
    pad = -1  # repro.sim.array_engine.layout.PAD
    # Whole arrays to Python lists once: ``int()``/``float()`` on 10^5
    # numpy scalars one by one dominated this function.
    head_nids = layout.head_nids.tolist()
    member_rows = layout.members.tolist()
    clusters = [
        {
            "head": head,
            "members": sorted({head, *(m for m in row if m != pad)}),
            "deputies": [d for d in deputies if d != pad],
        }
        for head, row, deputies in zip(
            head_nids, member_rows, layout.deputies.tolist()
        )
    ]
    clusters.sort(key=lambda entry: entry["head"])
    boundaries = [
        {
            "owner": head_nids[owner],
            "peer": head_nids[peer],
            "forwarders": [
                member_rows[owner][slot] for slot in slots if slot != pad
            ],
        }
        for owner, peer, slots in zip(
            layout.boundary_owner.tolist(),
            layout.boundary_peer.tolist(),
            layout.boundary_gateway_slots.tolist(),
        )
    ]
    boundaries.sort(key=lambda entry: (entry["owner"], entry["peer"]))
    return {
        "clusters": clusters,
        "boundaries": boundaries,
        "unclustered": (layout.assign == pad).nonzero()[0].tolist(),
        "nodes": list(range(layout.node_count)),
        "x": _round_coords(layout.xs),
        "y": _round_coords(layout.ys),
    }


# ----------------------------------------------------------------------
# Reconstruction side
# ----------------------------------------------------------------------
def topology_view(records: Iterable[TraceRecord]) -> TopologyView:
    """One-pass reduction of a record stream to a :class:`TopologyView`."""
    return reduce_records(records, TopologyReducer())[0]


def topology_payload(view: TopologyView) -> Dict[str, object]:
    """The ``/api/topology`` document: per-node rows plus the cluster map."""
    roles = view.roles()
    owners = view.cluster_of()
    node_ids = sorted(
        set(view.positions)
        | set(roles)
        | set(view.crash_times)
        | set(view.first_detection)
    )
    nodes = []
    for node in node_ids:
        position = view.positions.get(node)
        nodes.append({
            "id": node,
            "role": roles.get(node, "member"),
            "cluster": owners.get(node),
            "x": None if position is None else position[0],
            "y": None if position is None else position[1],
            "crashed_at": view.crash_times.get(node),
            "detected_at": view.first_detection.get(node),
        })
    return {
        "found": view.found,
        "meta": meta_payload(view.meta),
        "clusters": [
            {
                "head": int(c["head"]),
                "size": len(c["members"]),
                "deputies": [int(d) for d in c["deputies"]],
            }
            for c in view.clusters
        ],
        "boundaries": view.boundaries,
        "unclustered": view.unclustered,
        "nodes": nodes,
        "crashed": len(view.crash_times),
        "detected": len(view.first_detection),
    }
