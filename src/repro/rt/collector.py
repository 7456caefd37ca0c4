"""Spool collection: merge per-node JSONL spools into one trace.

Each node's :class:`~repro.rt.substrate.UdpLink` writes its own spool
(crash isolation: a dead node's records are already on disk), plus one
``run.jsonl`` with the run-level ``meta.scenario`` record.  The
analyzers want a single time-ordered stream, and each individual spool
is already time-ordered (a node emits monotonically), so a heap merge
reconstructs the global order in one streaming pass -- the merged file
is byte-compatible with a :class:`~repro.obs.spool.SpoolingTracer`
spool and feeds ``repro trace summarize|timeline|lineage|latency``
unchanged.
"""

from __future__ import annotations

import heapq
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.errors import ConfigurationError
from repro.sim.trace import TraceRecord, iter_jsonl
from repro.obs.spool import iter_spool

#: Filename of the merged trace inside a spool directory.
MERGED_NAME = "merged.jsonl"


def spool_files(spool_dir: Union[str, Path]) -> List[Path]:
    """The per-node and run spools of one runtime run, sorted by name."""
    spool_dir = Path(spool_dir)
    if not spool_dir.is_dir():
        raise ConfigurationError(f"no spool directory at {spool_dir}")
    return sorted(
        path
        for path in spool_dir.glob("*.jsonl")
        if path.name != MERGED_NAME
    )


def iter_merged(spool_dir: Union[str, Path]) -> Iterable[TraceRecord]:
    """Stream every record of a spool directory in global time order."""
    streams = [iter_spool(path) for path in spool_files(spool_dir)]
    # Tie-break on the record kind so the merge is deterministic for
    # equal timestamps regardless of heap internals.
    return heapq.merge(
        *streams, key=lambda record: (record.time, record.kind)
    )


def merge_spools(
    spool_dir: Union[str, Path], out: Optional[Path] = None
) -> Path:
    """Write the merged trace; returns its path.

    ``out`` defaults to ``<spool_dir>/merged.jsonl``.  Existing merges
    are overwritten (re-merging after a rerun must not append).
    """
    spool_dir = Path(spool_dir)
    target = out if out is not None else spool_dir / MERGED_NAME
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for line in iter_jsonl(iter_merged(spool_dir)):
            handle.write(line)
            handle.write("\n")
    return target
