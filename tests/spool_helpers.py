"""Spool inputs shared by the obs, serve, CLI and determinism tests."""

import gzip

from repro.sim.trace import TraceRecord

#: The benchmark's ``trace_pipeline`` scenario at seed 1 (~44 k records);
#: the golden spool and endpoint hashes are taken over its trace.
PIPELINE = dict(
    cluster_count=6, members_per_cluster=24, executions=4,
    crash_count=5, loss_probability=0.1, engine="event", seed=1,
)


def write_hostile_spool(path) -> bytes:
    """Three records among lines that are valid JSON but no object, not
    UTF-8, an object without a kind or with one that is no string, a time that is no number or
    past the float range, a node that is neither an integer nor null,
    blank, and torn."""
    data = b"".join([
        b'{"time": 1.0, "kind": "a", "node": null}\n',
        b"123\n",
        b"[1, 2]\n",
        b'{"time": 2.0, "kind": "b", "node": 1}\n',
        b'{"time": 2.5, "kind": "b\xff", "node": 1}\n',
        b"\xff\xfe\n",
        b'{"time": 2.7, "kind": 5}\n',
        b'{"time": 1.0, "node": 3}\n',
        b'{"kind": "sim.crash", "time": "soon", "node": 1}\n',
        b'{"kind": "sim.crash", "time": null, "node": 1}\n',
        b'{"kind": "sim.crash", "time": true, "node": 1}\n',
        b'{"kind": "sim.crash", "time": 1%s, "node": 1}\n' % (b"0" * 400),
        b'{"kind": "sim.crash", "time": 2.8, "node": "1"}\n',
        b'{"kind": "sim.crash", "time": 2.8, "node": 1.5}\n',
        b'{"kind": "sim.crash", "time": 2.8, "node": false}\n',
        b'"kind"\n',
        b"null\n",
        b"\n",
        b'{"time": 3.0, "kind": "c", "node": 2, "x": [1]}\n',
        b'{"time": 4.0, "ki',
    ])
    path.write_bytes(data)
    return data


def write_corrupt_gzip_spool(path) -> bytes:
    """A gzip header followed by a deflate block of the reserved type."""
    data = gzip.compress(b'{"time": 1.0, "kind": "a"}\n')[:10] + b"\xff" * 64
    path.write_bytes(data)
    return data


def write_cut_gzip_spool(path, lines=200) -> None:
    """A gzip spool of ``lines`` records cut mid-stream, as a killed
    ``--trace-out x.jsonl.gz`` run leaves it: no end-of-stream marker."""
    data = b"".join(
        b'{"time": %d.0, "kind": "k", "node": %d}\n' % (n, n)
        for n in range(lines)
    )
    full = gzip.compress(data)
    path.write_bytes(full[: len(full) // 2])


def record_to_dict(record: TraceRecord) -> dict:
    """The record's flat-dict form (detail keys inlined): what a trace
    line is the ``json.dumps(..., sort_keys=True)`` of."""
    return {
        "time": record.time,
        "kind": record.kind,
        "node": record.node,
        **dict(record.detail),
    }
