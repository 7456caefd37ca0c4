"""Spool inputs shared by the obs, serve, CLI and determinism tests."""

#: The benchmark's ``trace_pipeline`` scenario at seed 1 (~44 k records);
#: the golden spool and endpoint hashes are taken over its trace.
PIPELINE = dict(
    cluster_count=6, members_per_cluster=24, executions=4,
    crash_count=5, loss_probability=0.1, engine="event", seed=1,
)


def write_hostile_spool(path) -> bytes:
    """Three records among lines that are valid JSON but no object, not
    UTF-8, an object without a string kind, blank, and torn."""
    data = (
        b'{"time": 1.0, "kind": "a", "node": null}\n'
        b"123\n"
        b"[1, 2]\n"
        b'{"time": 2.0, "kind": "b", "node": 1}\n'
        b'{"time": 2.5, "kind": "b\xff", "node": 1}\n'
        b"\xff\xfe\n"
        b'{"time": 2.7, "kind": 5}\n'
        b'"kind"\n'
        b"null\n"
        b"\n"
        b'{"time": 3.0, "kind": "c", "node": 2, "x": [1]}\n'
        b'{"time": 4.0, "ki'
    )
    path.write_bytes(data)
    return data
