"""The spool reader's batches: whole batches of lines in one
``json.loads`` must yield exactly the records that parsing each line on
its own yields, whatever the lines hold and wherever the batch and read
borders fall.

The reference below is the one-line-at-a-time reader: split the bytes at
``\\n`` (as iterating a binary file does), parse each line strictly as
UTF-8 JSON, keep the objects with a string ``kind``, a numeric ``time``
and an integer or null ``node``.
"""

import gzip
import json
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.obs import spool as spool_module
from repro.obs.spool import iter_spool
from repro.sim.trace import TraceRecord, kind_matches, record_line

BATCH = spool_module._BATCH_LINES


def _reference_line(raw):
    try:
        payload = json.loads(str(raw, "utf-8"))
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    kind = payload.pop("kind", None)
    if not isinstance(kind, str):
        return None
    time = payload.pop("time", 0.0)
    node = payload.pop("node", None)
    if type(time) not in (int, float) or not (
        node is None or type(node) is int
    ):
        return None
    try:
        time = float(time)
    except OverflowError:
        return None
    return TraceRecord(time, kind, node, payload)


def reference(data, follow=False, kinds=None):
    lines = data.split(b"\n")
    if follow:
        lines = lines[:-1]  # the unterminated tail is held back
    records = [r for r in map(_reference_line, lines) if r is not None]
    if kinds is not None:
        records = [r for r in records if kind_matches(r.kind, kinds)]
    return records


def canonical(records):
    """Comparable form: NaN times and values compare by repr, and the
    detail's file order counts."""
    return [
        repr((r.time, r.kind, r.node, list(r.detail.items())))
        for r in records
    ]


def read(tmp_dir, data, mode, kinds=None):
    if mode == "gzip":
        path = tmp_dir / "t.jsonl.gz"
        path.write_bytes(gzip.compress(data))
        return list(iter_spool(path, kinds=kinds))
    path = tmp_dir / "t.jsonl"
    path.write_bytes(data)
    if mode == "follow":
        stop = threading.Event()
        stop.set()
        return list(iter_spool(
            path, kinds=kinds, follow=True, poll_interval=0.01, stop=stop,
        ))
    return list(iter_spool(path, kinds=kinds))


def filler(count, pad, start=0):
    return [
        record_line(float(n), "k", n, {"pad": "x" * pad})
        .encode("ascii")
        for n in range(start, start + count)
    ]


#: Lines a batch must not take for records, or must take exactly as
#: their own line gives them.  A fragment may span several lines.
HOSTILE = {
    # Loaded as one array, these two lines would be one record.
    "string-across-lines": b'{"time": 1.0, "kind": "x}\n{", "node": 1}',
    "two-objects-one-line": (
        b'{"time": 1.0, "kind": "a"}{"time": 2.0, "kind": "b"}'
    ),
    "two-objects-comma": (
        b'{"time": 1.0, "kind": "a"}, {"time": 2.0, "kind": "b"}'
    ),
    "nested-objects": (
        b'{"time": 1.0, "kind": "n", "d": {"e": {"f": [1, {}]}}}'
    ),
    "crlf": b'{"time": 1.0, "kind": "crlf"}\r\n{"time": 2.0, "kind": "c2"}\r',
    "bom": b'\xef\xbb\xbf{"time": 1.0, "kind": "bom"}',
    "blank-lines": b"\n\n",
    "invalid-utf8": b'{"time": 1.0, "kind": "a\xff"}',
    "encoded-surrogate": b'{"time": 1.0, "kind": "s\xed\xa0\x80"}',
    "nan": b'{"time": NaN, "kind": "nan", "v": -Infinity}',
    "400-digit-int": b'{"time": 2.0, "kind": "big", "v": 1%s}' % (b"0" * 400),
    "400-digit-time": b'{"time": 1%s, "kind": "big"}' % (b"0" * 400),
    "duplicate-keys": (
        b'{"time": 1.0, "kind": "a", "kind": "b", "x": 1, "x": 2}'
    ),
    "no-kind": b'{"time": 1.0, "node": 3}',
    "brace-in-string": b'{"time": 1.0, "kind": "br}\\"{ace"}',
    "lone-braces": b"{\n}\n{}",
    "not-an-object": b'[{"time": 1.0, "kind": "a"}]',
    "bool-node": b'{"time": 1.0, "kind": "a", "node": true}',
}
#: Appended without a newline: a writer killed mid-line.
TORN = b'{"time": 4.0, "ki'


@pytest.mark.parametrize("mode", ["plain", "gzip", "follow"])
@pytest.mark.parametrize("before", [0, 5, BATCH - 1, BATCH])
@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_each_hostile_case_reads_as_its_lines(tmp_path, name, before, mode):
    lines = filler(before, 7) + [HOSTILE[name]] + filler(3, 7, start=before)
    for data in (
        b"\n".join(lines) + b"\n",
        b"\n".join(lines) + b"\n" + TORN,
    ):
        got = read(tmp_path, data, mode)
        assert canonical(got) == canonical(reference(data, mode == "follow"))


valid_lines = st.builds(
    lambda time, kind, node, value: record_line(
        time, kind, node, {"v": value}
    ).encode("ascii"),
    st.one_of(st.floats(), st.integers()),
    st.sampled_from(["k", "a", "radio.rx", "fds.detection"]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
    st.one_of(
        st.none(), st.booleans(), st.floats(), st.text(max_size=6),
        st.lists(st.integers(), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    ),
)
any_line = st.one_of(
    valid_lines,
    st.sampled_from(sorted(HOSTILE.values())),
    st.binary(max_size=24),
    st.text(alphabet='{}[]",: \\\n\rab1', max_size=16).map(
        lambda text: text.encode("utf-8")
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(any_line, max_size=12),
    before=st.sampled_from([0, 1, BATCH - 2, BATCH - 1, BATCH, 2 * BATCH]),
    pad=st.integers(min_value=0, max_value=60),
    tail=st.sampled_from([b"", b"\n", TORN, b'{"time": 5.0, "kind": "t"}']),
    kinds=st.sampled_from([None, ("k",), ("a", "radio")]),
)
def test_batched_reads_equal_the_line_by_line_reference(
    tmp_path_factory, lines, before, pad, tail, kinds
):
    # The filler moves the drawn lines across batch borders (every
    # BATCH lines) and, through its padding, across 64 KiB read borders.
    data = b"\n".join(filler(before, pad) + lines) + tail
    # A file that starts with the gzip magic is read as gzip, by design.
    assume(not data.startswith(b"\x1f\x8b"))
    tmp_dir = tmp_path_factory.mktemp("batches")
    for mode in ("plain", "gzip", "follow"):
        got = read(tmp_dir, data, mode, kinds)
        want = reference(data, mode == "follow", kinds)
        assert canonical(got) == canonical(want), mode


def test_a_clean_spool_is_parsed_in_batches(tmp_path, monkeypatch):
    # Lines one record_line each take the one-loads path: no line of
    # them is parsed on its own.
    singles = []
    real = spool_module._load_line
    monkeypatch.setattr(
        spool_module, "_load_line",
        lambda raw: singles.append(raw) or real(raw),
    )
    count = 3 * BATCH + 17
    data = b"\n".join(filler(count, 30)) + b"\n"
    for mode in ("plain", "gzip", "follow"):
        got = read(tmp_path, data, mode)
        assert [r.time for r in got] == [float(n) for n in range(count)]
    assert singles == []
