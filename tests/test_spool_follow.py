"""Tail (follow) mode of ``iter_spool``: live spools, torn lines, stop.

The dashboard's ``/events`` endpoint sits on this iterator, so the
contract under test is the live one: a reader thread must see records a
writer thread appends within a poll interval, must never yield a
half-written line, and must never block or corrupt the writer.
"""

import gzip
import json
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.obs.spool import SpoolingTracer, iter_spool
from tests.spool_helpers import PIPELINE


def _record(tracer, t, kind="fds.ping", node=0, **detail):
    tracer.record(t, kind, node, **detail)


class TestFollowValidation:
    def test_refuses_gzip_suffix(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write('{"time": 0.0, "kind": "x"}\n')
        with pytest.raises(ConfigurationError, match="gzip"):
            next(iter_spool(path, follow=True))

    def test_refuses_gzip_magic_without_suffix(self, tmp_path):
        path = tmp_path / "renamed.jsonl"
        path.write_bytes(
            gzip.compress(b'{"time": 0.0, "kind": "x"}\n')
        )
        with pytest.raises(ConfigurationError, match="gzip"):
            next(iter_spool(path, follow=True))

    def test_rejects_nonpositive_poll_interval(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="poll_interval"):
            next(iter_spool(path, follow=True, poll_interval=0.0))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no trace spool"):
            next(iter_spool(tmp_path / "absent.jsonl", follow=True))


class TestFollowStop:
    def test_stop_drains_existing_records_then_returns(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with SpoolingTracer(path) as tracer:
            for i in range(5):
                _record(tracer, float(i))
        stop = threading.Event()
        stop.set()
        records = list(
            iter_spool(path, follow=True, poll_interval=0.01, stop=stop)
        )
        assert [r.time for r in records] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_idle_marker_yields_none_on_empty_poll(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time": 1.0, "kind": "fds.ping", "node": 3}\n')
        stop = threading.Event()
        out = []
        it = iter_spool(
            path, follow=True, poll_interval=0.01, stop=stop,
            idle_marker=True,
        )
        out.append(next(it))   # the record
        out.append(next(it))   # first empty poll -> None
        stop.set()
        out.extend(it)         # drains (nothing new) and returns
        assert out[0].time == 1.0 and out[0].node == 3
        assert out[1] is None

    def test_kind_filter_applies_in_follow_mode(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with SpoolingTracer(path) as tracer:
            _record(tracer, 0.0, kind="radio.tx")
            _record(tracer, 1.0, kind="fds.detection")
            _record(tracer, 2.0, kind="fdsx.not_nested")
        stop = threading.Event()
        stop.set()
        records = list(
            iter_spool(path, kinds=["fds"], follow=True,
                       poll_interval=0.01, stop=stop)
        )
        assert [r.kind for r in records] == ["fds.detection"]


class TestFollowLive:
    def test_reader_thread_sees_writer_thread_appends(self, tmp_path):
        """A writer thread spools records while a reader tails the file;
        every record arrives intact, in order, without blocking either
        side (the acceptance criterion for live ``/events``)."""
        path = tmp_path / "live.jsonl"
        stop = threading.Event()
        total = 200
        seen = []

        def read():
            for record in iter_spool(
                path, follow=True, poll_interval=0.01, stop=stop
            ):
                seen.append(record)

        with SpoolingTracer(path, flush_every=1) as tracer:
            _record(tracer, 0.0)   # file exists before the reader starts
            reader = threading.Thread(target=read)
            reader.start()
            for i in range(1, total):
                _record(tracer, float(i), payload="x" * (i % 37))
                if i % 50 == 0:
                    time.sleep(0.02)   # let the reader interleave mid-stream
        # Writer done and flushed; give the reader one poll to drain.
        deadline = time.monotonic() + 5.0
        while len(seen) < total and time.monotonic() < deadline:
            time.sleep(0.01)
        stop.set()
        reader.join(timeout=5.0)
        assert not reader.is_alive()
        assert [r.time for r in seen] == [float(i) for i in range(total)]

    def test_torn_trailing_line_is_retried_not_dropped(self, tmp_path):
        """Bytes after the last newline are held back until the writer
        completes the line -- the record is yielded exactly once, whole."""
        path = tmp_path / "torn.jsonl"
        line = json.dumps(
            {"time": 2.5, "kind": "fds.detection", "node": 9, "target": 4}
        )
        with path.open("w", encoding="utf-8") as handle:
            handle.write('{"time": 1.0, "kind": "sim.crash", "node": 4}\n')
            handle.write(line[:10])   # torn: no newline, invalid JSON prefix
            handle.flush()

            stop = threading.Event()
            it = iter_spool(
                path, follow=True, poll_interval=0.01, stop=stop,
                idle_marker=True,
            )
            first = next(it)
            assert first.kind == "sim.crash"
            # While the line is torn the reader idles instead of parsing
            # the fragment.
            assert next(it) is None
            # Writer completes the line; the reader now yields it whole.
            handle.write(line[10:] + "\n")
            handle.flush()
        record = next(r for r in it if r is not None)
        assert record.kind == "fds.detection"
        assert record.detail == {"target": 4}
        stop.set()
        assert all(r is None for r in it)

    def test_non_follow_mode_unchanged(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with SpoolingTracer(path) as tracer:
            _record(tracer, 0.0)
            _record(tracer, 1.0)
        assert [r.time for r in iter_spool(path)] == [0.0, 1.0]

    def test_following_a_whole_spool_reads_what_plain_mode_reads(
        self, tmp_path
    ):
        # Each read is split once and its complete lines parsed in
        # batches; the records are the plain reader's, in order.
        path = tmp_path / "pipeline.jsonl"
        with SpoolingTracer(path) as tracer:
            run_scenario(ScenarioConfig(**PIPELINE), tracer=tracer)
        stop = threading.Event()
        stop.set()
        followed = list(
            iter_spool(path, follow=True, poll_interval=0.01, stop=stop)
        )
        plain = list(iter_spool(path))
        assert len(plain) == tracer.spooled
        assert followed == plain
