"""The dashboard service: endpoint/CLI byte-identity, SSE, metrics.

The acceptance contract: every ``/api/*`` JSON body is byte-for-byte
the output of the matching ``repro trace ... --json`` (or ``repro
campaign status --json``) invocation on the same spool/store, and
``/events`` streams records appended to a *growing* spool within one
poll interval without disturbing the writer.
"""

import contextlib
import hashlib
import io
import json
import re
import shutil
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.obs.cli import render_json
from repro.obs.profiler import PhaseProfiler
from repro.obs.spool import SpoolingTracer
from repro.serve import state
from repro.serve.http import DashboardServer
from repro.serve.state import SpoolView, StoreView
from repro.sim.trace import TraceRecord
from tests.spool_helpers import PIPELINE, write_hostile_spool


@pytest.fixture(scope="module")
def spool(tmp_path_factory):
    """One small traced scenario shared by the read-only endpoint tests."""
    path = tmp_path_factory.mktemp("serve") / "trace.jsonl"
    config = ScenarioConfig(
        cluster_count=2, members_per_cluster=8, crash_count=2,
        executions=3, seed=13,
    )
    with SpoolingTracer(path) as tracer:
        run_scenario(config, tracer=tracer)
    return path


@contextlib.contextmanager
def serving(spool_path, store_root=None, poll_interval=0.05):
    store_view = StoreView(store_root) if store_root is not None else None
    server = DashboardServer(
        ("127.0.0.1", 0), SpoolView(spool_path),
        store_view=store_view, poll_interval=poll_interval,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.status, response.headers.get("Content-Type"), \
            response.read()


def _cli(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = main(list(argv))
    assert rc == 0
    return buffer.getvalue().encode("utf-8")


class TestEndpointCliAgreement:
    def test_summary_bytes_match_cli(self, spool):
        with serving(spool) as port:
            _, ctype, body = _get(port, "/api/summary")
        assert ctype == "application/json; charset=utf-8"
        assert body == _cli("trace", "summarize", str(spool), "--json")

    def test_timeline_bytes_match_cli(self, spool):
        with serving(spool) as port:
            _, _, default = _get(port, "/api/timeline")
            _, _, bucketed = _get(port, "/api/timeline?bucket=5.0")
        assert default == _cli("trace", "timeline", str(spool), "--json")
        assert bucketed == _cli(
            "trace", "timeline", str(spool), "--json", "--bucket", "5.0"
        )

    def test_latency_bytes_match_cli(self, spool):
        with serving(spool) as port:
            _, _, body = _get(port, "/api/latency")
        assert body == _cli("trace", "latency", str(spool), "--json")

    def test_lineage_bytes_match_cli(self, spool):
        crashed = json.loads(
            _cli("trace", "latency", str(spool), "--json")
        )["crashes"]
        target = crashed[0]["node"]
        with serving(spool) as port:
            _, _, body = _get(port, f"/api/lineage?target={target}")
        assert body == _cli(
            "trace", "lineage", str(spool), str(target), "--json"
        )


# Captured at commit 833ce24 from the spool of the PIPELINE run (``phases`` stripped from the summary: wall-clock).  The
# endpoint-vs-CLI identity above cannot see the two drift together.
GOLDEN_ENDPOINT_SHA256 = {
    "summary": "77e127065f2c2f0ee2911a5a6a301b59bee547bb5606b3cc320a452313883964",
    "timeline": "42e894ea8297c296701eb9a82cac24e8bdb7c94b02206f9ac5e9dbae93e9d2e6",
    "latency": "229b399c35439ed0a2480caeee32faf5a0b6366756db63524ef46514a21c6b83",
    "topology": "95403804c45ae867304fbb9431cd1c120fb3bd50803b30e4621143fba6e0307e",
    "lineage": "db50d44d6ce884e6aaea3b7c2613400f3c724e8ceab97c8daab252080bc15bf3",
}


def _spool_urls(target):
    """The five spool endpoints, as the benchmark and the page ask."""
    return {
        "summary": "/api/summary",
        "timeline": "/api/timeline",
        "latency": "/api/latency",
        "topology": "/api/topology",
        "lineage": f"/api/lineage?target={target}",
    }


def _first_crashed(spool_path):
    crashes = json.loads(
        _cli("trace", "latency", str(spool_path), "--json")
    )["crashes"]
    return min(row["node"] for row in crashes)


class TestGoldenEndpointBytes:
    def test_bodies_unchanged(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with SpoolingTracer(path) as tracer:
            result = run_scenario(
                ScenarioConfig(**PIPELINE), tracer=tracer,
                profiler=PhaseProfiler(),
            )
        target = min(int(node) for node in result.crash_times)
        bodies = {}
        with serving(path) as port:
            for label, url in _spool_urls(target).items():
                status, _, bodies[label] = _get(port, url)
                assert status == 200
        summary = json.loads(bodies["summary"])
        assert len(summary.pop("phases")) == 8
        bodies["summary"] = render_json(summary).encode("utf-8")
        assert {
            label: hashlib.sha256(body).hexdigest()
            for label, body in bodies.items()
        } == GOLDEN_ENDPOINT_SHA256


@pytest.fixture
def passes(monkeypatch):
    """The spool reads ``repro.serve.state`` starts, one entry each."""
    started = []
    real = state.iter_spool

    def counting(path, *args, **kwargs):
        started.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(state, "iter_spool", counting)
    return started


class TestOnePass:
    def test_cold_view_answers_every_endpoint_from_one_pass(
        self, spool, passes
    ):
        urls = _spool_urls(_first_crashed(spool))
        with serving(spool) as port:
            for url in urls.values():
                assert _get(port, url)[0] == 200
            assert len(passes) == 1
            # Any other target is answered from the same digest.
            other = json.loads(_get(port, "/api/latency")[2])["crashes"][-1]
            status, _, _ = _get(port, f"/api/lineage?target={other['node']}")
            assert status == 200
            assert len(passes) == 1

    def test_concurrent_cold_requests_share_the_pass(self, spool, passes):
        # What the dashboard page fires on load.
        urls = [
            "/api/summary", "/api/timeline", "/api/latency", "/api/topology",
        ]
        barrier = threading.Barrier(len(urls))
        statuses = []

        def fetch(port, url):
            barrier.wait(timeout=10)
            statuses.append(_get(port, url)[0])

        with serving(spool) as port:
            clients = [
                threading.Thread(target=fetch, args=(port, url))
                for url in urls
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=30)
                assert not client.is_alive()
        assert statuses == [200] * len(urls)
        assert len(passes) == 1

    def test_grown_spool_is_reduced_once_more(self, spool, tmp_path, passes):
        live = tmp_path / "live.jsonl"
        shutil.copyfile(spool, live)
        urls = _spool_urls(_first_crashed(spool))
        with serving(live) as port:
            before = json.loads(_get(port, "/api/summary")[2])["records"]
            with live.open("a", encoding="utf-8") as handle:
                handle.write(
                    '{"time": 99.0, "kind": "sim.crash", "node": 0}\n'
                )
            for url in urls.values():
                assert _get(port, url)[0] == 200
            after = json.loads(_get(port, "/api/summary")[2])["records"]
        assert after == before + 1
        assert len(passes) == 2

    def test_explicit_bucket_streams_once_more(self, spool, passes):
        with serving(spool) as port:
            _get(port, "/api/timeline")
            assert len(passes) == 1
            first = _get(port, "/api/timeline?bucket=5.0")[2]
            assert len(passes) == 2
            assert _get(port, "/api/timeline?bucket=5.0")[2] == first
            assert len(passes) == 2

    def test_digest_holds_no_radio_record(self, spool):
        # The stand-in for peak memory: of everything parsed, only the
        # protocol records (a small share) outlive the pass.
        view = SpoolView(spool)
        kinds = view.summary_payload()["kinds"]
        radio = sum(n for kind, n in kinds.items() if kind.startswith("radio."))
        kept = view._digest.protocol
        assert radio > 0 and kept
        assert not any(r.kind.startswith("radio.") for r in kept)
        assert len(kept) == sum(kinds.values()) - radio


class TestHostileSpool:
    def test_summary_counts_the_records_that_remain(self, tmp_path):
        path = tmp_path / "hostile.jsonl"
        write_hostile_spool(path)
        with serving(path) as port:
            status, _, body = _get(port, "/api/summary")
        assert status == 200
        assert json.loads(body)["records"] == 3
        assert body == _cli("trace", "summarize", str(path), "--json")


class TestTopologyEndpoint:
    def test_topology_reconstructs_cluster_map(self, spool):
        with serving(spool) as port:
            _, _, body = _get(port, "/api/topology")
        topo = json.loads(body)
        assert topo["found"] is True
        assert len(topo["clusters"]) == 2
        assert topo["meta"]["nodes"] == len(topo["nodes"])
        roles = {n["role"] for n in topo["nodes"]}
        assert "head" in roles and "member" in roles
        heads = {c["head"] for c in topo["clusters"]}
        assert {n["id"] for n in topo["nodes"] if n["role"] == "head"} \
            == heads
        # Both injected crashes appear with their detection stamps.
        assert topo["crashed"] == 2
        stamped = [n for n in topo["nodes"] if n["crashed_at"] is not None]
        assert len(stamped) == 2
        # Every node carries plottable coordinates.
        assert all(
            isinstance(n["x"], float) and isinstance(n["y"], float)
            for n in topo["nodes"]
        )


class TestErrorsAndPage:
    def test_unknown_route_is_json_404(self, spool):
        with serving(spool) as port:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(port, "/api/nope")
            assert excinfo.value.code == 404
            assert json.loads(excinfo.value.read())["status"] == 404

    def test_campaigns_without_store_is_404(self, spool):
        with serving(spool) as port:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(port, "/api/campaigns")
            assert excinfo.value.code == 404

    def test_lineage_without_target_is_400(self, spool):
        with serving(spool) as port:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(port, "/api/lineage")
            assert excinfo.value.code == 400

    def test_index_page_embeds_the_dashboard(self, spool):
        with serving(spool) as port:
            status, ctype, body = _get(port, "/")
        assert status == 200
        assert ctype == "text/html; charset=utf-8"
        html = body.decode("utf-8")
        for anchor in ('id="map"', 'id="timeline"', 'id="latency"',
                       "EventSource", "/api/summary"):
            assert anchor in html


class TestMetricsEndpoint:
    #: One 0.0.4 exposition line: comment, sample (optionally with a
    #: ``le`` label), blank terminator handled by the caller.
    SAMPLE_RE = re.compile(
        r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
        r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? "
        r"[-+]?([0-9.]+([eE][-+]?[0-9]+)?|inf|nan))$"
    )

    def test_metrics_exposition_format_and_server_counters(self, spool):
        with serving(spool) as port:
            _get(port, "/api/summary")
            status, ctype, body = _get(port, "/metrics")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        text = body.decode("utf-8")
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            assert self.SAMPLE_RE.match(line), f"bad exposition line: {line!r}"
        # The server's own request instrumentation is present, counters
        # under the _total convention, histogram with the +Inf bucket.
        assert "repro_serve_requests_total" in text
        assert 'repro_serve_request_seconds_bucket{le="+Inf"}' in text
        assert "repro_serve_request_seconds_sum" in text
        # At least the summary request and this scrape were counted.
        match = re.search(r"^repro_serve_requests_total (\d+)$", text, re.M)
        assert match and int(match.group(1)) >= 2


class TestCampaignsEndpoint:
    def test_campaigns_bytes_match_cli_status_json(self, spool, tmp_path):
        store = tmp_path / "store"
        _cli(
            "campaign", "run", "--kind", "mc", "--n", "20", "--p", "0.3",
            "--trials", "4000", "--chunks", "2", "--store", str(store),
        )
        with serving(spool, store_root=store) as port:
            _, _, body = _get(port, "/api/campaigns")
        cli_bytes = _cli("campaign", "status", "--store", str(store), "--json")
        assert body == cli_bytes
        payload = json.loads(body)
        assert len(payload["campaigns"]) == 1
        assert payload["campaigns"][0]["complete"] is True

    def test_store_metrics_fold_into_exposition(self, spool, tmp_path):
        store = tmp_path / "store"
        _cli(
            "campaign", "run", "--kind", "mc", "--n", "20", "--p", "0.3",
            "--trials", "4000", "--chunks", "2", "--store", str(store),
        )
        with serving(spool, store_root=store) as port:
            _, _, body = _get(port, "/metrics")
        text = body.decode("utf-8")
        assert "repro_campaign_chunks_done_total" in text \
            or "repro_campaign" in text


class TestLiveEvents:
    def _open_sse(self, port, query=""):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.sendall(
            f"GET /events{query} HTTP/1.1\r\nHost: dash\r\n\r\n".encode()
        )
        return sock

    def _read_until(self, sock, needle, timeout=5.0):
        deadline = time.monotonic() + timeout
        buffer = b""
        sock.settimeout(0.2)
        while time.monotonic() < deadline:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                continue
            if not chunk:
                break
            buffer += chunk
            if needle in buffer:
                return buffer
        raise AssertionError(
            f"{needle!r} not seen on the SSE stream; got {buffer!r}"
        )

    def test_events_stream_new_records_within_poll_interval(self, tmp_path):
        """A live writer appends while an SSE client is connected: the
        new record must arrive promptly and the writer must not block."""
        path = tmp_path / "live.jsonl"
        with SpoolingTracer(path, flush_every=1) as tracer:
            tracer.emit(TraceRecord(
                time=0.0, kind="meta.scenario", node=None,
                detail={"nodes": 2, "phi": 30.0},
            ))
            with serving(path, poll_interval=0.05) as port:
                sock = self._open_sse(port)
                header = self._read_until(sock, b"data: ")
                assert b"200" in header.split(b"\r\n", 1)[0]
                assert b"text/event-stream" in header

                started = time.monotonic()
                tracer.emit(TraceRecord(
                    time=1.0, kind="fds.detection", node=1,
                    detail={"target": 0},
                ))
                buffer = self._read_until(sock, b"fds.detection")
                elapsed = time.monotonic() - started
                assert elapsed < 2.0  # poll_interval is 0.05 s
                frame = next(
                    line for line in buffer.split(b"\n\n")
                    if b"fds.detection" in line
                )
                payload = json.loads(frame.split(b"data: ", 1)[1])
                assert payload == {
                    "time": 1.0, "kind": "fds.detection",
                    "node": 1, "target": 0,
                }
                sock.close()
        # The writer's spool survived the concurrent reader intact.
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)

    def test_events_kind_filter(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with SpoolingTracer(path, flush_every=1) as tracer:
            tracer.emit(TraceRecord(
                time=0.0, kind="radio.tx", node=0, detail={},
            ))
            tracer.emit(TraceRecord(
                time=0.5, kind="fds.relay", node=1, detail={},
            ))
            with serving(path, poll_interval=0.05) as port:
                sock = self._open_sse(port, "?kinds=fds")
                buffer = self._read_until(sock, b"fds.relay")
                assert b"radio.tx" not in buffer
                sock.close()

    def test_shutdown_terminates_open_streams(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text('{"time": 0.0, "kind": "meta.scenario"}\n')
        server = DashboardServer(
            ("127.0.0.1", 0), SpoolView(path), poll_interval=0.05
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        sock = self._open_sse(server.server_address[1])
        self._read_until(sock, b"data: ")
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        sock.close()
