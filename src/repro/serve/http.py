"""The dashboard HTTP server: JSON endpoints, SSE tail, Prometheus.

Stdlib only (:mod:`http.server`): a :class:`ThreadingHTTPServer` whose
handler threads share one :class:`~repro.serve.state.SpoolView` (and
optionally a :class:`~repro.serve.state.StoreView`).  The JSON endpoints
serialize the *same payloads* through the *same serializer*
(:func:`repro.obs.cli.render_json`) as the ``repro trace`` CLI, so a
response body is byte-for-byte the CLI's stdout for the same spool.

Routes
------
``GET /``               embedded dashboard page (HTML)
``GET /api/summary``    = ``repro trace summarize <spool>``
``GET /api/timeline``   = ``repro trace timeline --json`` (``?bucket=``)
``GET /api/latency``    = ``repro trace latency --json``
``GET /api/lineage``    = ``repro trace lineage --json`` (``?target=``)
``GET /api/topology``   cluster map from the ``meta.topology`` record
``GET /api/campaigns``  = ``repro campaign status --json`` (needs --store)
``GET /events``         SSE tail of the spool (``?kinds=fds,sim``)
``GET /metrics``        Prometheus 0.0.4: server counters + store snapshots
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError
from repro.obs.cli import render_json
from repro.obs.registry import MetricsRegistry
from repro.obs.spool import iter_spool
from repro.serve.page import DASHBOARD_HTML
from repro.serve.state import SpoolView, StoreView
from repro.sim.trace import record_line

#: Request-latency buckets in seconds; recorded spools answer from the
#: stamp cache (sub-millisecond), live re-reductions land in the tail.
REQUEST_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class DashboardServer(ThreadingHTTPServer):
    """Holds the shared views and the server's own metrics registry."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        spool_view: SpoolView,
        store_view: Optional[StoreView] = None,
        poll_interval: float = 0.5,
    ) -> None:
        super().__init__(address, DashboardHandler)
        self.spool_view = spool_view
        self.store_view = store_view
        self.poll_interval = poll_interval
        #: Set on shutdown; SSE loops drain and exit on it.
        self.stop_event = threading.Event()
        self.registry = MetricsRegistry()
        self.requests_total = self.registry.counter(
            "repro_serve_requests_total", "Dashboard HTTP requests served"
        )
        self.errors_total = self.registry.counter(
            "repro_serve_errors_total", "Dashboard HTTP error responses"
        )
        self.request_seconds = self.registry.histogram(
            "repro_serve_request_seconds",
            REQUEST_SECONDS_BUCKETS,
            "Dashboard request handling latency in seconds",
        )
        self.sse_records_total = self.registry.counter(
            "repro_serve_sse_records_total", "Trace records streamed over SSE"
        )

    def shutdown(self) -> None:
        self.stop_event.set()
        super().shutdown()


class DashboardHandler(BaseHTTPRequestHandler):
    server: DashboardServer  # narrowed for the route handlers

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # the dashboard is polled, so that would be a firehose.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        started = time.monotonic()
        self.server.requests_total.inc()
        try:
            if parts.path == "/events":
                # Long-lived: excluded from the latency histogram.
                self._serve_events(query)
                return
            handler = {
                "/": self._serve_page,
                "/api/summary": self._serve_summary,
                "/api/timeline": self._serve_timeline,
                "/api/latency": self._serve_latency,
                "/api/lineage": self._serve_lineage,
                "/api/topology": self._serve_topology,
                "/api/campaigns": self._serve_campaigns,
                "/metrics": self._serve_metrics,
            }.get(parts.path)
            if handler is None:
                self._send_error(404, f"no route {parts.path}")
                return
            handler(query)
        except (BrokenPipeError, ConnectionResetError):
            pass  # peer went away mid-response; nothing to answer
        except ReproError as exc:
            self._send_error(400, str(exc))
        except Exception as exc:  # keep the thread pool alive
            self._send_error(500, f"{type(exc).__name__}: {exc}")
        finally:
            self.server.request_seconds.observe(time.monotonic() - started)

    # -- route handlers ------------------------------------------------
    def _serve_page(self, _query: Dict[str, list]) -> None:
        self._send_body(
            200, DASHBOARD_HTML.encode("utf-8"), "text/html; charset=utf-8"
        )

    def _serve_summary(self, _query: Dict[str, list]) -> None:
        self._send_json(self.server.spool_view.summary_payload())

    def _serve_timeline(self, query: Dict[str, list]) -> None:
        bucket = self._float_param(query, "bucket")
        self._send_json(self.server.spool_view.timeline_payload(bucket))

    def _serve_latency(self, _query: Dict[str, list]) -> None:
        self._send_json(self.server.spool_view.latency_payload())

    def _serve_lineage(self, query: Dict[str, list]) -> None:
        raw = query.get("target", [""])[0]
        try:
            target = int(raw)
        except ValueError:
            self._send_error(400, f"lineage needs ?target=<node id>, got {raw!r}")
            return
        self._send_json(self.server.spool_view.lineage_payload(target))

    def _serve_topology(self, _query: Dict[str, list]) -> None:
        self._send_json(self.server.spool_view.topology_payload())

    def _serve_campaigns(self, _query: Dict[str, list]) -> None:
        if self.server.store_view is None:
            self._send_error(
                404, "no result store attached (start with --store)"
            )
            return
        self._send_json(self.server.store_view.campaigns_payload())

    def _serve_metrics(self, _query: Dict[str, list]) -> None:
        registry = MetricsRegistry()
        registry.merge_json(self.server.registry.to_json())
        if self.server.store_view is not None:
            self.server.store_view.merge_metrics(registry)
        self._send_body(
            200, registry.render_prometheus().encode("utf-8"),
            PROMETHEUS_CONTENT_TYPE,
        )

    def _serve_events(self, query: Dict[str, list]) -> None:
        kinds_raw = query.get("kinds", [""])[0]
        kinds = (
            [k for k in kinds_raw.split(",") if k] if kinds_raw else None
        )
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for record in iter_spool(
                self.server.spool_view.path,
                kinds=kinds,
                follow=True,
                poll_interval=self.server.poll_interval,
                stop=self.server.stop_event,
                idle_marker=True,
            ):
                if record is None:
                    # Empty poll: the comment keep-alive both holds
                    # proxies open and surfaces dead peers as write
                    # errors, ending this thread.
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                data = record_line(
                    record.time, record.kind, record.node, record.detail
                )
                self.wfile.write(f"data: {data}\n\n".encode("utf-8"))
                self.wfile.flush()
                self.server.sse_records_total.inc()
        except (BrokenPipeError, ConnectionResetError):
            pass

    # -- plumbing ------------------------------------------------------
    def _float_param(
        self, query: Dict[str, list], name: str
    ) -> Optional[float]:
        raw = query.get(name, [""])[0]
        if not raw:
            return None
        try:
            return float(raw)
        except ValueError:
            raise ReproError(f"?{name}= must be a number, got {raw!r}")

    def _send_json(self, payload: Dict[str, Any]) -> None:
        self._send_body(
            200, render_json(payload).encode("utf-8"),
            "application/json; charset=utf-8",
        )

    def _send_error(self, status: int, message: str) -> None:
        self.server.errors_total.inc()
        body = render_json({"error": message, "status": status})
        self._send_body(
            status, body.encode("utf-8"), "application/json; charset=utf-8"
        )

    def _send_body(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
