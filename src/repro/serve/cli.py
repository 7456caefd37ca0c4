"""Backend of ``python -m repro serve``."""

from __future__ import annotations

import argparse
from pathlib import Path



def add_serve_parser(sub: argparse._SubParsersAction) -> None:
    serve = sub.add_parser(
        "serve",
        help="live dashboard over a trace spool (HTTP + SSE + /metrics)",
    )
    serve.add_argument("--spool", required=True,
                       help="trace spool to serve (.jsonl; may still be "
                            "growing -- /events tails it live)")
    serve.add_argument("--store", type=str, default="",
                       help="result-store root to expose at /api/campaigns "
                            "and fold into /metrics")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377,
                       help="listen port (0 = ephemeral; the bound port is "
                            "printed)")
    serve.add_argument("--poll-interval", dest="poll_interval", type=float,
                       default=0.5,
                       help="seconds between spool polls on /events")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.http import DashboardServer
    from repro.serve.state import SpoolView, StoreView

    spool_view = SpoolView(Path(args.spool))
    store_view = StoreView(Path(args.store)) if args.store else None
    server = DashboardServer(
        (args.host, args.port),
        spool_view,
        store_view=store_view,
        poll_interval=args.poll_interval,
    )
    host, port = server.server_address[:2]
    print(f"serving {spool_view.path} on http://{host}:{port}/ "
          f"(Ctrl-C to stop)")
    try:
        server.serve_forever()
    finally:
        server.stop_event.set()
        server.server_close()
    return 0
