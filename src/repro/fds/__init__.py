"""The cluster-based failure detection service (Section 4 of the paper).

Public surface:

- :class:`FdsConfig` -- protocol timing and mechanism toggles.
- :class:`FdsProtocol` -- the per-node protocol (installed on sim nodes).
- :func:`install_fds` / :class:`FdsDeployment` -- wire an FDS onto a
  network given an :class:`~repro.sim.array_engine.layout.ArrayLayout`
  or its :class:`~repro.cluster.state.ClusterLayout` view.
- :mod:`repro.fds.detector` -- the paper's two detection rules as
  boolean masks, the one form every engine evaluates.
"""

from repro.fds.config import FdsConfig
from repro.fds.digest import build_digest
from repro.fds.messages import (
    Digest,
    FailureReport,
    Heartbeat,
    HealthStatusUpdate,
    PeerForward,
    PeerForwardAck,
    PeerForwardRequest,
)
from repro.fds.reports import ReportHistory
from repro.fds.service import FdsDeployment, FdsProtocol, install_fds

__all__ = [
    "FdsConfig",
    "FdsProtocol",
    "FdsDeployment",
    "install_fds",
    "build_digest",
    "Heartbeat",
    "Digest",
    "HealthStatusUpdate",
    "FailureReport",
    "PeerForward",
    "PeerForwardAck",
    "PeerForwardRequest",
    "ReportHistory",
]
