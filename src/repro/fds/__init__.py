"""The cluster-based failure detection service (Section 4 of the paper).

Public surface:

- :class:`FdsConfig` -- protocol timing and mechanism toggles.
- :class:`FdsProtocol` -- the per-node protocol (installed on sim nodes).
- :func:`install_fds` / :class:`FdsDeployment` -- wire an FDS onto a
  network given a :class:`~repro.cluster.state.ClusterLayout`.
- :mod:`repro.fds.detector` -- the paper's two detection rules as pure
  functions.
"""

from repro.fds.config import FdsConfig
from repro.fds.detector import (
    DetectionInputs,
    apply_ch_failure_rule,
    apply_failure_rule,
)
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
    "DetectionInputs",
    "apply_failure_rule",
    "apply_ch_failure_rule",
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
