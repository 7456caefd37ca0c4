"""FDS configuration.

Timing follows Section 4.2: each of the three rounds has a fixed duration
``thop`` (the paper's ``Thop``, the assumed per-hop delivery bound), and an
FDS execution starts at the epoch of each heartbeat interval ``phi`` (the
paper's heartbeat interval).  The execution occupies a small fraction of
``phi`` -- the paper's assumption that nodes do not crash *during* an
execution is honored by the failure injector, which schedules crashes at
mid-interval points.

Five redundancy mechanisms of the paper can be toggled off independently;
they are what the ``ablation-*`` claim rows sweep:

- ``use_digests``       -- round R-2 and the digest clauses of both rules;
- ``peer_forwarding``   -- the intra-cluster completeness enhancement;
- ``dch_enabled``       -- DCH monitoring and takeover (feature F2);
- ``max_forward_retries`` -- the GW/CH retry budget per boundary; with
  the layout's BGW ladder (``ScenarioConfig.max_backups``) it carries
  reports across cluster boundaries;
- ``implicit_ack``      -- overheard-forwarding acknowledgments (off means
  forward-and-hope, no retransmission).

Everything else the protocol does is not optional: inter-cluster
forwarding and the failure history riding on every report always run,
and so do the CH's coverage re-ranking of its deputies (with digests and
DCH on) and F5 admission -- on the event engine and rt; the array engine
has neither (DESIGN §4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.util.validation import (
    check_int_at_least,
    check_positive,
)

#: Length of the peer-forwarding recovery window after R-3 ends, in
#: multiples of ``thop``.
RECOVERY_ROUNDS = 2.0


@dataclass(frozen=True)
class FdsConfig:
    """Protocol timing and mechanism toggles."""

    #: Heartbeat interval (seconds between FDS execution epochs).
    phi: float = 30.0
    #: Round duration / per-hop delivery bound (seconds).
    thop: float = 0.5
    #: Maximum retransmissions a GW/CH attempts per report per boundary.
    max_forward_retries: int = 2

    use_digests: bool = True
    peer_forwarding: bool = True
    implicit_ack: bool = True
    #: DCH monitoring and takeover (feature F2).  Disabling models a plain
    #: clustering with no deputies.
    dch_enabled: bool = True
    #: Number of deputies the CH maintains.  The CH re-ranks them by
    #: observed digest coverage and announces the ranking in R-3 updates:
    #: the best-witnessed members are the ones a takeover can rely on to
    #: reach the whole cluster (the reachability concern of Section 4.2 /
    #: Figure 2).
    deputy_count: int = 2
    #: Base slot of the peer-forwarding waiting period (see
    #: :class:`repro.energy.policy.WaitingPeriodPolicy`).
    wait_slot: float = 0.03

    def __post_init__(self) -> None:
        check_positive("phi", self.phi)
        check_positive("thop", self.thop)
        check_int_at_least("max_forward_retries", self.max_forward_retries, 0)
        check_positive("wait_slot", self.wait_slot)
        check_int_at_least("deputy_count", self.deputy_count, 0)
        # The whole execution (3 rounds + recovery + worst-case BGW standby
        # chatter) must fit comfortably inside one heartbeat interval.
        if self.phi < self.execution_duration():
            raise ConfigurationError(
                f"phi={self.phi} is shorter than one FDS execution "
                f"({self.execution_duration()}); increase phi or shrink thop"
            )

    # -- derived timing -------------------------------------------------
    def round_start(self, epoch: float, round_index: int) -> float:
        """Absolute start time of round ``round_index`` (0-based) at ``epoch``."""
        return epoch + round_index * self.thop

    def execution_duration(self) -> float:
        """Duration of R-1..R-3 plus the recovery window."""
        return (3.0 + RECOVERY_ROUNDS) * self.thop

    # -- execution timing policy ----------------------------------------
    # One definition for every substrate (event, array, rt).  Executions
    # are indexed from 0; execution ``k`` has its epoch at
    # ``start + k * phi``.
    def crash_time(self, start: float, execution: int) -> float:
        """The instant a node first silent in ``execution`` (>= 1) crashes.

        60% into the preceding heartbeat interval: after every round of
        execution ``execution - 1`` (Section 2.2: nodes do not fail
        mid-execution), before the epoch of ``execution``.
        """
        return start + (execution - 1) * self.phi + 0.6 * self.phi

    def crash_execution(self, start: float, time: float) -> int:
        """Inverse of :meth:`crash_time`: the first execution a node that
        crashed at ``time`` is silent in."""
        return int(round((time - start - 0.6 * self.phi) / self.phi)) + 1

    def run_end(self, start: float, count: int) -> float:
        """When a run of ``count`` executions from ``start`` ends: the
        tail of the last heartbeat interval, short of the next epoch."""
        return start + (count - 1) * self.phi + 0.95 * self.phi

    @property
    def r3_end_offset(self) -> float:
        """Offset from the epoch to the end of R-3 (the report timeout)."""
        return 3.0 * self.thop

    @property
    def implicit_ack_window(self) -> float:
        """The sender-side retransmission timeout (``2 * Thop``, Fig. 3)."""
        return 2.0 * self.thop

    def bgw_standby(self, rank: int) -> float:
        """Standby delay of BGW rank ``k`` before self-forwarding."""
        if rank < 1:
            raise ConfigurationError(f"BGW rank must be >= 1, got {rank}")
        return rank * self.implicit_ack_window

    def post_forward_wait(self, backup_count: int) -> float:
        """The ``(n + 1) * 2 * Thop`` wait after forwarding (Section 4.3)."""
        if backup_count < 0:
            raise ConfigurationError(
                f"backup_count must be >= 0, got {backup_count}"
            )
        return (backup_count + 1) * self.implicit_ack_window
