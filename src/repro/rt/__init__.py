"""Real-network execution substrate: the FDS over asyncio UDP sockets.

The discrete-event simulator exercises the protocol under a *modeled*
radio; this package runs the very same :class:`~repro.fds.service.FdsProtocol`
objects on the very same :class:`~repro.sim.node.SimNode` hosts, over a
wall-clock scheduler and real localhost UDP sockets with a deterministic
wire codec.  One host class, two substrates beneath it, so a simulated
and a real run of the same seeded spec are differentially comparable
(:mod:`repro.audit.realnet`).  What lives here is only what is genuinely
rt: sockets, codec, spool merge, wall clock.

Modules
-------
``codec``
    Length-prefixed canonical-JSON wire format for every
    :mod:`repro.fds.messages` type; decoding raises a typed
    :class:`~repro.rt.codec.CodecError`, never crashes the loop.
``substrate``
    :class:`~repro.rt.substrate.WallClockScheduler` (the ``sim`` of an
    rt-hosted ``SimNode``) and :class:`~repro.rt.substrate.UdpLink` (its
    ``medium``: socket, broadcast emulation with seeded drop/delay, and
    the task-kill + socket-close that a fail-stop means here).
``runtime``
    The scenario runtime: field and layout, protocol installation,
    faultload arming, run orchestration, result.
``collector``
    Per-node spool merging into one analyzable trace.
``cli``
    ``repro rt run`` and ``repro rt diff``.
"""

from repro.rt.codec import CodecError, decode_frame, encode_frame

__all__ = ["CodecError", "decode_frame", "encode_frame"]
