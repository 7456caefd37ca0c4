"""Real-network execution substrate: the FDS over asyncio UDP sockets.

The discrete-event simulator exercises the protocol under a *modeled*
radio; this package runs the very same :class:`~repro.fds.service.FdsProtocol`
objects as asyncio tasks bound to real localhost UDP sockets, with
wall-clock timers and a deterministic wire codec.  Both hosts implement
the :class:`~repro.fds.substrate.Substrate` surface, so a simulated and a
real run of the same seeded spec are differentially comparable
(:mod:`repro.audit.realnet`).

Modules
-------
``codec``
    Length-prefixed canonical-JSON wire format for every
    :mod:`repro.fds.messages` type; decoding raises a typed
    :class:`~repro.rt.codec.CodecError`, never crashes the loop.
``substrate``
    :class:`~repro.rt.substrate.RtNode` and asyncio-backed timers -- the
    runtime's implementation of the substrate surface.
``runtime``
    The scenario runtime: socket binding, broadcast emulation with
    seeded drop/delay, protocol installation, run orchestration.
``faults``
    Wall-clock crash injection (task killing).
``collector``
    Per-node spool merging into one analyzable trace.
``cli``
    ``repro rt run`` and ``repro rt diff``.
"""

from repro.rt.codec import CodecError, decode_frame, encode_frame

__all__ = ["CodecError", "decode_frame", "encode_frame"]
