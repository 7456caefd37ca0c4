"""Deterministic wire codec for the FDS message types.

One UDP datagram carries one frame:

====================  ==================================================
bytes 0..3            big-endian unsigned length ``n`` of the JSON body
bytes 4..4+n          UTF-8 canonical JSON (sorted keys, compact
                      separators) -- the frame object
====================  ==================================================

The frame object is ``{"v": 2, "sender": int, "recipient": int|null,
"sent_at": float, "type": str, "body": {...}}`` where ``type`` names one
of the :mod:`repro.fds.messages` dataclasses and ``body`` carries its
fields.  Every field has a typed kind in ``_FIELD_CODECS`` -- no field is
passed through unvalidated.  Sets of node ids serialize as *sorted*
integer lists and keys are sorted, so encoding is a pure function of the
message -- two runs that send the same messages produce byte-identical
frames, which is what makes trace diffing and replay meaningful.

Decoding is strict and total: any malformed input -- truncated prefix,
length mismatch, bad UTF-8, invalid JSON, wrong shapes, unknown types,
out-of-domain field values -- raises :class:`CodecError` (a
:class:`~repro.errors.ReproError`), never an arbitrary exception, so the
runtime's receive loop can drop garbage datagrams without dying.

The length prefix is redundant over UDP (datagrams preserve message
boundaries) but makes the same frames stream-safe over any future
byte-oriented transport, and doubles as an integrity check against
kernel-truncated reads.
"""

from __future__ import annotations

import json
from typing import Dict, NamedTuple, Optional, Tuple

from repro.errors import ReproError
from repro.fds.messages import (
    Digest,
    FailureReport,
    Heartbeat,
    HealthStatusUpdate,
    PeerForward,
    PeerForwardAck,
    PeerForwardRequest,
)
from repro.types import NodeId

#: Wire format version; bump on incompatible changes.
WIRE_VERSION = 2

#: Hard ceiling on the declared body length (a localhost FDS frame is a
#: few hundred bytes; anything near this is garbage or an attack).
MAX_FRAME_BODY = 1 << 20


class CodecError(ReproError):
    """A frame or message failed to encode or decode."""


class WireFrame(NamedTuple):
    """A decoded frame: transport envelope plus the message payload."""

    sender: NodeId
    recipient: Optional[NodeId]
    sent_at: float
    payload: object


# ----------------------------------------------------------------------
# Field codecs
# ----------------------------------------------------------------------
def _enc_nodeset(value) -> list:
    return sorted(int(v) for v in value)


def _dec_node(value, where: str) -> NodeId:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CodecError(f"{where}: expected an integer node id, got {value!r}")
    return NodeId(value)


def _dec_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CodecError(f"{where}: expected an integer, got {value!r}")
    return value


def _dec_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise CodecError(f"{where}: expected a boolean, got {value!r}")
    return value


def _dec_nodeset(value, where: str) -> frozenset:
    if not isinstance(value, list):
        raise CodecError(f"{where}: expected a list of node ids, got {value!r}")
    return frozenset(_dec_node(v, where) for v in value)


# Field kinds: (encoder, decoder) keyed by a short tag.
_FIELD_CODECS = {
    "node": (int, _dec_node),
    "int": (int, _dec_int),
    "bool": (bool, _dec_bool),
    "nodeset": (_enc_nodeset, _dec_nodeset),
    "opt_node": (
        lambda v: None if v is None else int(v),
        lambda v, w: None if v is None else _dec_node(v, w),
    ),
    "opt_nodeset": (
        lambda v: None if v is None else _enc_nodeset(v),
        lambda v, w: None if v is None else _dec_nodeset(v, w),
    ),
    "opt_nodetuple": (
        lambda v: None if v is None else [int(x) for x in v],
        lambda v, w: (
            None
            if v is None
            else tuple(_dec_node(x, w) for x in v)
            if isinstance(v, list)
            else _raise(f"{w}: expected a list of node ids, got {v!r}")
        ),
    ),
    # "update" (nested HealthStatusUpdate) is special-cased below.
}


def _raise(message: str):
    raise CodecError(message)


#: type name -> (dataclass, ordered field spec).
_SCHEMAS: Dict[str, Tuple[type, Tuple[Tuple[str, str], ...]]] = {
    "Heartbeat": (
        Heartbeat,
        (("sender", "node"), ("execution", "int"), ("marked", "bool")),
    ),
    "Digest": (
        Digest,
        (("sender", "node"), ("execution", "int"), ("heard", "nodeset")),
    ),
    "HealthStatusUpdate": (
        HealthStatusUpdate,
        (
            ("head", "node"),
            ("execution", "int"),
            ("new_failures", "nodeset"),
            ("known_failures", "nodeset"),
            ("admissions", "nodeset"),
            ("takeover_from", "opt_node"),
            ("relay", "bool"),
            ("membership", "opt_nodeset"),
            ("refutations", "nodeset"),
            ("deputies", "opt_nodetuple"),
        ),
    ),
    "FailureReport": (
        FailureReport,
        (
            ("sender", "node"),
            ("origin", "node"),
            ("target_head", "node"),
            ("failures", "nodeset"),
            ("history", "nodeset"),
            ("refutations", "nodeset"),
        ),
    ),
    "PeerForwardRequest": (
        PeerForwardRequest,
        (("sender", "node"), ("execution", "int")),
    ),
    "PeerForward": (
        PeerForward,
        (("sender", "node"), ("requester", "node"), ("update", "update")),
    ),
    "PeerForwardAck": (
        PeerForwardAck,
        (("sender", "node"), ("execution", "int")),
    ),
}

#: The dataclasses the codec covers, for tests and dispatch.
MESSAGE_TYPES = tuple(cls for cls, _spec in _SCHEMAS.values())

_TYPE_NAMES = {cls: name for name, (cls, _spec) in _SCHEMAS.items()}


# ----------------------------------------------------------------------
# Message <-> body dict
# ----------------------------------------------------------------------
def encode_message(payload: object) -> Tuple[str, dict]:
    """``(type name, body dict)`` of one FDS message."""
    name = _TYPE_NAMES.get(type(payload))
    if name is None:
        raise CodecError(
            f"cannot encode {type(payload).__name__}: not an FDS wire message"
        )
    _cls, spec = _SCHEMAS[name]
    body = {}
    for field_name, kind in spec:
        value = getattr(payload, field_name)
        if kind == "update":
            _name, body_value = encode_message(value)
        else:
            encoder, _decoder = _FIELD_CODECS[kind]
            body_value = encoder(value)
        body[field_name] = body_value
    return name, body


def decode_message(type_name: str, body: object) -> object:
    """Rebuild one FDS message from its ``(type, body)`` wire form."""
    schema = _SCHEMAS.get(type_name) if isinstance(type_name, str) else None
    if schema is None:
        raise CodecError(f"unknown message type {type_name!r}")
    if not isinstance(body, dict):
        raise CodecError(f"{type_name}: body must be an object, got {body!r}")
    cls, spec = schema
    kwargs = {}
    for field_name, kind in spec:
        if field_name not in body:
            raise CodecError(f"{type_name}: missing field {field_name!r}")
        value = body[field_name]
        where = f"{type_name}.{field_name}"
        if kind == "update":
            kwargs[field_name] = decode_message("HealthStatusUpdate", value)
        else:
            _encoder, decoder = _FIELD_CODECS[kind]
            kwargs[field_name] = decoder(value, where)
    extra = set(body) - {field_name for field_name, _kind in spec}
    if extra:
        raise CodecError(f"{type_name}: unexpected fields {sorted(extra)}")
    return cls(**kwargs)


# ----------------------------------------------------------------------
# Frame <-> bytes
# ----------------------------------------------------------------------
def encode_frame(
    sender: NodeId,
    recipient: Optional[NodeId],
    sent_at: float,
    payload: object,
) -> bytes:
    """One length-prefixed wire frame carrying ``payload``."""
    type_name, body = encode_message(payload)
    frame = {
        "v": WIRE_VERSION,
        "sender": int(sender),
        "recipient": None if recipient is None else int(recipient),
        "sent_at": float(sent_at),
        "type": type_name,
        "body": body,
    }
    # Every field encoder yields ints, bools, None or lists of ints, so
    # serialization cannot fail.
    text = json.dumps(frame, sort_keys=True, separators=(",", ":"))
    encoded = text.encode("utf-8")
    return len(encoded).to_bytes(4, "big") + encoded


def decode_frame(data: bytes) -> WireFrame:
    """Parse one datagram back into a :class:`WireFrame`.

    Raises :class:`CodecError` on *any* malformation.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CodecError(f"frame must be bytes, got {type(data).__name__}")
    data = bytes(data)
    if len(data) < 4:
        raise CodecError(f"truncated frame: {len(data)} byte(s), need >= 4")
    declared = int.from_bytes(data[:4], "big")
    if declared > MAX_FRAME_BODY:
        raise CodecError(f"declared body length {declared} exceeds the cap")
    if len(data) - 4 != declared:
        raise CodecError(
            f"length mismatch: prefix says {declared}, datagram carries "
            f"{len(data) - 4}"
        )
    try:
        text = data[4:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"frame body is not UTF-8: {exc}") from exc
    try:
        frame = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise CodecError(f"frame must be a JSON object, got {frame!r}")
    if frame.get("v") != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {frame.get('v')!r}")
    for key in ("sender", "recipient", "sent_at", "type", "body"):
        if key not in frame:
            raise CodecError(f"frame missing key {key!r}")
    sender = _dec_node(frame["sender"], "frame.sender")
    recipient = frame["recipient"]
    if recipient is not None:
        recipient = _dec_node(recipient, "frame.recipient")
    sent_at = frame["sent_at"]
    if isinstance(sent_at, bool) or not isinstance(sent_at, (int, float)):
        raise CodecError(f"frame.sent_at: expected a number, got {sent_at!r}")
    payload = decode_message(frame["type"], frame["body"])
    return WireFrame(
        sender=sender,
        recipient=recipient,
        sent_at=float(sent_at),
        payload=payload,
    )
