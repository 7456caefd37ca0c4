"""Wire-codec conformance: every FDS message type must survive a
frame round-trip bit-exactly, and every malformed frame must raise a
typed :class:`~repro.rt.codec.CodecError` -- never a bare exception.

The round-trip cases are property-style: seeded random instances of
each dataclass in :mod:`repro.fds.messages`, including the nested
``PeerForward(update=HealthStatusUpdate(...))`` shape and frozenset /
Optional / tuple fields.
"""

import asyncio
import dataclasses
import json
import socket
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.fds.messages import (
    Digest,
    FailureReport,
    Heartbeat,
    HealthStatusUpdate,
    PeerForward,
    PeerForwardAck,
    PeerForwardRequest,
)
from repro.rt.codec import (
    _FIELD_CODECS,
    _SCHEMAS,
    MAX_FRAME_BODY,
    MESSAGE_TYPES,
    WIRE_VERSION,
    CodecError,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.rt.substrate import CODEC_ERROR_KIND, UdpLink, WallClockScheduler
from repro.sim.node import Protocol, SimNode
from repro.sim.trace import RecordingTracer


def _node_set(rng, low=0, high=40):
    return frozenset(
        int(v) for v in rng.integers(low, high, size=int(rng.integers(0, 5)))
    )


def _random_update(rng):
    return HealthStatusUpdate(
        head=int(rng.integers(0, 40)),
        execution=int(rng.integers(0, 100)),
        new_failures=_node_set(rng),
        known_failures=_node_set(rng),
        admissions=_node_set(rng),
        takeover_from=(
            None if rng.random() < 0.5 else int(rng.integers(0, 40))
        ),
        relay=bool(rng.random() < 0.5),
        membership=(
            None if rng.random() < 0.5 else _node_set(rng)
        ),
        refutations=_node_set(rng),
        deputies=(
            None
            if rng.random() < 0.5
            else tuple(int(v) for v in rng.integers(0, 40, size=2))
        ),
    )


def _random_message(rng, cls):
    if cls is Heartbeat:
        return Heartbeat(
            sender=int(rng.integers(0, 40)),
            execution=int(rng.integers(0, 100)),
            marked=bool(rng.random() < 0.5),
        )
    if cls is Digest:
        return Digest(
            sender=int(rng.integers(0, 40)),
            execution=int(rng.integers(0, 100)),
            heard=_node_set(rng),
        )
    if cls is HealthStatusUpdate:
        return _random_update(rng)
    if cls is FailureReport:
        return FailureReport(
            sender=int(rng.integers(0, 40)),
            origin=int(rng.integers(0, 40)),
            target_head=int(rng.integers(0, 40)),
            failures=_node_set(rng),
            history=_node_set(rng),
            refutations=_node_set(rng),
        )
    if cls is PeerForwardRequest:
        return PeerForwardRequest(
            sender=int(rng.integers(0, 40)),
            execution=int(rng.integers(0, 100)),
        )
    if cls is PeerForward:
        return PeerForward(
            sender=int(rng.integers(0, 40)),
            requester=int(rng.integers(0, 40)),
            update=_random_update(rng),
        )
    if cls is PeerForwardAck:
        return PeerForwardAck(
            sender=int(rng.integers(0, 40)),
            execution=int(rng.integers(0, 100)),
        )
    raise AssertionError(f"unhandled message type {cls}")


@pytest.mark.parametrize("cls", MESSAGE_TYPES, ids=lambda c: c.__name__)
def test_roundtrip_every_message_type(cls):
    rng = np.random.default_rng(zlib.crc32(cls.__name__.encode()))
    for _ in range(25):
        message = _random_message(rng, cls)
        frame = encode_frame(3, None, 1.25, message)
        decoded = decode_frame(frame)
        assert decoded.sender == 3
        assert decoded.recipient is None
        assert decoded.sent_at == 1.25
        assert decoded.payload == message
        assert type(decoded.payload) is cls


@pytest.mark.parametrize("type_name", sorted(_SCHEMAS))
def test_schema_matches_dataclass_and_every_kind_has_a_codec(type_name):
    # A message field added without a codec entry (or the reverse) fails
    # here instead of at the first datagram.
    cls, spec = _SCHEMAS[type_name]
    assert cls.__name__ == type_name
    assert [name for name, _kind in spec] == [
        f.name for f in dataclasses.fields(cls)
    ]
    for name, kind in spec:
        assert kind in _FIELD_CODECS or (name, kind) == ("update", "update")


def test_roundtrip_unicast_recipient():
    message = PeerForwardAck(sender=1, execution=2)
    decoded = decode_frame(encode_frame(1, 9, 0.5, message))
    assert decoded.recipient == 9
    assert decoded.payload == message


def test_encoding_is_deterministic():
    rng = np.random.default_rng(7)
    update = _random_update(rng)
    assert encode_frame(2, None, 0.0, update) == encode_frame(
        2, None, 0.0, update
    )


def test_frame_is_length_prefixed_canonical_json():
    frame = encode_frame(0, 1, 2.0, PeerForwardAck(sender=0, execution=1))
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    body = json.loads(frame[4:].decode("utf-8"))
    assert body["v"] == WIRE_VERSION == 2
    assert body["type"] == "PeerForwardAck"


# ----------------------------------------------------------------------
# Adversarial frames: typed errors, never crashes.
# ----------------------------------------------------------------------
def _valid_frame():
    return encode_frame(0, None, 0.0, PeerForwardAck(sender=0, execution=1))


@pytest.mark.parametrize(
    "mutilate",
    [
        lambda f: b"",
        lambda f: f[:3],
        lambda f: f[:4],
        lambda f: f[: len(f) // 2],
        lambda f: f + b"extra",
        lambda f: struct.pack(">I", MAX_FRAME_BODY + 1) + f[4:],
        lambda f: f[:4] + b"\xff\xfe" + f[6:],
        lambda f: f[:4] + b"not json".ljust(len(f) - 4, b" "),
        lambda f: f[:4] + b"[1, 2, 3]".ljust(len(f) - 4, b" "),
    ],
    ids=[
        "empty",
        "short-prefix",
        "no-body",
        "truncated-body",
        "trailing-garbage",
        "oversized-claim",
        "bad-utf8",
        "not-json",
        "non-dict-body",
    ],
)
def test_mutilated_frames_raise_codec_error(mutilate):
    with pytest.raises(CodecError):
        decode_frame(mutilate(_valid_frame()))


def _reframe(body: dict) -> bytes:
    data = json.dumps(body).encode("utf-8")
    return struct.pack(">I", len(data)) + data


def _valid_body() -> dict:
    return json.loads(_valid_frame()[4:].decode("utf-8"))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda b: {**b, "v": 99},
        lambda b: {k: v for k, v in b.items() if k != "v"},
        lambda b: {k: v for k, v in b.items() if k != "sender"},
        lambda b: {k: v for k, v in b.items() if k != "type"},
        lambda b: {k: v for k, v in b.items() if k != "body"},
        lambda b: {**b, "sender": "zero"},
        lambda b: {**b, "sender": True},
        lambda b: {**b, "recipient": "all"},
        lambda b: {**b, "sent_at": "soon"},
        lambda b: {**b, "type": "NotAMessage"},
        lambda b: {**b, "body": []},
        lambda b: {**b, "body": {}},
        lambda b: {**b, "body": {**b["body"], "surplus": 1}},
        lambda b: {**b, "body": {**b["body"], "execution": "one"}},
    ],
    ids=[
        "wrong-version",
        "missing-version",
        "missing-sender",
        "missing-type",
        "missing-body",
        "string-sender",
        "bool-sender",
        "string-recipient",
        "string-sent-at",
        "unknown-type",
        "non-dict-inner-body",
        "missing-fields",
        "extra-field",
        "bad-field-type",
    ],
)
def test_corrupted_bodies_raise_codec_error(corrupt):
    with pytest.raises(CodecError):
        decode_frame(_reframe(corrupt(_valid_body())))


def test_nested_update_validation():
    frame_body = json.loads(
        encode_frame(
            0, None, 0.0,
            PeerForward(sender=0, requester=1, update=_random_update(
                np.random.default_rng(0)
            )),
        )[4:].decode("utf-8")
    )
    frame_body["body"]["update"]["head"] = "boom"
    with pytest.raises(CodecError):
        decode_frame(_reframe(frame_body))


def test_nodeset_rejects_non_int_members():
    body = _valid_body()
    body["type"] = "Digest"
    body["body"] = {"sender": 0, "execution": 1, "heard": [1, "two"]}
    with pytest.raises(CodecError):
        decode_frame(_reframe(body))


def test_unencodable_payload_raises():
    with pytest.raises(CodecError):
        encode_message(object())


def _v1_heartbeat_frame() -> bytes:
    """A well-formed frame of wire version 1, extension fields included."""
    return _reframe({
        "v": 1, "sender": 0, "recipient": None, "sent_at": 0.0,
        "type": "Heartbeat",
        "body": {
            "sender": 0, "execution": 1, "marked": True,
            "piggyback": {"reading": 20.5}, "sleep_span": 2,
        },
    })


def test_v1_frame_is_rejected():
    with pytest.raises(CodecError, match="wire version"):
        decode_frame(_v1_heartbeat_frame())
    # The same body under the current version: the old fields are surplus.
    body = json.loads(_v1_heartbeat_frame()[4:])
    with pytest.raises(CodecError, match="unexpected fields"):
        decode_frame(_reframe({**body, "v": WIRE_VERSION}))


def test_v1_frame_at_a_live_link_is_counted_not_raised():
    async def scenario():
        loop = asyncio.get_running_loop()
        net = SimpleNamespace(
            scheduler=WallClockScheduler(loop), codec_errors=0
        )
        tracer = RecordingTracer()
        delivered = []
        link = UdpLink(net, tracer)
        link.register(7, None, {cls: delivered.append for cls in MESSAGE_TYPES})
        await link.open(asyncio.Event())
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
                sender.sendto(_v1_heartbeat_frame(), link.address)
                sender.sendto(_valid_frame(), link.address)
            deadline = loop.time() + 5.0
            while not delivered and loop.time() < deadline:
                await asyncio.sleep(0.01)
        finally:
            link.close()
        return net, tracer, delivered

    net, tracer, delivered = asyncio.run(scenario())
    # The link outlived the stale frame: the valid one behind it arrived.
    assert [type(payload) for payload in delivered] == [PeerForwardAck]
    assert net.codec_errors == 1
    (record,) = tracer.iter_kind(CODEC_ERROR_KIND)
    assert record.node == 7
    assert "wire version" in record.detail["error"]


class _Acks(Protocol):
    def __init__(self):
        super().__init__()
        self.received = []

    def handlers(self):
        return {PeerForwardAck: self.received.append}


def test_a_crashed_node_drops_datagrams_already_queued_to_it():
    async def scenario():
        loop = asyncio.get_running_loop()
        scheduler = WallClockScheduler(loop)
        net = SimpleNamespace(scheduler=scheduler, codec_errors=0)
        tracer = RecordingTracer()
        link = UdpLink(net, tracer)
        await link.open(asyncio.Event())
        node = SimNode(7, None, scheduler, link)
        acks = _Acks()
        node.add_protocol(acks)
        link.datagram_received(_valid_frame(), None)
        node.crash()  # closes the socket
        # A datagram the loop read for the node before the kill.
        link.datagram_received(_valid_frame(), None)
        await asyncio.sleep(0)
        return link, tracer, acks

    link, tracer, acks = asyncio.run(scenario())
    assert [type(payload) for payload in acks.received] == [PeerForwardAck]
    assert link.deliveries == 1
    assert tracer.count("radio.rx") == 1


def test_decode_message_rejects_non_dict():
    with pytest.raises(CodecError):
        decode_message("Heartbeat", [1, 2])


def test_fuzz_random_bytes_never_crash():
    rng = np.random.default_rng(42)
    for _ in range(200):
        size = int(rng.integers(0, 64))
        blob = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
        try:
            decode_frame(blob)
        except CodecError:
            pass  # the only acceptable failure mode
