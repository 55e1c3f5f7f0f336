"""Property/fuzz tests for the service wire codec (`repro.service.wire`).

The replica front door must uphold two promises: (1) every well-formed
frame round-trips bit-exactly through ``encode_frame``/``decode_frame``,
and (2) *no* byte string — truncated, oversized, non-JSON, wrong-typed —
ever produces anything but a clean :class:`WireProtocolError`.  Random
payloads and random mutations of valid frames probe both directions; the
message translators are additionally checked against the simulator's
request/reply dataclasses so a live replica and a simulated one speak the
same schema.
"""

from __future__ import annotations

import json
import string
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError, WireProtocolError
from repro.service import wire
from repro.simulation.messages import (
    ReadReply,
    ReadRequest,
    Timestamp,
    TimestampReply,
    TimestampRequest,
    ValueTimestampPair,
    WriteAck,
    WriteRequest,
)

SEEDS = [3, 17, 91]


def _random_json(rng: np.random.Generator, depth: int = 0) -> object:
    """A random JSON value: scalars, lists and dicts up to depth 3."""
    kinds = ["int", "float", "str", "bool", "none"]
    if depth < 3:
        kinds += ["list", "dict"]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "int":
        return int(rng.integers(-(2**31), 2**31))
    if kind == "float":
        return float(np.round(rng.normal() * 1e3, 6))
    if kind == "str":
        letters = string.ascii_letters + string.digits + " _-éλ∅"
        return "".join(letters[rng.integers(len(letters))] for _ in range(rng.integers(0, 12)))
    if kind == "bool":
        return bool(rng.integers(2))
    if kind == "none":
        return None
    if kind == "list":
        return [_random_json(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    return {
        f"k{i}": _random_json(rng, depth + 1) for i in range(rng.integers(0, 4))
    }


def _deep_frame(head: str, depth: int) -> bytes:
    """A whole frame whose last field is an array nested ``depth`` deep.

    200 000 levels are 0.4 MiB — inside ``MAX_FRAME_BYTES`` — and overflow
    ``json.loads``; 900 levels decode and overflow the value freeze instead.
    """
    body = (head + "[" * depth + "]" * depth + "}").encode("utf-8")
    return struct.pack("!I", len(body)) + body


def _decoded(payload):
    """A parametrised case is a payload dict, or a whole frame to decode first
    (decoding may already refuse it: same error, same contract)."""
    return wire.decode_frame(payload)[0] if isinstance(payload, bytes) else payload


# ----------------------------------------------------------------------
# Round-trip properties.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_random_payloads_round_trip(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        payload = {"type": "READ", "blob": _random_json(rng)}
        decoded, remainder = wire.decode_frame(wire.encode_frame(payload))
        assert remainder == b""
        assert decoded == json.loads(json.dumps(payload))


@pytest.mark.parametrize("seed", SEEDS)
def test_concatenated_frames_stream_decode(seed):
    """decode_frame peels exactly one frame, handing back the remainder."""
    rng = np.random.default_rng(seed)
    payloads = [{"type": "READ", "i": int(i), "blob": _random_json(rng)} for i in range(20)]
    data = b"".join(wire.encode_frame(p) for p in payloads)
    seen = []
    while data:
        payload, data = wire.decode_frame(data)
        seen.append(payload)
    assert seen == [json.loads(json.dumps(p)) for p in payloads]


def test_frame_at_exact_size_limit_round_trips():
    padding = "x" * (wire.MAX_FRAME_BYTES - len('{"type":"READ","pad":""}'))
    payload = {"type": "READ", "pad": padding}
    encoded = wire.encode_frame(payload)
    assert len(encoded) == 4 + wire.MAX_FRAME_BYTES
    decoded, _ = wire.decode_frame(encoded)
    assert decoded == payload


# ----------------------------------------------------------------------
# Malformed input: always a clean WireProtocolError, never a hang/crash.
# ----------------------------------------------------------------------
def test_oversized_frame_rejected_at_both_ends():
    payload = {"type": "READ", "pad": "x" * (wire.MAX_FRAME_BYTES + 1)}
    with pytest.raises(WireProtocolError, match="exceeds"):
        wire.encode_frame(payload)
    # A forged oversized length prefix is rejected before any body read.
    forged = struct.pack("!I", wire.MAX_FRAME_BYTES + 1) + b"x"
    with pytest.raises(WireProtocolError, match="exceeds"):
        wire.decode_frame(forged)


def test_zero_length_frame_rejected():
    with pytest.raises(WireProtocolError, match="zero-length"):
        wire.decode_frame(struct.pack("!I", 0))


@pytest.mark.parametrize("seed", SEEDS)
def test_truncations_of_valid_frames_rejected(seed):
    rng = np.random.default_rng(seed)
    frame = wire.encode_frame({"type": "WRITE", "blob": _random_json(rng)})
    for cut in range(len(frame)):
        with pytest.raises(WireProtocolError, match="truncated"):
            wire.decode_frame(frame[:cut])


@pytest.mark.parametrize("seed", SEEDS)
def test_random_byte_mutations_never_crash(seed):
    """Flipping bytes in a valid frame either still decodes or raises cleanly."""
    rng = np.random.default_rng(seed)
    frame = bytearray(wire.encode_frame({"type": "READ", "blob": _random_json(rng)}))
    for _ in range(300):
        mutated = bytearray(frame)
        for _ in range(rng.integers(1, 4)):
            mutated[rng.integers(len(mutated))] = rng.integers(256)
        try:
            payload, _ = wire.decode_frame(bytes(mutated))
        except WireProtocolError:
            continue
        assert isinstance(payload, dict) and isinstance(payload["type"], str)


@pytest.mark.parametrize(
    "body",
    [
        b"not json at all",
        b"[1,2,3]",  # JSON but not an object
        b'"string"',
        b'{"no_type":1}',
        b'{"type":7}',  # non-string type
        b"\xff\xfe\x00bad utf8",
    ],
)
def test_non_object_bodies_rejected(body):
    with pytest.raises(WireProtocolError):
        wire.decode_frame(struct.pack("!I", len(body)) + body)


def test_unserialisable_payload_rejected_at_sender():
    with pytest.raises(WireProtocolError, match="JSON-serialisable"):
        wire.encode_frame({"type": "WRITE", "value": {1, 2, 3}})
    with pytest.raises(WireProtocolError, match="JSON-serialisable"):
        wire.canonical_value(object())
    too_deep: list = []
    for _ in range(5_000):
        too_deep = [too_deep]
    with pytest.raises(WireProtocolError, match="JSON-serialisable"):
        wire.canonical_value(too_deep)
    with pytest.raises(WireProtocolError, match="JSON-serialisable"):
        wire.encode_frame({"type": "WRITE", "value": too_deep})


def test_non_dict_payload_rejected_at_sender():
    with pytest.raises(WireProtocolError, match="'type'"):
        wire.encode_frame(["READ"])
    with pytest.raises(WireProtocolError, match="'type'"):
        wire.encode_frame({"kind": "READ"})


# ----------------------------------------------------------------------
# The receive buffer: any chunking, the same frames and the same refusals.
# ----------------------------------------------------------------------
def _drain(buffer: wire.FrameBuffer, into: list) -> None:
    while (payload := buffer.next_frame()) is not None:
        into.append(payload)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(
    payloads=st.lists(
        st.fixed_dictionaries(
            {"type": st.sampled_from(["READ", "WRITE", "STATUS"]), "blob": _JSON_VALUES}
        ),
        min_size=1,
        max_size=8,
    ),
    data=st.data(),
)
def test_frame_buffer_yields_what_repeated_decode_frame_yields(payloads, data):
    stream = b"".join(wire.encode_frame(payload) for payload in payloads)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=12), label="cuts"))
    expected, rest = [], stream
    while rest:
        payload, rest = wire.decode_frame(rest)
        expected.append(payload)
    buffer, seen = wire.FrameBuffer(), []
    for start, end in zip([0, *cuts], [*cuts, len(stream)]):
        buffer.feed(stream[start:end])
        _drain(buffer, seen)
    buffer.eof()  # the stream ended between frames
    assert seen == expected


def _framed(body: bytes) -> bytes:
    return struct.pack("!I", len(body)) + body


_REFUSED = {
    # No body follows either prefix: the refusal must not wait for one.
    "oversized": struct.pack("!I", wire.MAX_FRAME_BYTES + 1),
    "zero-length": struct.pack("!I", 0),
    "non-json": _framed(b"not json at all"),
    "non-object": _framed(b"[1,2,3]"),
    "no-type": _framed(b'{"no_type":1}'),
    "bad-utf8": _framed(b"\xff\xfe\x00bad utf8"),
    "too-deep": _deep_frame('{"type":"WRITE","value":', 200_000),
}


@pytest.mark.parametrize("step", [1, 3, 1 << 20])
@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_frame_buffer_refuses_what_decode_frame_refuses(name, step):
    """...with the same error, after handing over the good frames before it."""
    with pytest.raises(WireProtocolError) as expected:
        wire.decode_frame(_REFUSED[name])
    good = {"type": "READ", "client": 0}
    stream = wire.encode_frame(good) + _REFUSED[name]
    buffer, seen = wire.FrameBuffer(), []
    with pytest.raises(WireProtocolError) as raised:
        for start in range(0, len(stream), step):
            buffer.feed(stream[start : start + step])
            _drain(buffer, seen)
    assert seen == [good]
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("seed", SEEDS)
def test_frame_buffer_reports_eof_inside_a_frame_as_truncation(seed):
    rng = np.random.default_rng(seed)
    frame = wire.encode_frame({"type": "WRITE", "blob": _random_json(rng)})
    for cut in range(1, len(frame)):
        buffer = wire.FrameBuffer()
        buffer.feed(frame[:cut])
        assert buffer.next_frame() is None
        with pytest.raises(WireProtocolError, match="truncated"):
            buffer.eof()
    wire.FrameBuffer().eof()  # EOF between frames is a clean close


# ----------------------------------------------------------------------
# Message translation against the simulator schema.
# ----------------------------------------------------------------------
def test_request_translation_round_trips():
    ts = Timestamp(counter=4, client_id=2)
    for request in [
        TimestampRequest(client_id=7),
        ReadRequest(client_id=0),
        WriteRequest(client_id=3, pair=ValueTimestampPair(value=("a", 1), timestamp=ts)),
    ]:
        back = wire.frame_to_request(
            json.loads(json.dumps(wire.request_to_frame(request)))
        )
        assert type(back) is type(request)
        assert back.client_id == request.client_id
        if isinstance(request, WriteRequest):
            assert back.pair.timestamp == ts
            assert back.pair.value == wire.canonical_value(request.pair.value)


def test_reply_translation_round_trips():
    ts = Timestamp(counter=9, client_id=5)
    server_id = ("row", 3)
    for reply in [
        TimestampReply(server_id=server_id, timestamp=ts),
        ReadReply(
            server_id=server_id,
            pair=ValueTimestampPair(value={"k": [1, 2]}, timestamp=ts),
        ),
        WriteAck(server_id=server_id, accepted=True),
    ]:
        frame = wire.reply_to_frame(reply, server_index=11)
        assert frame["server"] == 11
        back = wire.frame_to_reply(json.loads(json.dumps(frame)), server_id=server_id)
        assert type(back) is type(reply)
        assert back.server_id == server_id


def test_frame_bytes_are_pinned():
    """Every byte on the socket, as the previous release wrote it (key order
    ``type, client|server, value, ts``): old and new processes interoperate."""
    pair = ValueTimestampPair(value=("client-3", 17), timestamp=Timestamp(12, 3))
    assert wire.encode_frame(wire.request_to_frame(WriteRequest(client_id=3, pair=pair))) == (
        b'\x00\x00\x00?{"type":"WRITE","client":3,"value":["client-3",17],"ts":[12,3]}'
    )
    framed = {
        type(reply): wire.encode_frame(wire.reply_to_frame(reply, server_index=4))
        for reply in (
            TimestampReply(server_id=(0, 1), timestamp=pair.timestamp),
            ReadReply(server_id=(0, 1), pair=pair),
            WriteAck(server_id=(0, 1), accepted=True),
        )
    }
    assert framed == {
        TimestampReply: b'\x00\x00\x00/{"type":"READ_TS_REPLY","server":4,"ts":[12,3]}',
        ReadReply: (
            b'\x00\x00\x00D{"type":"READ_REPLY","server":4,"value":["client-3",17],"ts":[12,3]}'
        ),
        WriteAck: b'\x00\x00\x00/{"type":"WRITE_ACK","server":4,"accepted":true}',
    }


def test_error_frame_raises_at_client():
    with pytest.raises(WireProtocolError, match="boom"):
        wire.frame_to_reply({"type": "ERROR", "message": "boom"}, server_id=0)


@pytest.mark.parametrize(
    "payload",
    [
        {"type": "READ_TS"},  # missing client
        {"type": "READ", "client": "zero"},
        {"type": "READ", "client": True},  # bools are not protocol ints
        {"type": "WRITE", "client": 1, "value": 2},  # missing ts
        {"type": "WRITE", "client": 1, "value": 2, "ts": [1]},
        {"type": "WRITE", "client": 1, "value": 2, "ts": [1, True]},
        {"type": "WRITE", "client": 1, "value": 2, "ts": "1.2"},
        {"type": "STATUS"},  # service frame, not a protocol request
        {"type": "NOPE"},
        pytest.param(
            _deep_frame('{"type":"WRITE","client":1,"ts":[1,0],"value":', 900), id="nested-900"
        ),
        pytest.param(
            _deep_frame('{"type":"WRITE","client":1,"ts":[1,0],"value":', 200_000),
            id="nested-200000",
        ),
    ],
)
def test_malformed_requests_rejected(payload):
    with pytest.raises(WireProtocolError):
        wire.frame_to_request(_decoded(payload))


@pytest.mark.parametrize(
    "payload",
    [
        {"type": "READ_TS_REPLY", "server": 0},  # missing ts
        {"type": "READ_REPLY", "server": 0, "value": 1},  # missing ts
        {"type": "READ_REPLY", "server": 0, "value": 1, "ts": [0, 0, 0]},
        {"type": "WRITE_ACK", "server": 0, "accepted": "yes"},
        {"type": "WRITE_ACK", "server": 0},
        {"type": "SURPRISE"},
        pytest.param(
            _deep_frame('{"type":"READ_REPLY","server":0,"ts":[1,0],"value":', 900), id="nested-900"
        ),
        pytest.param(
            _deep_frame('{"type":"READ_REPLY","server":0,"ts":[1,0],"value":', 200_000),
            id="nested-200000",
        ),
    ],
)
def test_malformed_replies_rejected(payload):
    with pytest.raises(WireProtocolError):
        wire.frame_to_reply(_decoded(payload), server_id=0)


def test_canonical_value_freezes_containers():
    frozen = wire.canonical_value({"b": [1, {"x": 2}], "a": (3, 4)})
    assert isinstance(frozen, tuple)
    assert hash(frozen) == hash(wire.canonical_value({"a": [3, 4], "b": [1, {"x": 2}]}))


def test_wire_error_is_service_error():
    """The exception taxonomy nests wire failures under the service layer."""
    assert issubclass(WireProtocolError, ServiceError)
