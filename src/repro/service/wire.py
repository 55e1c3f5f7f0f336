"""Length-prefixed JSON frame protocol for the networked register service.

Every message on a replica connection is one *frame*: a 4-byte big-endian
unsigned length ``N`` followed by ``N`` bytes of UTF-8 JSON encoding a single
object with a ``"type"`` field.  The frame types mirror the simulator's
message schema (:mod:`repro.simulation.messages`) phase for phase:

========================  =====================================  ==========
frame type                simulator message                       direction
========================  =====================================  ==========
``READ_TS``               :class:`TimestampRequest`               request
``READ_TS_REPLY``         :class:`TimestampReply`                 reply
``READ``                  :class:`ReadRequest`                    request
``READ_REPLY``            :class:`ReadReply`                      reply
``WRITE``                 :class:`WriteRequest`                   request
``WRITE_ACK``             :class:`WriteAck`                       reply
``STATUS`` / ``METRICS``  — (service health / load introspection)  request
``STALL`` / ``RESUME``    — (fault-injection control)              request
``ERROR``                 — (protocol error report)                reply
========================  =====================================  ==========

A register pair travels as the ``value`` + ``ts`` fields of
:meth:`ValueTimestampPair.to_json
<repro.simulation.messages.ValueTimestampPair.to_json>` (``ts`` is the
``[counter, client_id]`` pair) and every frame that carries one is decoded
by :func:`decode_pair`; replicas are addressed by their *index* in the
universe order (universe elements may be tuples, which JSON cannot key).
Values may be any JSON value: a writer canonicalises the Python value it is
handed with :func:`canonical_value`, and everything decoded from a frame is
already JSON-born and is only frozen, so recorded histories compare pairs by
value, not by Python identity.

``STATUS_REPLY`` additionally carries the replica's current register pair
(the same two fields — the substrate of server-side state discovery after a
full-cluster restart) and, like
``METRICS_REPLY``, a ``storage`` section reporting durable-state health
(WAL length, snapshot age, fsync policy — see :mod:`repro.storage`;
``{"durable": false}`` when the replica runs without a data directory).

The codec is deliberately strict: oversized, truncated, non-JSON,
unknown-type and too-deeply-nested frames all raise
:class:`~repro.exceptions.WireProtocolError` (never a hang, never an
unhandled crash) — the replica answers with an ``ERROR`` frame and closes
the connection.  ``tests/test_service_wire.py`` fuzzes exactly this contract.

A stream is read either through :func:`read_frame` (an asyncio
``StreamReader``: the client exchange, :func:`~repro.service.client.call_endpoint`)
or through a :class:`FrameBuffer` (bytes as a transport delivers them: the
replica); both decode with :func:`decode_frame`.
"""

from __future__ import annotations

import asyncio
import json
import struct

from repro.exceptions import WireProtocolError
from repro.simulation.messages import (
    ReadReply,
    ReadRequest,
    TimestampReply,
    TimestampRequest,
    ValueTimestampPair,
    WriteAck,
    WriteRequest,
    freeze_value,
)

__all__ = [
    "FrameBuffer",
    "MAX_FRAME_BYTES",
    "canonical_value",
    "decode_frame",
    "decode_pair",
    "encode_frame",
    "frame_to_reply",
    "frame_to_request",
    "read_frame",
    "reply_to_frame",
    "request_to_frame",
    "write_frame",
]

#: Hard ceiling on one frame's JSON body; a length prefix above this is
#: rejected before any allocation happens (malicious or corrupt peers).
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct("!I")


def canonical_value(value: object) -> object:
    """Round-trip a value through JSON and freeze it into hashable form.

    This is where a Python value enters the protocol (the client's write
    path): a written ``("a", 1)`` tuple becomes what freezing the ``["a",
    1]`` list JSON hands back gives, so both compare equal in the history
    checker's legitimate-pair set.  Values that JSON cannot serialise, or
    that are nested too deeply to, are a
    :class:`~repro.exceptions.WireProtocolError` at the sender.
    """
    try:
        return freeze_value(json.loads(json.dumps(value)))
    except (TypeError, ValueError, RecursionError) as exc:
        # No repr of the value: a too-deep one cannot be formatted either.
        raise WireProtocolError(
            f"{type(value).__name__} value is not JSON-serialisable: {exc}"
        ) from None


# ----------------------------------------------------------------------
# Frame encoding / decoding.
# ----------------------------------------------------------------------
def encode_frame(payload: dict) -> bytes:
    """Encode one frame: 4-byte big-endian length + UTF-8 JSON body."""
    if not isinstance(payload, dict) or "type" not in payload:
        raise WireProtocolError(
            f"a frame payload must be a dict with a 'type' field, got {payload!r}"
        )
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:
        raise WireProtocolError(f"frame payload is not JSON-serialisable: {exc}") from None
    if len(body) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame body of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def decode_frame(data: bytes) -> tuple[dict, bytes]:
    """Decode one frame from ``data``; return ``(payload, remainder)``.

    Raises :class:`~repro.exceptions.WireProtocolError` when the prefix
    announces an oversized or zero-length body, when the announced body is
    truncated, or when the body is not a JSON object with a ``"type"``.
    """
    if len(data) < _LENGTH.size:
        raise WireProtocolError(
            f"truncated frame: {len(data)} bytes is shorter than the 4-byte length prefix"
        )
    (length,) = _LENGTH.unpack_from(data)
    if length == 0:
        raise WireProtocolError("zero-length frame body")
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    end = _LENGTH.size + length
    if len(data) < end:
        raise WireProtocolError(
            f"truncated frame: header announces {length} bytes, {len(data) - _LENGTH.size} present"
        )
    body = data[_LENGTH.size : end]
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise WireProtocolError(f"frame body is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("type"), str):
        raise WireProtocolError(
            "frame body must be a JSON object with a string 'type' field"
        )
    return payload, data[end:]


class FrameBuffer:
    """The receive side of a connection without the I/O: bytes in, frames out.

    :meth:`feed` takes the bytes as the transport delivers them, in whatever
    pieces; :meth:`next_frame` hands back one decoded payload per complete
    frame, in order.  Every frame goes through :func:`decode_frame`, so the
    two reject exactly the same input — and a length prefix outside ``(0,
    MAX_FRAME_BYTES]`` is rejected as soon as its four bytes are in, never
    after buffering the body it announces.
    """

    def __init__(self) -> None:
        self._data = bytearray()

    def feed(self, data: bytes) -> None:
        self._data += data

    def next_frame(self) -> dict | None:
        """Decode and consume the next complete frame; ``None`` when there is none yet."""
        data = self._data
        if len(data) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(data)
        end = _LENGTH.size + length
        if len(data) < end and 0 < length <= MAX_FRAME_BYTES:
            return None  # a legal prefix whose body is still arriving
        frame = bytes(data[:end])
        del data[:end]
        return decode_frame(frame)[0]

    def eof(self) -> None:
        """The peer sent EOF: raise if that cut a frame short.

        Call with every complete frame consumed; what is left is then a
        partial header or body, which :func:`decode_frame` names.
        """
        if self._data:
            decode_frame(bytes(self._data))


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    A connection closed mid-frame raises
    :class:`~repro.exceptions.WireProtocolError` (truncated frame), as does
    an oversized length prefix — callers must not keep the connection.
    """
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise WireProtocolError(
            f"connection closed inside a frame header ({len(exc.partial)}/4 bytes)"
        ) from None
    (length,) = _LENGTH.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame length {length} outside (0, {MAX_FRAME_BYTES}]"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError(
            f"connection closed inside a frame body ({len(exc.partial)}/{length} bytes)"
        ) from None
    payload, remainder = decode_frame(header + body)
    assert not remainder  # readexactly consumed exactly one frame
    return payload


async def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    """Encode and send one frame, draining the transport."""
    writer.write(encode_frame(payload))
    await writer.drain()


# ----------------------------------------------------------------------
# Pair decoding.
# ----------------------------------------------------------------------
def decode_pair(payload: dict) -> ValueTimestampPair:
    """Decode the register pair a frame carries (its ``value`` + ``ts``).

    Strict about the timestamp's shape; a value nested too deeply to freeze
    is a protocol violation too.  Public because introspection consumers
    (:func:`repro.service.harness.discover_initial_pair` reading ``STATUS``
    replies) decode the same fields as the protocol frames.
    """
    try:
        pair = ValueTimestampPair.from_json(payload)
    except RecursionError:
        pair = None
    if pair is None:
        # No repr of the fields: a too-deep one cannot be formatted either.
        raise WireProtocolError(
            f"{payload.get('type', '?')} frame needs a 'ts' [counter, client_id] "
            "integer pair and a value of bounded depth"
        )
    return pair


def _require_int(payload: dict, key: str) -> int:
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise WireProtocolError(
            f"{payload.get('type', '?')} frame needs an integer {key!r}, got {value!r}"
        )
    return value


# ----------------------------------------------------------------------
# Request translation (client -> replica).
# ----------------------------------------------------------------------
def request_to_frame(request: object) -> dict:
    """Translate a simulator request message into its wire frame."""
    if isinstance(request, TimestampRequest):
        return {"type": "READ_TS", "client": request.client_id}
    if isinstance(request, ReadRequest):
        return {"type": "READ", "client": request.client_id}
    if isinstance(request, WriteRequest):
        return {"type": "WRITE", "client": request.client_id, **request.pair.to_json()}
    raise WireProtocolError(f"cannot frame request of type {type(request).__name__}")


def frame_to_request(payload: dict) -> object:
    """Translate a request frame into the simulator message it mirrors.

    ``STATUS``/``METRICS``/``STALL``/``RESUME`` frames are service-level and
    have no simulator twin; they are handled by the replica directly and
    rejected here.
    """
    kind = payload.get("type")
    if kind == "READ_TS":
        return TimestampRequest(client_id=_require_int(payload, "client"))
    if kind == "READ":
        return ReadRequest(client_id=_require_int(payload, "client"))
    if kind == "WRITE":
        return WriteRequest(client_id=_require_int(payload, "client"), pair=decode_pair(payload))
    raise WireProtocolError(f"unknown or non-protocol request frame type {kind!r}")


# ----------------------------------------------------------------------
# Reply translation (replica -> client).
# ----------------------------------------------------------------------
def reply_to_frame(reply: object, *, server_index: int) -> dict:
    """Translate a simulator reply message into its wire frame.

    Replies carry the replica's universe *index* (not the raw server id,
    which may be a tuple); clients map indices back onto universe elements.
    """
    if isinstance(reply, TimestampReply):
        return {"type": "READ_TS_REPLY", "server": server_index, "ts": reply.timestamp.to_pair()}
    if isinstance(reply, ReadReply):
        return {"type": "READ_REPLY", "server": server_index, **reply.pair.to_json()}
    if isinstance(reply, WriteAck):
        return {"type": "WRITE_ACK", "server": server_index, "accepted": bool(reply.accepted)}
    raise WireProtocolError(f"cannot frame reply of type {type(reply).__name__}")


def frame_to_reply(payload: dict, *, server_id: object) -> object:
    """Translate a reply frame back into the simulator message it mirrors.

    ``server_id`` is the universe element the answering replica index maps
    to; it is substituted so client-side vouch counting and history records
    speak universe elements exactly like the simulator stack.
    """
    kind = payload.get("type")
    if kind == "READ_TS_REPLY":
        return TimestampReply(server_id=server_id, timestamp=decode_pair(payload).timestamp)
    if kind == "READ_REPLY":
        return ReadReply(server_id=server_id, pair=decode_pair(payload))
    if kind == "WRITE_ACK":
        accepted = payload.get("accepted")
        if not isinstance(accepted, bool):
            raise WireProtocolError(
                f"WRITE_ACK frame needs a boolean 'accepted', got {accepted!r}"
            )
        return WriteAck(server_id=server_id, accepted=accepted)
    if kind == "ERROR":
        raise WireProtocolError(
            f"replica reported a protocol error: {payload.get('message', '?')}"
        )
    raise WireProtocolError(f"unknown reply frame type {kind!r}")
