"""Binary wire protocol v2 for the KV service: codec and op model.

A JSON-lines wire spends a large share of every request on
``dumps``/``loads`` and one event-loop wakeup per line.  Protocol v2
avoids both costs: messages are packed with :mod:`struct` into
length-prefixed **frames**, and one frame carries *many* logical RPCs
(op coalescing) — the client packs every request queued during a flush
window into a single frame, the server decodes, applies and answers the
whole batch with one write, and each side wakes once per batch instead
of once per message.

Frame layout (all integers big-endian)::

    offset  size  field
    0       2     magic      0x5132 ("Q2")
    2       1     version    protocol version (2)
    3       1     flags      bit 0: HELLO (negotiation frame)
    4       4     body_len   bytes after this 10-byte header
    8       2     count      logical messages coalesced in the body

The body is ``count`` back-to-back messages.  A request message is::

    u32 rpc_id, u8 op_kind, <op-specific fields>

and a response message is::

    u32 rpc_id, u8 op_kind, u8 status, i32 replica, <op-specific fields>

Op-specific fields are fixed ``struct`` fields plus length-delimited
byte strings (u16-length keys, u32-length JSON value blobs).  The **op
model** — which operations exist and which fields they carry — is the
single dict vocabulary the whole serving stack speaks
(:meth:`repro.service.replica.Replica.handle` requests/responses):
``read``, ``write``, ``repair``, ``keys``, ``ping``, ``join``.  The
codec round-trips those dicts byte-exactly, and any request or response
*outside* the hot vocabulary travels as an ``OP_JSON`` message (one JSON
blob), so arbitrary dicts — error replies included — always survive the
wire.  :class:`~repro.service.simtransport.SimTransport` can assert the
same contract at runtime (``wire_check=True``): every op it carries is
round-tripped through this codec and compared, which is what keeps
sim-mode determinism and the binary transport on one op model.

Version negotiation: the first frame on a channel is a HELLO carrying
``(min_version, max_version)``; the server answers with its own HELLO
whose ``version`` header byte is the negotiated version (0 = no overlap,
channel closed).  Binary v2 is the only protocol the replica servers
speak: a peer whose first bytes are not a frame header (bad magic)
gets a hang-up.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterable, List, Tuple

from ..core.errors import ServiceError

__all__ = [
    "MAGIC",
    "VERSION",
    "MIN_VERSION",
    "FLAG_HELLO",
    "HEADER",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "OP_KINDS",
    "OP_NAMES",
    "OP_JSON",
    "WireError",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "pack_frame",
    "pack_frames",
    "hello_frame",
    "negotiate",
    "FrameDecoder",
    "roundtrip_request",
    "roundtrip_response",
]

#: First two bytes of every binary frame — "Q2" (Quorum wire v2).
MAGIC = 0x5132
#: Highest protocol version this codec speaks.
VERSION = 2
#: Lowest protocol version this codec still accepts.
MIN_VERSION = 2
#: Header flag bit: this frame is a HELLO negotiation frame.
FLAG_HELLO = 0x01

#: Frame header: magic, version, flags, body length, message count.
HEADER = struct.Struct("!HBBIH")
HEADER_BYTES = HEADER.size

#: Hard cap on one frame body (1 MiB).
MAX_FRAME_BYTES = 1 << 20

# ----------------------------------------------------------------------
# Op model
# ----------------------------------------------------------------------
#: The service's op vocabulary, shared with Replica.handle and (by
#: round-trip assertion) with SimTransport.  Kind 0 is the JSON escape
#: hatch for dicts outside the vocabulary.
OP_JSON = 0
OP_KINDS: Dict[str, int] = {
    "read": 1,
    "write": 2,
    "repair": 3,
    "keys": 4,
    "ping": 5,
    "join": 6,
}
OP_NAMES: Dict[int, str] = {kind: name for name, kind in OP_KINDS.items()}

_STATUS_OK = 0
_STATUS_ERR = 1

# One compiled Struct per message shape: the hot decode path does a
# single combined unpack per message (plus one for a trailing
# variable-length field) instead of one call per field — pure-Python
# codecs live and die by call count.
_MSG_REQ = struct.Struct("!IB")  # rpc_id, op_kind
_MSG_RESP = struct.Struct("!IBBi")  # rpc_id, op_kind, status, replica
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_REQ_READ_HEAD = struct.Struct("!IBH")  # rpc_id, kind, key_len
_REQ_WRITE_TAIL = struct.Struct("!qqI")  # counter, writer, value_len
_REQ_JOIN = struct.Struct("!IBqq")  # rpc_id, kind, coordinator, ttl
_RESP_READ_HEAD = struct.Struct("!IBBiqqI")  # ..., counter, writer, value_len
_RESP_WRITE = struct.Struct("!IBBiBqq")  # ..., applied, counter, writer
_RESP_JOIN = struct.Struct("!IBBiBq")  # ..., granted, ttl

try:  # pragma: no cover - depends on environment
    import orjson as _orjson

    _dumps = _orjson.dumps
    _loads = _orjson.loads
    _loads_view = _orjson.loads  # accepts memoryview directly
except ImportError:  # pragma: no cover - depends on environment
    _orjson = None

    def _dumps(obj: Any) -> bytes:
        return json.dumps(obj, separators=(",", ":")).encode()

    _loads = json.loads

    def _loads_view(view: memoryview) -> Any:
        return json.loads(bytes(view))


class WireError(ServiceError):
    """Malformed or oversized binary frame; the channel must be torn down."""


# ----------------------------------------------------------------------
# Message codec
# ----------------------------------------------------------------------
def encode_request(rpc_id: int, request: Dict[str, Any]) -> bytes:
    """Pack one request dict into a v2 message (no frame header).

    Hot ops (``read``/``write``/``repair``/``ping``/``keys``/``join``
    with their canonical fields) take the struct-packed fast path; any
    other dict is carried verbatim as an ``OP_JSON`` blob, so the binary
    channel never narrows what the dict protocol can express.
    """
    op = request.get("op")
    kind = OP_KINDS.get(op, OP_JSON) if isinstance(op, str) else OP_JSON
    if kind == 1:  # read
        key = request.get("key")
        if isinstance(key, str) and len(request) == 2:
            kb = key.encode()
            if len(kb) < 0xFFFF:
                return _REQ_READ_HEAD.pack(rpc_id, kind, len(kb)) + kb
    elif kind == 2 or kind == 3:  # write / repair
        key = request.get("key")
        counter = request.get("counter")
        writer = request.get("writer")
        if (
            isinstance(key, str)
            and isinstance(counter, int)
            and isinstance(writer, int)
            and len(request) == 5
        ):
            kb = key.encode()
            vb = _dumps(request.get("value"))
            if len(kb) < 0xFFFF:
                return (
                    _REQ_READ_HEAD.pack(rpc_id, kind, len(kb))
                    + kb
                    + _REQ_WRITE_TAIL.pack(counter, writer, len(vb))
                    + vb
                )
    elif kind == 5 or kind == 4:  # ping / keys
        if len(request) == 1:
            return _MSG_REQ.pack(rpc_id, kind)
    elif kind == 6:  # join
        coordinator = request.get("coordinator")
        ttl = request.get("ttl")
        if isinstance(coordinator, int) and isinstance(ttl, int) and len(request) == 3:
            return _REQ_JOIN.pack(rpc_id, kind, coordinator, ttl)
    blob = _dumps(request)
    return _MSG_REQ.pack(rpc_id, OP_JSON) + _U32.pack(len(blob)) + blob


def decode_request(view: memoryview, offset: int) -> Tuple[int, Dict[str, Any], int]:
    """Unpack one request message at ``offset``; returns
    ``(rpc_id, request dict, next offset)``."""
    try:
        kind = view[offset + 4]
        if kind == 1:  # read
            rpc_id, _, klen = _REQ_READ_HEAD.unpack_from(view, offset)
            offset += 7
            end = offset + klen
            if end > len(view):
                raise WireError("truncated key field")
            return rpc_id, {"op": "read", "key": str(view[offset:end], "utf-8")}, end
        if kind == 2 or kind == 3:  # write / repair
            rpc_id, _, klen = _REQ_READ_HEAD.unpack_from(view, offset)
            offset += 7
            end = offset + klen
            key = str(view[offset:end], "utf-8")
            counter, writer, vlen = _REQ_WRITE_TAIL.unpack_from(view, end)
            offset = end + 20
            end = offset + vlen
            if end > len(view):
                raise WireError("truncated value field")
            return (
                rpc_id,
                {
                    "op": "write" if kind == 2 else "repair",
                    "key": key,
                    "value": _loads_view(view[offset:end]),
                    "counter": counter,
                    "writer": writer,
                },
                end,
            )
        if kind == 5 or kind == 4:  # ping / keys
            rpc_id, _ = _MSG_REQ.unpack_from(view, offset)
            return rpc_id, {"op": "ping" if kind == 5 else "keys"}, offset + 5
        if kind == 6:  # join
            rpc_id, _, coordinator, ttl = _REQ_JOIN.unpack_from(view, offset)
            return (
                rpc_id,
                {"op": "join", "coordinator": coordinator, "ttl": ttl},
                offset + _REQ_JOIN.size,
            )
        if kind == OP_JSON:
            rpc_id, _ = _MSG_REQ.unpack_from(view, offset)
            blob, offset = _take_blob_raw(view, offset + 5)
            return rpc_id, _loads_object(blob), offset
    except (struct.error, ValueError, IndexError, UnicodeDecodeError, RecursionError) as exc:
        raise WireError(f"malformed request message: {exc}") from None
    raise WireError(f"unknown request op kind {kind}")


def encode_response(rpc_id: int, payload: Dict[str, Any]) -> bytes:
    """Pack one response dict into a v2 message (no frame header)."""
    replica = payload.get("replica")
    rep = replica if isinstance(replica, int) else -1
    if payload.get("ok") is not True:
        error = payload.get("error")
        if isinstance(error, str) and set(payload) <= {"ok", "replica", "error"}:
            eb = error.encode()
            return b"".join(
                (
                    _MSG_RESP.pack(rpc_id, OP_JSON, _STATUS_ERR, rep),
                    _U32.pack(len(eb)),
                    eb,
                )
            )
        blob = _dumps(payload)
        return b"".join(
            (
                _MSG_RESP.pack(rpc_id, OP_JSON, _STATUS_OK, rep),
                _U32.pack(len(blob)),
                blob,
            )
        )
    fields = set(payload)
    if fields == _READ_FIELDS:
        vb = _dumps(payload["value"])
        return (
            _RESP_READ_HEAD.pack(
                rpc_id,
                1,
                _STATUS_OK,
                rep,
                payload["counter"],
                payload["writer"],
                len(vb),
            )
            + vb
        )
    if fields == _WRITE_FIELDS:
        return _RESP_WRITE.pack(
            rpc_id,
            2,
            _STATUS_OK,
            rep,
            1 if payload["applied"] else 0,
            payload["counter"],
            payload["writer"],
        )
    if fields == _PING_FIELDS:
        return _MSG_RESP.pack(rpc_id, 5, _STATUS_OK, rep)
    if fields == _JOIN_FIELDS:
        return _RESP_JOIN.pack(
            rpc_id, 6, _STATUS_OK, rep, 1 if payload["granted"] else 0, payload["ttl"]
        )
    if fields == _KEYS_FIELDS and isinstance(payload["keys"], list):
        keys: List[str] = payload["keys"]
        parts = [
            _MSG_RESP.pack(rpc_id, OP_KINDS["keys"], _STATUS_OK, rep),
            _U32.pack(len(keys)),
        ]
        for key in keys:
            kb = key.encode()
            parts.append(_U16.pack(len(kb)))
            parts.append(kb)
        return b"".join(parts)
    blob = _dumps(payload)
    return b"".join(
        (
            _MSG_RESP.pack(rpc_id, OP_JSON, _STATUS_OK, rep),
            _U32.pack(len(blob)),
            blob,
        )
    )


_READ_FIELDS = {"ok", "replica", "value", "counter", "writer"}
_WRITE_FIELDS = {"ok", "replica", "applied", "counter", "writer"}
_PING_FIELDS = {"ok", "replica"}
_JOIN_FIELDS = {"ok", "replica", "granted", "ttl"}
_KEYS_FIELDS = {"ok", "replica", "keys"}


def decode_response(view: memoryview, offset: int) -> Tuple[int, Dict[str, Any], int]:
    """Unpack one response message at ``offset``; returns
    ``(rpc_id, payload dict, next offset)``."""
    try:
        kind = view[offset + 4]
        status = view[offset + 5]
        if status == _STATUS_ERR:
            rpc_id, kind, status, replica = _MSG_RESP.unpack_from(view, offset)
            blob, offset = _take_blob_raw(view, offset + _MSG_RESP.size)
            payload: Dict[str, Any] = {"ok": False, "error": str(blob, "utf-8")}
            if replica >= 0:
                payload["replica"] = replica
            return rpc_id, payload, offset
        if kind == 1:  # read
            rpc_id, _, _, replica, counter, writer, vlen = _RESP_READ_HEAD.unpack_from(
                view, offset
            )
            offset += _RESP_READ_HEAD.size
            end = offset + vlen
            if end > len(view):
                raise WireError("truncated value field")
            return (
                rpc_id,
                {
                    "ok": True,
                    "replica": replica,
                    "value": _loads_view(view[offset:end]),
                    "counter": counter,
                    "writer": writer,
                },
                end,
            )
        if kind == 2:  # write / repair ack
            rpc_id, _, _, replica, applied, counter, writer = _RESP_WRITE.unpack_from(
                view, offset
            )
            return (
                rpc_id,
                {
                    "ok": True,
                    "replica": replica,
                    "applied": bool(applied),
                    "counter": counter,
                    "writer": writer,
                },
                offset + _RESP_WRITE.size,
            )
        if kind == 5:  # ping
            rpc_id, _, _, replica = _MSG_RESP.unpack_from(view, offset)
            return rpc_id, {"ok": True, "replica": replica}, offset + _MSG_RESP.size
        if kind == 6:  # join
            rpc_id, _, _, replica, granted, ttl = _RESP_JOIN.unpack_from(view, offset)
            return (
                rpc_id,
                {"ok": True, "replica": replica, "granted": bool(granted), "ttl": ttl},
                offset + _RESP_JOIN.size,
            )
        if kind == 4:  # keys
            rpc_id, _, _, replica = _MSG_RESP.unpack_from(view, offset)
            offset += _MSG_RESP.size
            (count,) = _U32.unpack_from(view, offset)
            offset += _U32.size
            keys = []
            for _ in range(count):
                key, offset = _take_key(view, offset)
                keys.append(key)
            return rpc_id, {"ok": True, "replica": replica, "keys": keys}, offset
        if kind == OP_JSON:
            rpc_id, _, _, replica = _MSG_RESP.unpack_from(view, offset)
            blob, offset = _take_blob_raw(view, offset + _MSG_RESP.size)
            return rpc_id, _loads_object(blob), offset
    except (struct.error, ValueError, IndexError, UnicodeDecodeError, RecursionError) as exc:
        raise WireError(f"malformed response message: {exc}") from None
    raise WireError(f"unknown response op kind {kind}")


def _take_key(view: memoryview, offset: int) -> Tuple[str, int]:
    (length,) = _U16.unpack_from(view, offset)
    offset += _U16.size
    end = offset + length
    if end > len(view):
        raise WireError("truncated key field")
    return str(view[offset:end], "utf-8"), end


def _loads_object(blob: memoryview) -> Dict[str, Any]:
    """An ``OP_JSON`` message's body: it must hold a JSON object."""
    message = _loads_view(blob)
    if not isinstance(message, dict):
        raise WireError(f"JSON message holds a {type(message).__name__}, not an object")
    return message


def _take_blob_raw(view: memoryview, offset: int) -> Tuple[memoryview, int]:
    (length,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    end = offset + length
    if end > len(view):
        raise WireError("truncated blob field")
    return view[offset:end], end


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def pack_frame(
    messages: Iterable[bytes], *, version: int = VERSION, flags: int = 0
) -> bytes:
    """One coalesced frame around already-encoded messages."""
    parts = list(messages)
    body_len = sum(len(part) for part in parts)
    if body_len > MAX_FRAME_BYTES:
        raise WireError(
            f"frame body {body_len} exceeds cap {MAX_FRAME_BYTES}"
        )
    header = HEADER.pack(MAGIC, version, flags, body_len, len(parts))
    return header + b"".join(parts)


def pack_frames(
    messages: Iterable[bytes], *, version: int = VERSION, flags: int = 0
) -> List[bytes]:
    """Pack messages into as few frames as the body cap allows.

    Messages split across frames freely — the receiver matches replies
    by rpc id, not by frame — but one message larger than the cap can
    never be sent and raises :class:`WireError`.
    """
    frames: List[bytes] = []
    batch: List[bytes] = []
    size = 0
    for message in messages:
        mlen = len(message)
        if mlen > MAX_FRAME_BYTES:
            raise WireError(f"message {mlen} exceeds frame cap {MAX_FRAME_BYTES}")
        if batch and size + mlen > MAX_FRAME_BYTES:
            frames.append(
                HEADER.pack(MAGIC, version, flags, size, len(batch)) + b"".join(batch)
            )
            batch = []
            size = 0
        batch.append(message)
        size += mlen
    if batch:
        frames.append(
            HEADER.pack(MAGIC, version, flags, size, len(batch)) + b"".join(batch)
        )
    return frames


def hello_frame(
    *, min_version: int = MIN_VERSION, max_version: int = VERSION, version: int = VERSION
) -> bytes:
    """The negotiation frame each side sends first on a binary channel.

    The client's HELLO advertises its ``(min, max)`` supported range;
    the server answers with a HELLO whose header ``version`` byte is the
    negotiated version (and the same range bytes, for symmetry).  A
    negotiated version of 0 means no overlap — the channel is dead.
    """
    body = struct.pack("!BB", min_version, max_version)
    return HEADER.pack(MAGIC, version, FLAG_HELLO, len(body), 0) + body


def negotiate(client_min: int, client_max: int) -> int:
    """Server-side version choice: the highest version both sides speak,
    or 0 when the ranges do not overlap."""
    low = max(client_min, MIN_VERSION)
    high = min(client_max, VERSION)
    return high if high >= low else 0


class FrameDecoder:
    """Incremental frame parser: feed raw socket bytes, take whole frames.

    Handles partial frames across reads (header split anywhere, body
    split anywhere), rejects oversized bodies and bad magic with
    :class:`WireError` — the caller must tear the channel down; there is
    no resynchronisation inside a byte stream.
    """

    __slots__ = ("_buffer", "frames_decoded", "bytes_fed")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_fed = 0

    def feed(self, data: bytes) -> List[Tuple[int, int, int, memoryview]]:
        """Append ``data``; return every now-complete frame as
        ``(version, flags, count, body memoryview)``."""
        self.bytes_fed += len(data)
        self._buffer.extend(data)
        frames: List[Tuple[int, int, int, memoryview]] = []
        offset = 0
        buflen = len(self._buffer)
        view = memoryview(self._buffer)
        while buflen - offset >= HEADER_BYTES:
            magic, version, flags, body_len, count = HEADER.unpack_from(view, offset)
            if magic != MAGIC:
                raise WireError(f"bad magic 0x{magic:04x}")
            if body_len > MAX_FRAME_BYTES:
                raise WireError(
                    f"oversized frame: {body_len} > {MAX_FRAME_BYTES}"
                )
            end = offset + HEADER_BYTES + body_len
            if end > buflen:
                break
            # Copy the body out so the rolling buffer can be compacted;
            # bodies are decoded immediately by every caller.
            body = memoryview(bytes(view[offset + HEADER_BYTES : end]))
            frames.append((version, flags, count, body))
            self.frames_decoded += 1
            offset = end
        if offset:
            view.release()
            del self._buffer[:offset]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)


# ----------------------------------------------------------------------
# Op-model parity helpers
# ----------------------------------------------------------------------
def roundtrip_request(request: Dict[str, Any]) -> Dict[str, Any]:
    """Encode + decode one request — the op-model identity check used by
    ``SimTransport(wire_check=True)`` and the codec tests."""
    encoded = encode_request(0, request)
    _, decoded, offset = decode_request(memoryview(encoded), 0)
    if offset != len(encoded):
        raise WireError(f"request round-trip left {len(encoded) - offset} bytes")
    return decoded


def roundtrip_response(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Encode + decode one response payload (see :func:`roundtrip_request`)."""
    encoded = encode_response(0, payload)
    _, decoded, offset = decode_response(memoryview(encoded), 0)
    if offset != len(encoded):
        raise WireError(f"response round-trip left {len(encoded) - offset} bytes")
    return decoded


def assert_op_roundtrip(
    request: Dict[str, Any], payload: Dict[str, Any]
) -> None:
    """Raise :class:`ServiceError` unless both dicts survive the codec
    byte-exactly — the contract that keeps the binary wire and the
    simulated transports on one op model."""
    decoded_request = roundtrip_request(request)
    if decoded_request != request:
        raise ServiceError(
            f"op model drift: request {request!r} decoded as {decoded_request!r}"
        )
    decoded_payload = roundtrip_response(payload)
    if decoded_payload != payload:
        raise ServiceError(
            f"op model drift: response {payload!r} decoded as {decoded_payload!r}"
        )
