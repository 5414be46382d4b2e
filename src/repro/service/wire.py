"""Binary wire protocol v2 for the KV service: the codec of the op model.

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
byte strings (u16-length keys, u32-length JSON value blobs and error
texts).  The codec is a one-to-one map between the op model's types
(:mod:`repro.service.ops`) and message kinds: ``Read`` 1, ``Write`` 2,
``Repair`` 3, ``Keys`` 4, ``Ping`` 5 and ``Join`` 6 as requests; their
replies under the same kind (``WriteReply`` answers both writes and
repairs under 2), and ``ErrorReply`` as kind 0 with the error status.
Only values travel as JSON.  An object of no op type cannot be encoded,
and a message of no known kind, or a kind under the wrong status, does
not decode: both raise :class:`WireError`.

Decoding works in place: :class:`FrameDecoder` hands out each frame
body as a ``memoryview`` slice of the socket read it arrived in
(copying only bodies completed out of its partial-frame buffer), and
the decoders build each op with ``tuple.__new__(Type, fields)``.

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
from typing import Any, Iterable, List, Tuple

from ..core.errors import ServiceError
from .ops import (
    KEYS,
    PING,
    ErrorReply,
    Join,
    JoinReply,
    Keys,
    KeysReply,
    Payload,
    Ping,
    PingReply,
    Read,
    ReadReply,
    Repair,
    Request,
    Write,
    WriteReply,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "MIN_VERSION",
    "FLAG_HELLO",
    "HEADER",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "MAX_FRAME_MESSAGES",
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
#: Most messages one frame can carry: the header's u16 ``count``.
MAX_FRAME_MESSAGES = 0xFFFF

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

# The decoders build ops as ``_new(Type, fields)``: the same tuple the
# type's generated ``__new__`` builds, without its Python-level frame
# (about half the cost of a call per message).  Every field is given.
_new = tuple.__new__

try:  # pragma: no cover - depends on environment
    import orjson as _orjson

    _dumps = _orjson.dumps
    _loads_view = _orjson.loads  # accepts memoryview directly
except ImportError:  # pragma: no cover - depends on environment

    def _dumps(obj: Any) -> bytes:
        return json.dumps(obj, separators=(",", ":")).encode()

    def _loads_view(view: memoryview) -> Any:
        return json.loads(bytes(view))


class WireError(ServiceError):
    """A malformed or oversized frame coming in (the channel must be torn
    down), or an op going out that no frame can carry."""


# ----------------------------------------------------------------------
# Message codec
# ----------------------------------------------------------------------
def encode_request(rpc_id: int, request: Request) -> bytes:
    """Pack one request into a v2 message (no frame header).

    Raises :class:`WireError` for an object of no request type, or one
    whose fields do not fit the frame (a key over 64 KiB, a value JSON
    cannot carry).
    """
    kind = type(request)
    try:
        if kind is Read:
            kb = request.key.encode()
            return _REQ_READ_HEAD.pack(rpc_id, 1, len(kb)) + kb
        if kind is Write or kind is Repair:
            kb = request.key.encode()
            vb = _dumps(request.value)
            counter, writer = request.ts
            return (
                _REQ_READ_HEAD.pack(rpc_id, 2 if kind is Write else 3, len(kb))
                + kb
                + _REQ_WRITE_TAIL.pack(counter, writer, len(vb))
                + vb
            )
        if kind is Ping:
            return _MSG_REQ.pack(rpc_id, 5)
        if kind is Keys:
            return _MSG_REQ.pack(rpc_id, 4)
        if kind is Join:
            return _REQ_JOIN.pack(rpc_id, 6, request.coordinator, request.ttl)
    except (struct.error, TypeError, ValueError, AttributeError) as exc:
        raise WireError(f"cannot encode {request!r}: {exc}") from None
    raise WireError(f"no wire kind for request {request!r}")


def decode_request(view: memoryview, offset: int) -> Tuple[int, Request, int]:
    """Unpack one request message at ``offset``; returns
    ``(rpc_id, request, next offset)``."""
    try:
        kind = view[offset + 4]
        if kind == 1:  # read
            rpc_id, _, klen = _REQ_READ_HEAD.unpack_from(view, offset)
            offset += 7
            end = offset + klen
            if end > len(view):
                raise WireError("truncated key field")
            return rpc_id, _new(Read, (str(view[offset:end], "utf-8"),)), end
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
            value = _loads_view(view[offset:end])
            op = Write if kind == 2 else Repair
            return rpc_id, _new(op, (key, value, (counter, writer))), end
        if kind == 5 or kind == 4:  # ping / keys
            rpc_id, _ = _MSG_REQ.unpack_from(view, offset)
            return rpc_id, PING if kind == 5 else KEYS, offset + 5
        if kind == 6:  # join
            rpc_id, _, coordinator, ttl = _REQ_JOIN.unpack_from(view, offset)
            return rpc_id, _new(Join, (coordinator, ttl)), offset + _REQ_JOIN.size
    except (struct.error, ValueError, IndexError, UnicodeDecodeError, RecursionError) as exc:
        raise WireError(f"malformed request message: {exc}") from None
    raise WireError(f"unknown request op kind {kind}")


def encode_response(rpc_id: int, reply: Payload) -> bytes:
    """Pack one reply into a v2 message (no frame header); raises
    :class:`WireError` as :func:`encode_request` does."""
    kind = type(reply)
    try:
        if kind is ReadReply:
            vb = _dumps(reply.value)
            counter, writer = reply.ts
            return (
                _RESP_READ_HEAD.pack(
                    rpc_id, 1, _STATUS_OK, reply.replica, counter, writer, len(vb)
                )
                + vb
            )
        if kind is WriteReply:
            counter, writer = reply.ts
            return _RESP_WRITE.pack(
                rpc_id, 2, _STATUS_OK, reply.replica, 1 if reply.applied else 0, counter, writer
            )
        if kind is PingReply:
            return _MSG_RESP.pack(rpc_id, 5, _STATUS_OK, reply.replica)
        if kind is JoinReply:
            return _RESP_JOIN.pack(
                rpc_id, 6, _STATUS_OK, reply.replica, 1 if reply.granted else 0, reply.ttl
            )
        if kind is KeysReply:
            keys = reply.keys
            parts = [_MSG_RESP.pack(rpc_id, 4, _STATUS_OK, reply.replica), _U32.pack(len(keys))]
            for key in keys:
                kb = key.encode()
                parts.append(_U16.pack(len(kb)))
                parts.append(kb)
            return b"".join(parts)
        if kind is ErrorReply:
            replica = -1 if reply.replica is None else reply.replica
            eb = reply.error.encode()
            return b"".join(
                (_MSG_RESP.pack(rpc_id, 0, _STATUS_ERR, replica), _U32.pack(len(eb)), eb)
            )
    except (struct.error, TypeError, ValueError, AttributeError) as exc:
        raise WireError(f"cannot encode {reply!r}: {exc}") from None
    raise WireError(f"no wire kind for reply {reply!r}")


def decode_response(view: memoryview, offset: int) -> Tuple[int, Payload, int]:
    """Unpack one response message at ``offset``; returns
    ``(rpc_id, reply, next offset)``."""
    try:
        kind = view[offset + 4]
        status = view[offset + 5]
        if status != _STATUS_OK:
            if kind != 0 or status != _STATUS_ERR:
                raise WireError(f"op kind {kind} with status {status}")
            rpc_id, _, _, replica = _MSG_RESP.unpack_from(view, offset)
            blob, offset = _take_blob_raw(view, offset + _MSG_RESP.size)
            error = str(blob, "utf-8")
            return rpc_id, _new(ErrorReply, (None if replica < 0 else replica, error)), offset
        if kind == 1:  # read
            rpc_id, _, _, replica, counter, writer, vlen = _RESP_READ_HEAD.unpack_from(
                view, offset
            )
            offset += _RESP_READ_HEAD.size
            end = offset + vlen
            if end > len(view):
                raise WireError("truncated value field")
            value = _loads_view(view[offset:end])
            return rpc_id, _new(ReadReply, (replica, value, (counter, writer))), end
        if kind == 2:  # write / repair ack
            rpc_id, _, _, replica, applied, counter, writer = _RESP_WRITE.unpack_from(
                view, offset
            )
            reply = _new(WriteReply, (replica, applied != 0, (counter, writer)))
            return rpc_id, reply, offset + _RESP_WRITE.size
        if kind == 5:  # ping
            rpc_id, _, _, replica = _MSG_RESP.unpack_from(view, offset)
            return rpc_id, _new(PingReply, (replica,)), offset + _MSG_RESP.size
        if kind == 6:  # join
            rpc_id, _, _, replica, granted, ttl = _RESP_JOIN.unpack_from(view, offset)
            reply = _new(JoinReply, (replica, granted != 0, ttl))
            return rpc_id, reply, offset + _RESP_JOIN.size
        if kind == 4:  # keys
            rpc_id, _, _, replica = _MSG_RESP.unpack_from(view, offset)
            offset += _MSG_RESP.size
            (count,) = _U32.unpack_from(view, offset)
            offset += _U32.size
            keys = []
            for _ in range(count):
                key, offset = _take_key(view, offset)
                keys.append(key)
            return rpc_id, _new(KeysReply, (replica, keys)), offset
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
    if len(parts) > MAX_FRAME_MESSAGES:
        raise WireError(f"{len(parts)} messages exceed frame count cap {MAX_FRAME_MESSAGES}")
    header = HEADER.pack(MAGIC, version, flags, body_len, len(parts))
    return header + b"".join(parts)


def pack_frames(
    messages: Iterable[bytes], *, version: int = VERSION, flags: int = 0
) -> List[bytes]:
    """Pack messages into as few frames as the body cap and the u16
    message count allow.

    Messages split across frames freely — the receiver matches replies
    by rpc id, not by frame — but one message larger than the cap can
    never be sent and raises :class:`WireError`.  A batch within both
    caps (every flush in practice) is one header and one join.
    """
    if type(messages) is not list:
        messages = list(messages)
    count = len(messages)
    if not count:
        return []
    if count <= MAX_FRAME_MESSAGES:
        body = b"".join(messages)
        if len(body) <= MAX_FRAME_BYTES:
            return [HEADER.pack(MAGIC, version, flags, len(body), count) + body]
    frames: List[bytes] = []
    batch: List[bytes] = []
    size = 0
    for message in messages:
        mlen = len(message)
        if mlen > MAX_FRAME_BYTES:
            raise WireError(f"message {mlen} exceeds frame cap {MAX_FRAME_BYTES}")
        if batch and (size + mlen > MAX_FRAME_BYTES or len(batch) == MAX_FRAME_MESSAGES):
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

    Frames are read in place where they can be.  With nothing buffered,
    a ``bytes`` read (what every asyncio transport delivers) is parsed
    directly and each body is a ``memoryview`` slice of that immutable
    object: no copy.  Only a trailing partial frame is buffered; the
    feed that completes it parses the buffer and copies each body out,
    since the buffer is compacted afterwards.  A ``bytearray`` or
    ``memoryview`` feed is copied to ``bytes`` first: a body never
    aliases memory the caller may reuse.
    """

    __slots__ = ("_buffer", "frames_decoded", "bytes_fed")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_fed = 0

    def feed(self, data: bytes) -> List[Tuple[int, int, int, memoryview]]:
        """Take ``data``; return every now-complete frame as
        ``(version, flags, count, body memoryview)``."""
        self.bytes_fed += len(data)
        buffer = self._buffer
        if buffer:
            buffer += data
            source = buffer
        elif type(data) is bytes:
            source = data
        else:
            source = bytes(data)
        buffered = source is buffer
        view = memoryview(source)
        size = len(source)
        frames: List[Tuple[int, int, int, memoryview]] = []
        offset = 0
        while size - offset >= HEADER_BYTES:
            magic, version, flags, body_len, count = HEADER.unpack_from(source, offset)
            if magic != MAGIC:
                raise WireError(f"bad magic 0x{magic:04x}")
            if body_len > MAX_FRAME_BYTES:
                raise WireError(
                    f"oversized frame: {body_len} > {MAX_FRAME_BYTES}"
                )
            end = offset + HEADER_BYTES + body_len
            if end > size:
                break
            body = view[offset + HEADER_BYTES : end]
            if buffered:
                # The buffer is compacted below: copy the body out.
                body = memoryview(bytes(body))
            frames.append((version, flags, count, body))
            offset = end
        self.frames_decoded += len(frames)
        if buffered:
            view.release()
            del buffer[:offset]
        elif offset < size:
            buffer += view[offset:]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)
