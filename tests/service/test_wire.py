"""Tests for repro.service.wire: the binary wire protocol v2 codec.

Covers the pinned bytes of every message kind, the one-to-one map
between the op model's types and messages, frame packing/splitting, the
incremental decoder's handling of partial/oversized/garbage input, and
version negotiation.
"""

import struct

import pytest

from repro.service import wire
from repro.service.ops import (
    KEYS,
    PING,
    ErrorReply,
    Join,
    JoinReply,
    KeysReply,
    PingReply,
    Read,
    ReadReply,
    Repair,
    Write,
    WriteReply,
)
from repro.service.wire import (
    FrameDecoder,
    WireError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    hello_frame,
    negotiate,
    pack_frame,
    pack_frames,
)

#: One message per request kind, as hex: a Unicode key, ``None``, list
#: and nested-dict values, a negative counter.  Recorded from the codec
#: of the dict protocol, so they prove that no frame moved since.
PINNED_REQUESTS = [
    "00000001010008636cc3a92de29da4",  # read "clé-❤"
    "000000020200016b00000000000000030000000000000001000000046e756c6c",  # write None
    "000000030200016bfffffffffffffffe00000000000000000000000e"
    "5b312c2274776f222c6e756c6c5d",  # write [1, "two", None] at counter -2
    "000000040300026b390000000000000007ffffffffffffffff0000001c"
    "7b2261223a7b2262223a5b312c322e355d7d2c2263223a6e756c6c7d",  # repair nested dict
    "0000000504",  # keys
    "0000000605",  # ping
    "000000070600000000000000040000000000001388",  # join coordinator 4, ttl 5000
]

#: One message per reply kind, as hex (see :data:`PINNED_REQUESTS`).
PINNED_REPLIES = [
    "00000008010000000002fffffffffffffffb00000000000000030000000e"
    "7b2278223a5b312c6e756c6c5d7d",  # read: nested dict at counter -5
    "000000090100000000000000000000000000ffffffffffffffff000000046e756c6c",  # read: never written
    "0000000a0200000000010100000000000000040000000000000002",  # write ack: applied
    "0000000b02000000000100fffffffffffffff70000000000000003",  # write ack: ignored
    "0000000c060000000003010000000000000000",  # join granted, ttl 0
    "0000000d050000000003",  # ping
    "0000000e040000000000000000020001610008636cc3a92de29da4",  # keys ["a", "clé-❤"]
    "0000000f00010000000400000015756e6b6e6f776e206f7065726174696f6e20277827",  # error, replica 4
    "000000100001ffffffff00000004626f6f6d",  # error without a replica
]


class TestPinnedBytes:
    """Decoding a pinned message and encoding the result gives the same
    bytes back, and the message is consumed whole."""

    @pytest.mark.parametrize("message", PINNED_REQUESTS)
    def test_request_bytes_are_pinned(self, message):
        raw = bytes.fromhex(message)
        rpc_id, request, end = wire.decode_request(memoryview(raw), 0)
        assert end == len(raw)
        assert wire.encode_request(rpc_id, request) == raw

    @pytest.mark.parametrize("message", PINNED_REPLIES)
    def test_reply_bytes_are_pinned(self, message):
        raw = bytes.fromhex(message)
        rpc_id, reply, end = wire.decode_response(memoryview(raw), 0)
        assert end == len(raw)
        assert wire.encode_response(rpc_id, reply) == raw


#: The pinned messages as the op model builds them, in the same order.
PINNED_REQUEST_OPS = [
    (1, Read("clé-❤")),
    (2, Write("k", None, (3, 1))),
    (3, Write("k", [1, "two", None], (-2, 0))),
    (4, Repair("k9", {"a": {"b": [1, 2.5]}, "c": None}, (7, -1))),
    (5, KEYS),
    (6, PING),
    (7, Join(4, 5000)),
]
PINNED_REPLY_OPS = [
    (8, ReadReply(2, {"x": [1, None]}, (-5, 3))),
    (9, ReadReply(0, None, (0, -1))),
    (10, WriteReply(1, True, (4, 2))),
    (11, WriteReply(1, False, (-9, 3))),
    (12, JoinReply(3, True, 0)),
    (13, PingReply(3)),
    (14, KeysReply(0, ["a", "clé-❤"])),
    (15, ErrorReply(4, "unknown operation 'x'")),
    (16, ErrorReply(None, "boom")),
]

REQUESTS = [op for _, op in PINNED_REQUEST_OPS] + [
    Read("k0001"),
    Write("k", {"nested": [1, 2.5, None]}, (-(2**63), 2**63 - 1)),
    Repair("k", "v", (0, 0)),
    Join(-1, 0),
]
RESPONSES = [op for _, op in PINNED_REPLY_OPS] + [
    ReadReply(0, "v", (3, 1)),
    KeysReply(1, []),
    JoinReply(2, False, 7),
]


def decoded(decode, message: bytes):
    """``decode`` one whole message; returns ``(rpc_id, op)``."""
    rpc_id, op, end = decode(memoryview(message), 0)
    assert end == len(message)
    return rpc_id, op


class TestMessageCodec:
    @pytest.mark.parametrize("rpc_op, message", zip(PINNED_REQUEST_OPS, PINNED_REQUESTS))
    def test_each_request_type_encodes_to_its_pinned_message(self, rpc_op, message):
        assert encode_request(*rpc_op).hex() == message

    @pytest.mark.parametrize("rpc_op, message", zip(PINNED_REPLY_OPS, PINNED_REPLIES))
    def test_each_reply_type_encodes_to_its_pinned_message(self, rpc_op, message):
        assert encode_response(*rpc_op).hex() == message

    @pytest.mark.parametrize("op", REQUESTS, ids=repr)
    def test_request_round_trips_to_an_equal_op_of_its_type(self, op):
        _, back = decoded(decode_request, encode_request(0, op))
        assert back == op and type(back) is type(op)

    @pytest.mark.parametrize("reply", RESPONSES, ids=repr)
    def test_reply_round_trips_to_an_equal_op_of_its_type(self, reply):
        _, back = decoded(decode_response, encode_response(0, reply))
        assert back == reply and type(back) is type(reply)

    def test_equal_fields_of_different_types_are_different_ops(self):
        assert Write("k", 1, (1, 0)) != Repair("k", 1, (1, 0))
        assert PING != KEYS

    def test_rpc_ids_survive_and_address_the_message(self):
        for rpc_id in (0, 1, 0xFFFF_FFFF):
            assert decoded(decode_request, encode_request(rpc_id, PING))[0] == rpc_id
            assert decoded(decode_response, encode_response(rpc_id, PingReply(0)))[0] == rpc_id

    @pytest.mark.parametrize("op", [{"op": "ping"}, ("k",), None, PingReply(0)], ids=repr)
    def test_an_object_of_no_request_type_raises_wire_error(self, op):
        with pytest.raises(WireError, match="no wire kind"):
            encode_request(0, op)

    @pytest.mark.parametrize(
        "reply", [{"ok": True, "replica": 0}, PING, Read("k")], ids=repr
    )
    def test_an_object_of_no_reply_type_raises_wire_error(self, reply):
        with pytest.raises(WireError, match="no wire kind"):
            encode_response(0, reply)

    @pytest.mark.parametrize(
        "op",
        [Read(5), Read("k" * 0x10000), Write("k", {1, 2}, (1, 0)), Join("a", 1)],
        ids=lambda op: type(op).__name__,
    )
    def test_fields_the_frame_cannot_carry_raise_wire_error(self, op):
        with pytest.raises(WireError, match="cannot encode"):
            encode_request(0, op)

    def test_values_that_json_cannot_carry_raise_wire_error_in_replies(self):
        with pytest.raises(WireError, match="cannot encode"):
            encode_response(0, ReadReply(0, object(), (1, 0)))

    def test_messages_concatenate_and_decode_sequentially(self):
        blob = b"".join(encode_request(i, req) for i, req in enumerate(REQUESTS))
        view = memoryview(blob)
        offset = 0
        for expected_id, expected in enumerate(REQUESTS):
            rpc_id, request, offset = decode_request(view, offset)
            assert rpc_id == expected_id
            assert request == expected
        assert offset == len(blob)

    def test_truncated_message_raises_wire_error(self):
        encoded = encode_request(1, Write("k", "v", (1, 1)))
        with pytest.raises(WireError):
            decode_request(memoryview(encoded[: len(encoded) - 1]), 0)

    def test_unknown_op_kind_raises_wire_error(self):
        bogus = bytes([0, 0, 0, 1, 200]) + b"x" * 8
        with pytest.raises(WireError):
            decode_request(memoryview(bogus), 0)

    def test_kind_zero_is_no_request(self):
        message = struct.pack("!IBI", 1, 0, 2) + b"{}"
        with pytest.raises(WireError, match="unknown request op kind 0"):
            decode_request(memoryview(message), 0)

    def test_kind_zero_reply_without_the_error_status_raises_wire_error(self):
        message = struct.pack("!IBBiI", 1, 0, 0, 3, 2) + b"{}"
        with pytest.raises(WireError, match="unknown response op kind 0"):
            decode_response(memoryview(message), 0)

    def test_error_status_on_another_kind_raises_wire_error(self):
        message = encode_response(1, PingReply(3))
        damaged = message[:5] + bytes([1]) + message[6:]
        with pytest.raises(WireError, match="status"):
            decode_response(memoryview(damaged), 0)


class TestFrames:
    def test_pack_frame_round_trips_through_the_decoder(self):
        messages = [encode_request(i, req) for i, req in enumerate(REQUESTS)]
        frame = pack_frame(messages)
        decoder = FrameDecoder()
        frames = decoder.feed(frame)
        assert len(frames) == 1
        version, flags, count, body = frames[0]
        assert version == wire.VERSION
        assert flags == 0
        assert count == len(messages)
        assert bytes(body) == b"".join(messages)

    def test_partial_frame_across_many_reads(self):
        # Satellite: a frame split at every possible byte boundary must
        # decode once complete — header split anywhere, body anywhere.
        messages = [encode_request(7, Read("k"))]
        frame = pack_frame(messages)
        decoder = FrameDecoder()
        for boundary in range(1, len(frame)):
            assert decoder.feed(frame[:boundary]) == []
            assert decoder.pending_bytes == boundary
            frames = decoder.feed(frame[boundary:])
            assert len(frames) == 1
            assert decoder.pending_bytes == 0

    def test_byte_by_byte_feed_yields_every_frame(self):
        frame = pack_frame([encode_request(1, PING)]) * 3
        decoder = FrameDecoder()
        collected = []
        for i in range(len(frame)):
            collected.extend(decoder.feed(frame[i : i + 1]))
        assert len(collected) == 3
        assert decoder.frames_decoded == 3

    def test_multiple_frames_in_one_read(self):
        frames_in = [pack_frame([encode_request(i, PING)]) for i in range(4)]
        decoder = FrameDecoder()
        assert len(decoder.feed(b"".join(frames_in))) == 4

    def test_oversized_frame_is_rejected(self):
        header = wire.HEADER.pack(
            wire.MAGIC, wire.VERSION, 0, wire.MAX_FRAME_BYTES + 1, 1
        )
        decoder = FrameDecoder()
        with pytest.raises(WireError, match="oversized"):
            decoder.feed(header)

    def test_garbage_magic_is_rejected_not_buffered(self):
        decoder = FrameDecoder()
        with pytest.raises(WireError, match="magic"):
            decoder.feed(b"GET / HTTP/1.1\r\n")

    def test_pack_frame_refuses_bodies_over_the_cap(self):
        big = b"x" * (wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError):
            pack_frame([big])

    def test_pack_frames_splits_at_the_body_cap(self, monkeypatch):
        message = encode_request(0, Read("k" * 10))
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", len(message) * 2)
        frames = pack_frames([message] * 5)
        assert len(frames) == 3  # 2 + 2 + 1
        decoder = FrameDecoder()
        counts = [count for _, _, count, _ in decoder.feed(b"".join(frames))]
        assert counts == [2, 2, 1]

    def test_pack_frames_splits_at_the_u16_message_count(self):
        messages = [encode_request(i, PING) for i in range(70_000)]
        frames = pack_frames(messages)
        assert len(frames) == 2
        decoded_ids = []
        for _, _, count, body in FrameDecoder().feed(b"".join(frames)):
            offset = 0
            for _ in range(count):
                rpc_id, request, offset = decode_request(body, offset)
                assert request == PING
                decoded_ids.append(rpc_id)
            assert offset == len(body)
        assert decoded_ids == list(range(70_000))

    @pytest.mark.parametrize(
        "total, counts", [(0xFFFF, [0xFFFF]), (0xFFFF + 1, [0xFFFF, 1])]
    )
    def test_pack_frames_fills_a_frame_to_the_count_cap(self, total, counts):
        frames = pack_frames([encode_request(0, PING)] * total)
        decoded = FrameDecoder().feed(b"".join(frames))
        assert [count for _, _, count, _ in decoded] == counts

    def test_pack_frames_of_no_messages_is_no_frames(self):
        assert pack_frames([]) == []

    def test_pack_frame_refuses_more_messages_than_the_count_holds(self):
        with pytest.raises(WireError, match="count cap"):
            pack_frame([encode_request(0, PING)] * (wire.MAX_FRAME_MESSAGES + 1))

    def test_pack_frames_refuses_one_message_over_the_cap(self, monkeypatch):
        message = encode_request(0, Read("k" * 64))
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", len(message) - 1)
        with pytest.raises(WireError):
            pack_frames([message])


class TestNegotiation:
    def test_hello_frame_shape(self):
        frame = hello_frame()
        decoder = FrameDecoder()
        ((version, flags, count, body),) = decoder.feed(frame)
        assert version == wire.VERSION
        assert flags & wire.FLAG_HELLO
        assert count == 0
        assert bytes(body) == bytes([wire.MIN_VERSION, wire.VERSION])

    def test_negotiate_picks_highest_common_version(self):
        assert negotiate(wire.MIN_VERSION, wire.VERSION) == wire.VERSION
        assert negotiate(1, wire.VERSION + 5) == wire.VERSION

    def test_negotiate_rejects_disjoint_ranges(self):
        assert negotiate(wire.VERSION + 1, wire.VERSION + 3) == 0
        assert negotiate(0, wire.MIN_VERSION - 1) == 0
