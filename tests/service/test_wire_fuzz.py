"""Property tests for the binary wire v2 decoders on untrusted bytes.

Whatever a peer sends, the decoders either return well-formed values or
raise :class:`~repro.service.wire.WireError` — the one error the client
and the replica server turn into a clean hang-up.  A decoded request or
reply is always an op of the op model (:mod:`repro.service.ops`), every
op survives encode and decode as an equal op of its type, and a byte
stream decodes to the same frames however the socket happens to chunk
it.

CI runs this module again with ``--hypothesis-profile=ci`` (see
``tests/conftest.py``) for a longer, derandomised search.
"""

import struct
from typing import get_args

from hypothesis import given
from hypothesis import strategies as st

from repro.service import wire
from repro.service.ops import (
    KEYS,
    PING,
    ErrorReply,
    Join,
    JoinReply,
    KeysReply,
    Payload,
    PingReply,
    Read,
    ReadReply,
    Repair,
    Request,
    Write,
    WriteReply,
)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**53), 2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
keys = st.text(max_size=12)
versions = st.integers(-(2**62), 2**62)
timestamps = st.tuples(versions, versions)
replicas = st.integers(0, 2**31 - 1)
requests = st.one_of(
    st.builds(Read, keys),
    st.builds(Write, keys, json_values, timestamps),
    st.builds(Repair, keys, json_values, timestamps),
    st.sampled_from([PING, KEYS]),
    st.builds(Join, versions, versions),
)
replies = st.one_of(
    st.builds(ReadReply, replicas, json_values, timestamps),
    st.builds(WriteReply, replicas, st.booleans(), timestamps),
    st.builds(JoinReply, replicas, st.booleans(), versions),
    st.builds(PingReply, replicas),
    st.builds(KeysReply, replicas, st.lists(keys, max_size=4)),
    st.builds(ErrorReply, st.none() | replicas, st.text(max_size=12)),
)
rpc_ids = st.integers(0, 2**32 - 1)


def decode_or_wire_error(decode, data: bytes):
    """``decode`` on ``data``; ``None`` when it raised :class:`WireError`."""
    try:
        rpc_id, message, offset = decode(memoryview(data), 0)
    except wire.WireError:
        return None
    assert isinstance(rpc_id, int)
    op_types = get_args(Request if decode is wire.decode_request else Payload)
    assert isinstance(message, op_types)
    assert 0 < offset <= len(data)
    return message


@given(st.binary(max_size=256))
def test_request_decoder_on_arbitrary_bytes(data):
    decode_or_wire_error(wire.decode_request, data)


@given(st.binary(max_size=256))
def test_response_decoder_on_arbitrary_bytes(data):
    decode_or_wire_error(wire.decode_response, data)


@given(st.binary(max_size=512))
def test_frame_decoder_on_arbitrary_bytes(data):
    try:
        wire.FrameDecoder().feed(data)
    except wire.WireError:
        pass


@given(rpc_ids, requests, st.data())
def test_damaged_request_messages_decode_or_raise_wire_error(rpc_id, request, data):
    message = bytearray(wire.encode_request(rpc_id, request))
    cut = data.draw(st.integers(0, len(message)), label="cut")
    flips = data.draw(
        st.lists(st.tuples(st.integers(0, len(message) - 1), st.integers(0, 255)), max_size=3),
        label="flips",
    )
    for at, byte in flips:
        message[at] = byte
    decode_or_wire_error(wire.decode_request, bytes(message[:cut]))


@given(rpc_ids, requests)
def test_requests_round_trip_to_an_equal_op_of_their_type(rpc_id, request):
    message = wire.encode_request(rpc_id, request)
    assert wire.decode_request(memoryview(message), 0) == (rpc_id, request, len(message))


@given(rpc_ids, replies)
def test_replies_round_trip_to_an_equal_op_of_their_type(rpc_id, reply):
    message = wire.encode_response(rpc_id, reply)
    assert wire.decode_response(memoryview(message), 0) == (rpc_id, reply, len(message))


@given(rpc_ids, replicas, st.binary(max_size=32))
def test_kind_zero_decodes_only_as_an_error_reply(rpc_id, replica, blob):
    """Kind 0 is the error frame: without the error status it is as
    malformed as any unknown kind, and it is never a request."""
    body = struct.pack("!I", len(blob)) + blob
    request = struct.pack("!IB", rpc_id, 0) + body
    assert decode_or_wire_error(wire.decode_request, request) is None
    not_an_error = struct.pack("!IBBi", rpc_id, 0, 0, replica) + body
    assert decode_or_wire_error(wire.decode_response, not_an_error) is None


def test_deeply_nested_value_raises_wire_error():
    # Without orjson the stdlib parser recurses once per nesting level.
    blob = b"[" * 100_000
    request = struct.pack("!IBH", 1, 2, 1) + b"k" + struct.pack("!qqI", 1, 0, len(blob)) + blob
    response = struct.pack("!IBBiqqI", 1, 1, 0, 0, 1, 0, len(blob)) + blob
    assert decode_or_wire_error(wire.decode_request, request) is None
    assert decode_or_wire_error(wire.decode_response, response) is None


@given(
    st.lists(st.lists(st.tuples(rpc_ids, requests), min_size=1, max_size=4), max_size=4),
    st.lists(st.integers(0, 4096), max_size=8),
)
def test_rechunked_frames_decode_to_the_same_frames(batches, splits):
    stream = b"".join(
        wire.pack_frame(wire.encode_request(rpc_id, request) for rpc_id, request in batch)
        for batch in batches
    )
    whole = [
        (version, flags, count, bytes(body))
        for version, flags, count, body in wire.FrameDecoder().feed(stream)
    ]
    assert len(whole) == len(batches)
    decoder = wire.FrameDecoder()
    chunked = []
    cuts = sorted({min(split, len(stream)) for split in splits} | {0, len(stream)})
    for start, end in zip(cuts, cuts[1:]):
        # Keep every body exactly as ``feed`` returned it until the whole
        # stream is in: a body that aliases a buffer a later feed reuses
        # would change under it.
        chunked.extend(decoder.feed(stream[start:end]))
    assert all(isinstance(body, memoryview) for *_, body in chunked)
    assert [
        (version, flags, count, bytes(body)) for version, flags, count, body in chunked
    ] == whole
    for (_, _, count, body), batch in zip(whole, batches):
        offset = 0
        for rpc_id, request in batch:
            decoded_id, decoded, offset = wire.decode_request(memoryview(body), offset)
            assert decoded_id == rpc_id
            assert decoded == request
        assert count == len(batch) and offset == len(body)


@given(
    st.lists(st.lists(st.tuples(rpc_ids, requests), min_size=1, max_size=4), min_size=1, max_size=4),
    st.sampled_from([bytearray, lambda data: memoryview(bytearray(data))]),
)
def test_bodies_of_a_mutable_feed_do_not_alias_it(batches, mutable):
    """A caller may reuse a ``bytearray`` (or a view of one) after
    ``feed`` returns: the bodies must not change with it."""
    stream = b"".join(
        wire.pack_frame(wire.encode_request(rpc_id, request) for rpc_id, request in batch)
        for batch in batches
    )
    whole = [bytes(body) for *_, body in wire.FrameDecoder().feed(stream)]
    data = mutable(stream)
    frames = wire.FrameDecoder().feed(data)
    data[:] = bytes(len(stream))
    assert [bytes(body) for *_, body in frames] == whole
