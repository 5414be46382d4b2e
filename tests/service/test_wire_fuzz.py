"""Property tests for the binary wire v2 decoders on untrusted bytes.

Whatever a peer sends, the decoders either return well-formed values or
raise :class:`~repro.service.wire.WireError` — the one error the client
and the replica server turn into a clean hang-up.  A decoded request or
response is always a dict, and a byte stream decodes to the same frames
however the socket happens to chunk it.

CI runs this module again with ``--hypothesis-profile=ci`` (see
``tests/conftest.py``) for a longer, derandomised search.
"""

import json
import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.service import wire

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
requests = st.one_of(
    st.builds(lambda key: {"op": "read", "key": key}, keys),
    st.builds(
        lambda op, key, value, counter, writer: {
            "op": op,
            "key": key,
            "value": value,
            "counter": counter,
            "writer": writer,
        },
        st.sampled_from(["write", "repair"]),
        keys,
        json_values,
        versions,
        versions,
    ),
    st.sampled_from([{"op": "ping"}, {"op": "keys"}]),
    st.builds(
        lambda coordinator, ttl: {"op": "join", "coordinator": coordinator, "ttl": ttl},
        versions,
        versions,
    ),
    st.dictionaries(st.text(max_size=6), json_values, max_size=4),
)
rpc_ids = st.integers(0, 2**32 - 1)


def decode_or_wire_error(decode, data: bytes):
    """``decode`` on ``data``; ``None`` when it raised :class:`WireError`."""
    try:
        rpc_id, message, offset = decode(memoryview(data), 0)
    except wire.WireError:
        return None
    assert isinstance(rpc_id, int)
    assert isinstance(message, dict)
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


@given(rpc_ids, json_values)
def test_json_escape_request_must_hold_an_object(rpc_id, value):
    blob = json.dumps(value).encode()
    message = struct.pack("!IBI", rpc_id, wire.OP_JSON, len(blob)) + blob
    decoded = decode_or_wire_error(wire.decode_request, message)
    if isinstance(value, dict):
        assert decoded == value
    else:
        assert decoded is None


@given(rpc_ids, st.integers(-1, 2**31 - 1), json_values)
def test_json_escape_response_must_hold_an_object(rpc_id, replica, value):
    blob = json.dumps(value).encode()
    message = struct.pack("!IBBiI", rpc_id, wire.OP_JSON, 0, replica, len(blob)) + blob
    decoded = decode_or_wire_error(wire.decode_response, message)
    if isinstance(value, dict):
        assert decoded == value
    else:
        assert decoded is None


def test_deeply_nested_json_escape_raises_wire_error():
    # Without orjson the stdlib parser recurses once per nesting level.
    blob = b"[" * 100_000
    request = struct.pack("!IBI", 1, wire.OP_JSON, len(blob)) + blob
    response = struct.pack("!IBBiI", 1, wire.OP_JSON, 0, 0, len(blob)) + blob
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
        chunked.extend(
            (version, flags, count, bytes(body))
            for version, flags, count, body in decoder.feed(stream[start:end])
        )
    assert chunked == whole
    for (_, _, count, body), batch in zip(whole, batches):
        offset = 0
        for rpc_id, request in batch:
            decoded_id, decoded, offset = wire.decode_request(memoryview(body), offset)
            assert decoded_id == rpc_id
            assert decoded == request
        assert count == len(batch) and offset == len(body)
