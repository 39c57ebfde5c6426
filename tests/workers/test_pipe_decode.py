"""A pipe message decodes as the message-sized ``FrameReader`` did.

``decode_frame`` checks a well-formed message against its header and
slices the payload once; everything else still goes through the
``FrameReader``.  Over well-formed messages and malformed ones —
truncated, with trailing bytes (garbage or further frames), declaring a
zero or an oversize length — it must return the same frame, or raise a
``ProtocolError`` with the same message, as the frozen
``reader_decode_reference``.
"""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reader_decode_reference
from repro.net.framing import MAX_FRAME_BYTES
from repro.workers import protocol as proto

HEADER = struct.Struct("<IB")

payloads = st.binary(max_size=300)
rtypes = st.integers(1, 255)


def outcome(decode, message):
    try:
        rtype, payload = decode(message)
    except proto.ProtocolError as exc:
        return "error", str(exc)
    assert type(payload) is bytes
    return "frame", rtype, payload


@st.composite
def messages(draw):
    """A frame, then maybe cut, extended or given another length."""
    message = proto.encode_frame(draw(rtypes), draw(payloads))
    shape = draw(st.sampled_from(
        ["whole", "truncated", "trailing", "frames", "length"]
    ))
    if shape == "truncated":
        message = message[:draw(st.integers(0, len(message) - 1))]
    elif shape == "trailing":
        message += draw(st.binary(min_size=1, max_size=40))
    elif shape == "frames":
        for _ in range(draw(st.integers(1, 3))):
            message += proto.encode_frame(draw(rtypes), draw(payloads))
        if draw(st.booleans()):
            message = message[:draw(st.integers(1, len(message)))]
    elif shape == "length":
        length = draw(st.sampled_from(
            [0, 1, MAX_FRAME_BYTES, MAX_FRAME_BYTES + 1, 2**32 - 1]
        ) | st.integers(0, 400))
        message = HEADER.pack(length, message[4]) + message[5:]
    return message


@given(message=messages())
@example(message=b"")
@example(message=b"\x01\x00\x00")
@example(message=HEADER.pack(0, 7))
@example(message=HEADER.pack(MAX_FRAME_BYTES + 1, 7) + b"abc")
@example(message=proto.encode_frame(7, b"abc") + HEADER.pack(0, 7))
@example(message=proto.encode_frame(7, b"") * 2)
@settings(max_examples=400, deadline=None)
def test_decode_matches_the_reader(message):
    assert outcome(proto.decode_frame, message) == outcome(
        reader_decode_reference.decode_frame, message
    )


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_the_payload_is_bytes_whatever_the_message_buffer(wrap):
    message = proto.encode_frame(proto.SNAPSHOT_RESP, b"payload")
    assert proto.decode_frame(wrap(message)) == (proto.SNAPSHOT_RESP, b"payload")
