"""The shared frame decoder: exactness under arbitrary stream splits.

Every connection (:class:`~repro.net.transport.SocketConnection`, so
every shard host, standby and watchdog link) decodes through one
:class:`~repro.net.framing.FrameReader` — so this file is the single
place the framing contract is pinned down, including the property that
matters on a real socket: ``recv`` may split the byte stream anywhere,
and the decoded frame sequence must not depend on where.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.framing import FrameReader, FramingError
from repro.workers import protocol as proto


def encode_all(frames):
    return b"".join(proto.encode_frame(t, p) for t, p in frames)


class TestBasics:
    def test_single_frame(self):
        reader = FrameReader()
        assert reader.feed(proto.encode_frame(7, b"abc")) == [(7, b"abc")]
        assert reader.pending_bytes == 0
        assert reader.at_boundary

    def test_empty_payload(self):
        reader = FrameReader()
        assert reader.feed(proto.encode_frame(40, b"")) == [(40, b"")]

    def test_many_frames_one_chunk(self):
        frames = [(1, b"x"), (5, b"y" * 100), (32, b""), (255, b"z")]
        reader = FrameReader()
        assert reader.feed(encode_all(frames)) == frames

    def test_byte_at_a_time(self):
        frames = [(2, b"hello"), (3, b""), (4, b"\x00" * 17)]
        wire = encode_all(frames)
        reader = FrameReader()
        out = []
        for i in range(len(wire)):
            out.extend(reader.feed(wire[i:i + 1]))
        assert out == frames
        assert reader.at_boundary

    def test_partial_tail_is_silent_but_visible(self):
        wire = encode_all([(9, b"done")]) + proto.encode_frame(9, b"cut")[:-2]
        reader = FrameReader()
        assert reader.feed(wire) == [(9, b"done")]
        assert reader.pending_bytes > 0
        assert not reader.at_boundary

    def test_zero_length_header_rejected(self):
        # length must cover at least the type byte
        reader = FrameReader()
        with pytest.raises(FramingError):
            reader.feed(b"\x00\x00\x00\x00\x01")

    def test_oversized_header_rejected(self):
        reader = FrameReader()
        huge = ((1 << 30) + 1).to_bytes(4, "little") + b"\x05"
        with pytest.raises(FramingError):
            reader.feed(huge)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_the_payload_is_bytes_whatever_the_fed_buffer(self, wrap):
        reader = FrameReader()
        wire = proto.encode_frame(proto.SNAPSHOT_RESP, b"payload")
        frames = reader.feed(wrap(wire))
        assert frames == [(proto.SNAPSHOT_RESP, b"payload")]
        assert type(frames[0][1]) is bytes


frames_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=255),
        st.binary(max_size=300),
    ),
    min_size=1,
    max_size=8,
)


class TestSplitInvariance:
    @given(frames=frames_strategy, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_split_decodes_identically(self, frames, data):
        """The decoded sequence is independent of chunk boundaries."""
        wire = encode_all(frames)
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(wire)),
                    max_size=12,
                )
            )
        )
        reader = FrameReader()
        out = []
        last = 0
        for cut in cuts + [len(wire)]:
            out.extend(reader.feed(wire[last:cut]))
            last = cut
        assert out == frames
        assert reader.pending_bytes == 0
        assert reader.at_boundary

    @given(frames=frames_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated_tail_never_corrupts_prefix(self, frames, data):
        """Cutting the stream anywhere yields exactly the complete
        prefix frames, and the reader reports the leftover bytes."""
        wire = encode_all(frames)
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        reader = FrameReader()
        out = reader.feed(wire[:cut])
        # Complete frames before the cut decode; nothing else appears.
        expected = []
        consumed = 0
        for rtype, payload in frames:
            end = consumed + len(proto.encode_frame(rtype, payload))
            if end <= cut:
                expected.append((rtype, payload))
                consumed = end
            else:
                break
        assert out == expected
        assert reader.pending_bytes == cut - consumed
        assert reader.at_boundary == (cut == consumed)
        # Feeding the remainder always completes the stream.
        out.extend(reader.feed(wire[cut:]))
        assert out == frames
        assert reader.at_boundary
