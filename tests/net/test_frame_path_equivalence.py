"""The frame path against its frozen copying reference.

A claim batch leaves the parent as the write-ahead log's own encoding,
joined once and sent with its frame header in one ``sendmsg``; the host
receives into its reader's buffer, or into a buffer of exactly the
frame's size, and decodes with the one BATCH decoder.  Whatever the mix
of frames and however the stream is cut, the wire carries the bytes the
copying path (:mod:`copying_frame_reference`) put there, the receiver
yields the frames it yielded, and the estimator gets equal columns, each
owned, writable and no view of the frame.
"""

import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import copying_frame_reference as ref
from repro.durable import records as rec
from repro.net import transport
from repro.net.framing import FrameReader, FramingError
from repro.net.transport import RECV_CHUNK, SocketConnection
from repro.truthdiscovery.streaming import ClaimBatch
from repro.workers import protocol as proto
from repro.workers.handles import RemoteAggregator, WorkerHandle
from repro.workers.worker import ShardRuntime

#: The largest frame the property draws.
MAX_FRAME = 3 * RECV_CHUNK


class ScriptedSocket:
    """A non-blocking socket stand-in.

    ``recv_into`` serves ``segments`` one arrival at a time: an arrival
    is read until it is drained, and the read after that fails with
    ``BlockingIOError``, as a socket with nothing more in flight does;
    after the last arrival the stream reads EOF if ``closed``.
    ``sendmsg`` (and ``send``, one buffer's) takes at most the next of
    ``send_sizes`` bytes per call (cycled) and appends what it took to
    :attr:`wire`.
    """

    def __init__(self, segments=(), *, closed=True, send_sizes=(1 << 40,)):
        self._segments = [memoryview(s).cast("B") for s in segments if len(s)]
        self._closed = closed
        self._drained = False
        self._send_sizes = itertools.cycle(send_sizes)
        # select() needs a descriptor; this one is always readable.
        self._rfd, self._wfd = os.pipe()
        os.write(self._wfd, b"x")
        self.wire = bytearray()
        self.sendmsg_calls = 0
        self.recv_calls = 0
        self.sent_buffers = []

    def setblocking(self, flag):
        pass

    def setsockopt(self, *args):
        pass

    def fileno(self):
        return self._rfd

    def close(self):
        for fd in (self._rfd, self._wfd):
            os.close(fd)

    def recv_into(self, buffer):
        self.recv_calls += 1
        if self._drained:
            self._drained = False
            raise BlockingIOError
        if not self._segments:
            if self._closed:
                return 0
            raise BlockingIOError
        segment = self._segments[0]
        count = min(len(buffer), len(segment))
        buffer[:count] = segment[:count]
        if count == len(segment):
            del self._segments[0]
            self._drained = True
        else:
            self._segments[0] = segment[count:]
        return count

    def send(self, data, flags=0):
        return self.sendmsg([data], (), flags)

    def sendmsg(self, buffers, ancdata=(), flags=0):
        self.sendmsg_calls += 1
        room = next(self._send_sizes)
        taken = 0
        for buffer in buffers:
            self.sent_buffers.append(
                buffer.obj if isinstance(buffer, memoryview) else buffer
            )
            view = memoryview(buffer)[:room - taken]
            self.wire += view
            taken += len(view)
            if taken == room:
                break
        return taken


class _Process:
    pid = 0

    def is_alive(self):
        return True


def remote(conn, campaign_id, num_users, num_objects):
    """A parent's proxy for one campaign, shipping over ``conn``."""
    handle = WorkerHandle(0, (0, 1), _Process(), conn)
    return RemoteAggregator(
        handle, campaign_id, num_users, num_objects,
        backend="streaming", refine_every=1 << 60,
    )


def receive(segments, *, closed=True):
    """``(frames, error)`` off a :class:`SocketConnection` reading
    ``segments``: every frame ``recv_frame`` returns until the stream
    ends, then the error it ended with (None for a clean EOF)."""
    conn = SocketConnection(ScriptedSocket(segments, closed=closed))
    frames = []
    with conn:
        try:
            while True:
                frames.append(conn.recv_frame())
        except EOFError:
            return frames, None
        except FramingError as exc:
            return frames, exc


# ----------------------------------------------------------------------
# Frame mixes.
@st.composite
def batch_frames(draw):
    campaign_id = draw(st.text(max_size=12))
    # At most 65 536 users and objects takes the log's u16 encoder;
    # more, WorkItem's width detection (u16, i32 or i64 per batch).
    num_users = draw(st.sampled_from([1, 300, 1 << 16, (1 << 16) + 1, 1 << 40]))
    num_objects = draw(st.sampled_from([1, 48, 1 << 16, 1 << 33]))
    width = 12 if max(num_users, num_objects) <= 1 << 16 else 24
    room = (MAX_FRAME - 12 - len(campaign_id.encode())) // width
    n = draw(st.one_of(st.integers(1, 64), st.integers(room // 2, room)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    users = rng.integers(0, num_users, n)
    objects = rng.integers(0, num_objects, n)
    values = rng.normal(size=n)
    if draw(st.integers(0, 9)) == 0:
        values[rng.integers(n)] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
    return ("batch", campaign_id, num_users, num_objects, users, objects, values)


control_frames = st.builds(
    lambda rtype, cid: (
        "control", rtype, rec.encode_json_payload({"campaign_id": cid})
    ),
    st.sampled_from([rec.REGISTER, rec.UNREGISTER, rec.REFRESH,
                     proto.SNAPSHOT_REQ, proto.STATE_REQ]),
    st.text(max_size=30),
)

state_frames = st.builds(
    lambda rtype, size: (
        "control", rtype, proto.pack_state(
            {"campaign_id": "c", "state": {"truths": np.arange(float(size))}}
        ),
    ),
    st.sampled_from([proto.STATE_RESP, proto.LOAD_STATE, proto.SNAPSHOT_RESP]),
    st.one_of(st.integers(0, 64), st.integers(8000, MAX_FRAME // 8 - 64)),
)

frame_mixes = st.lists(
    st.one_of(batch_frames(), control_frames, state_frames),
    min_size=1, max_size=6,
)


def send_all(frames, send_sizes):
    """The wire bytes the frame path writes for ``frames``."""
    sock = ScriptedSocket(send_sizes=send_sizes)
    with SocketConnection(sock) as conn:
        for frame in frames:
            if frame[0] == "batch":
                _, cid, num_users, num_objects, users, objects, values = frame
                remote(conn, cid, num_users, num_objects).ingest(
                    ClaimBatch.unchecked(users, objects, values)
                )
            else:
                conn.send_frame(frame[1], frame[2])
    return bytes(sock.wire)


def reference_frames(frames):
    """Each frame's bytes as the copying path wrote them."""
    return [
        ref.batch_frame(*frame[1:2], *frame[4:]) if frame[0] == "batch"
        else ref.encode_frame(frame[1], frame[2])
        for frame in frames
    ]


@st.composite
def splits(draw, ends):
    """Segment boundaries of a stream whose frames end at ``ends``:
    random cuts, cuts a few bytes either side of frame ends, every
    ``k`` bytes (1 byte at a time on a short stream), or none."""
    size = ends[-1]
    mode = draw(st.sampled_from(["cuts", "edges", "every", "whole"]))
    if mode == "whole" or size == 0:
        return [0, size]
    if mode == "every":
        k = draw(st.integers(max(1, size // 400), max(1, size)))
        return list(range(0, size, k)) + [size]
    if mode == "edges":
        # One byte short of a frame's end or past it, most of all.
        near = st.one_of(st.sampled_from([-1, 1]), st.integers(-6, 6))
        cuts = [
            min(max(end + draw(near), 0), size)
            for end in draw(st.lists(st.sampled_from(ends), max_size=6))
        ]
    else:
        cuts = draw(st.lists(st.integers(0, size), max_size=12))
    return [0] + sorted(cuts) + [size]


@settings(max_examples=200, deadline=None)
@given(frames=frame_mixes, data=st.data())
def test_frame_path_equals_the_copying_path(frames, data):
    pieces = reference_frames(frames)
    expected_wire = b"".join(pieces)
    ends = list(itertools.accumulate(map(len, pieces)))
    size = ends[-1]
    send_sizes = data.draw(st.lists(
        st.integers(size // 400 + 1, 1 << 18), min_size=1, max_size=3
    ))
    wire = send_all(frames, send_sizes)
    assert wire == expected_wire

    bounds = data.draw(splits(ends))
    # The peer may hang up anywhere, mid-frame included.
    cut = data.draw(st.integers(0, size)) if data.draw(st.booleans()) else size
    segments = [wire[a:min(b, cut)] for a, b in zip(bounds, bounds[1:]) if a < cut]
    got, error = receive(segments)
    expected = ref.receive(segments)
    event(f"a frame past RECV_CHUNK: {any(len(p) > RECV_CHUNK for _, p in expected)}")
    event(f"cut mid-stream: {cut < size}")
    event(f"segments: {'1' if len(segments) <= 1 else '2-9' if len(segments) < 10 else '10+'}")
    assert [(t, bytes(p)) for t, p in got] == expected
    # A close mid-frame raises as it did; a close between frames is EOF.
    try:
        ref.receive(segments, closed=True)
    except FramingError:
        assert isinstance(error, FramingError)
    else:
        assert error is None

    for (rtype, payload), (_, ref_payload) in zip(got, expected):
        if rtype != rec.BATCH:
            continue
        try:
            want = ref.decode_batch(ref_payload)
        except ValueError as exc:
            with pytest.raises(ValueError, match="finite"):
                rec.decode_batch(payload)
            assert "finite" in str(exc)
            continue
        campaign_id, batch = rec.decode_batch(payload)
        assert campaign_id == want[0]
        frame = np.frombuffer(payload, dtype=np.uint8)
        for column, reference in zip(
            (batch.users, batch.objects, batch.values), want[1:]
        ):
            assert column.dtype == reference.dtype
            assert column.tobytes() == reference.tobytes()
            assert column.flags.owndata and column.flags.writeable
            assert not np.shares_memory(column, frame)


@settings(max_examples=200, deadline=None)
@given(
    buffer_bytes=st.integers(5, 64),
    payloads=st.lists(
        st.tuples(
            st.integers(0, 255),
            st.tuples(
                st.one_of(st.integers(0, 64), st.integers(300, 2000)),
                st.integers(0, 2**32),
            ).map(lambda drawn: np.random.default_rng(drawn[1]).bytes(drawn[0])),
        ),
        min_size=1, max_size=6,
    ),
    max_frame_bytes=st.sampled_from([1 << 30, 1 << 30, 1500]),
    data=st.data(),
)
def test_a_small_reader_buffer_decodes_as_the_copying_path(
    buffer_bytes, payloads, max_frame_bytes, data
):
    """The same property on a reader whose reusable buffer is a few
    bytes: most frames outgrow their first own buffer and double it,
    some more than once, and any cut lands in a header or a body."""
    wire = b"".join(ref.encode_frame(rtype, p) for rtype, p in payloads)
    ends = list(itertools.accumulate(len(p) + 5 for _, p in payloads))
    bounds = data.draw(splits(ends))
    reader = FrameReader(max_frame_bytes=max_frame_bytes, buffer_bytes=buffer_bytes)
    copying = ref.CopyingFrameReader(max_frame_bytes=max_frame_bytes)
    for a, b in zip(bounds, bounds[1:]):
        try:
            want = copying.feed(wire[a:b])
        except FramingError:
            with pytest.raises(FramingError):
                reader.feed(wire[a:b])
            return
        assert [(t, bytes(p)) for t, p in reader.feed(wire[a:b])] == want
        assert reader.pending_bytes == copying.pending_bytes
    assert reader.at_boundary


# ----------------------------------------------------------------------
class TestReceiver:
    def test_a_burst_of_small_frames_is_one_read(self):
        """Small frames that arrive together are taken by one
        ``recv_into``; it fills less than it was offered, so the socket
        is drained and no read follows to find that out."""
        wire = b"".join(
            proto.encode_frame(rec.REFRESH, b'{"campaign_id":"c%d"}' % i)
            for i in range(40)
        )
        sock = ScriptedSocket([wire], closed=False)
        conn = SocketConnection(sock)
        frames = [conn.recv_frame() for _ in range(40)]
        assert [payload for _, payload in frames][-1] == b'{"campaign_id":"c39"}'
        assert sock.recv_calls == 1
        conn.close()

    def test_a_frame_past_the_buffer_is_read_into_its_own(self):
        payload = bytes(range(256)) * (2 * RECV_CHUNK // 256)
        sock = ScriptedSocket([proto.encode_frame(proto.STATE_RESP, payload)])
        with SocketConnection(sock) as conn:
            rtype, got = conn.recv_frame()
        assert rtype == proto.STATE_RESP and got == payload
        # One read fills the reusable buffer, one reads the rest of the
        # body straight into the frame's own buffer, and one finds the
        # socket drained.
        assert sock.recv_calls == 3

    def test_a_short_tail_is_read_into_the_frame_and_the_rest_after(self):
        """A frame cut by the end of a read finishes in its own buffer,
        however short its rest; the frames behind it come in the next
        read, which drains the socket: 64 KiB, the rest of the cut
        frame, then the last frame."""
        payloads = [bytes([i]) * 40_000 for i in range(3)]
        wire = b"".join(proto.encode_frame(proto.STATE_RESP, p) for p in payloads)
        sock = ScriptedSocket([wire])
        with SocketConnection(sock) as conn:
            got = [conn.recv_frame()[1] for _ in payloads]
        assert got == payloads
        assert sock.recv_calls == 3

    @pytest.mark.parametrize("received", [100_000, 300_000, 1_100_000, 2_500_000])
    def test_a_long_frame_grows_with_what_arrives(self, received):
        """Part of a 4 MiB frame: the reader holds at most four times
        what arrived (at least four reusable buffers), and a regrowth
        holds the old buffer beside the new one."""
        payload = os.urandom(1 << 22)
        wire = memoryview(proto.encode_frame(proto.STATE_RESP, payload))
        reader = FrameReader(buffer_bytes=RECV_CHUNK)
        tracemalloc.start()
        try:
            assert reader.feed(wire[:received]) == []
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reader.pending_bytes == received
        bound = 4 * max(received, RECV_CHUNK)
        assert held < bound + 4096 and peak < bound + received + 4096
        assert reader.feed(wire[received:]) == [(proto.STATE_RESP, payload)]
        assert reader.at_boundary

    def test_a_large_declared_length_allocates_what_arrived(self):
        """A header declaring 512 MiB, within the bound, followed by a
        few body bytes costs a first buffer, not the declared size."""
        header = (512 << 20).to_bytes(4, "little") + b"\x05"
        reader = FrameReader()
        tracemalloc.start()
        try:
            assert reader.feed(header + b"\x00" * 64) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reader.pending_bytes == 5 + 64
        assert peak < 1 << 20

    def test_a_large_declared_length_off_a_socket_allocates_what_arrived(self):
        header = (512 << 20).to_bytes(4, "little") + b"\x05"
        sock = ScriptedSocket([header + b"\x00" * 64], closed=False)
        conn = SocketConnection(sock)
        tracemalloc.start()
        try:
            assert not conn.poll(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            conn.close()
        assert peak < 1 << 20

    @pytest.mark.parametrize("length", [0, (1 << 20) + 1])
    def test_bad_length_is_refused_before_any_allocation(self, length):
        reader = FrameReader(max_frame_bytes=1 << 20)
        header = length.to_bytes(4, "little") + b"\x05"
        tracemalloc.start()
        try:
            with pytest.raises(FramingError):
                reader.feed(header + b"\x00" * 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_bad_length_off_a_socket_allocates_nothing(self):
        header = ((1 << 30) + 1).to_bytes(4, "little") + b"\x05"
        sock = ScriptedSocket([header])
        conn = SocketConnection(sock)
        tracemalloc.start()
        try:
            with pytest.raises(FramingError):
                conn.recv_frame()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            conn.close()
        assert peak < 64 * 1024


class TestSender:
    def test_header_and_payload_leave_in_one_sendmsg(self):
        sock = ScriptedSocket()
        payload = b"p" * transport.SCATTER_BYTES
        with SocketConnection(sock) as conn:
            conn.send_frame(rec.BATCH, payload)
        assert sock.sendmsg_calls == 1
        assert sock.sent_buffers[1] is payload
        assert bytes(sock.wire) == proto.encode_frame(rec.BATCH, payload)

    def test_a_short_payload_leaves_joined_to_its_header(self):
        sock = ScriptedSocket()
        payload = b"p" * (transport.SCATTER_BYTES - 1)
        with SocketConnection(sock) as conn:
            conn.send_frame(rec.BATCH, payload)
        assert sock.sendmsg_calls == 1
        (sent,) = sock.sent_buffers
        assert sent == proto.encode_frame(rec.BATCH, payload)

    def test_fault_points_fire_once_per_frame(self, monkeypatch):
        fired = []
        monkeypatch.setattr(
            transport._chaos, "fire", lambda point: fired.append(point)
        )
        sock = ScriptedSocket(send_sizes=(7,))
        with SocketConnection(sock) as conn:
            conn.send_frame(rec.BATCH, b"x" * 100)
        assert sock.sendmsg_calls > 1
        assert fired == ["net.delay", "net.send"]


def test_value_column_is_copied_at_most_three_times():
    """User-space copies of one BATCH value column from
    ``RemoteAggregator.ingest`` to the host's estimator.

    The copying path made six: ``tobytes`` of the column, the join of
    the payload, the header concatenation, the reader's ``extend``, the
    payload copied out of the reader, and the host's owned copy.  Now
    the parent joins the encoded parts once (1) and hands that buffer
    to ``sendmsg``; the host reads the stream into its reader's buffer
    and copies the payload out once (2); the decoder copies the values
    once (3) and the estimator gets that array.  Each stage is checked
    at its seams (what crosses is the buffer made, not a copy of it),
    and its allocation peak shows no other copy of the column beside
    the one counted.
    """
    n = 5000  # a small frame: 60 kB, within one read
    rng = np.random.default_rng(3)
    users, objects = rng.integers(0, 300, n), rng.integers(0, 48, n)
    values = rng.normal(size=n)
    column = values.nbytes
    copies = 0

    # Parent: encode, join once, one sendmsg.
    sock = ScriptedSocket()
    conn = SocketConnection(sock)
    proxy = remote(conn, "c", 300, 48)
    batch = ClaimBatch.unchecked(users, objects, values)
    tracemalloc.start()
    proxy.ingest(batch)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    header, payload = sock.sent_buffers
    assert isinstance(payload, bytes) and len(header) == 5
    copies += 1  # the joined payload
    # The peak holds the wire record of the fake socket and the payload.
    assert peak < 2 * len(payload) + column // 2
    wire = bytes(sock.wire)
    conn.close()

    # Host: read the stream, copy the frame out.
    sock = ScriptedSocket([wire])
    conn = SocketConnection(sock)
    tracemalloc.start()
    rtype, frame = conn.recv_frame()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    conn.close()
    assert rtype == rec.BATCH and isinstance(frame, bytes)
    copies += 1  # the payload copied out of the reader's buffer
    assert peak < len(frame) + column // 2

    # Decode: widened slots, one value copy, handed over as it is.
    ingested = []
    runtime = ShardRuntime(0, (0, 1))
    runtime.on_frame(rec.CONFIG, b'{"obs": false}', lambda *f: None)
    runtime.on_frame(rec.REGISTER, json.dumps(
        {"campaign_id": "c", "num_users": 300, "num_objects": 48,
         "aggregator": "streaming"}).encode(), lambda *f: None)
    runtime._aggregators["c"].ingest = ingested.append
    tracemalloc.start()
    runtime.on_frame(rtype, frame, lambda *f: None)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    (got,) = ingested
    assert got.values.flags.owndata
    assert not np.shares_memory(got.values, np.frombuffer(frame, np.uint8))
    copies += 1  # the decoder's value copy
    # Two int64 slot columns and one value column, nothing more.
    assert peak < 3 * column + column // 2
    assert got.values.tobytes() == values.tobytes()
    assert copies <= 3

