"""SocketListener / SocketConnection: the mp.Connection surface on TCP."""

import os
import socket
import struct
import threading

import pytest

from repro.net.framing import MAX_FRAME_BYTES, FramingError
from repro.net.transport import SocketListener, connect
from repro.workers import protocol as proto


@pytest.fixture
def pair():
    """An accepted (server_conn, client_conn) pair on localhost."""
    with SocketListener() as listener:
        result = {}

        def dial():
            result["client"] = connect(listener.address, timeout=10.0)

        t = threading.Thread(target=dial)
        t.start()
        server = listener.accept(timeout=10.0)
        t.join(10.0)
        client = result["client"]
        try:
            yield server, client
        finally:
            server.close()
            client.close()


class TestRoundTrip:
    def test_frames_both_directions(self, pair):
        server, client = pair
        client.send_bytes(proto.encode_frame(5, b"to-server"))
        assert server.poll(5.0)
        assert server.recv_frame() == (5, b"to-server")
        server.send_bytes(proto.encode_frame(33, b"to-client"))
        assert client.recv_frame() == (33, b"to-client")

    def test_large_frame_survives_partial_sends(self, pair):
        server, client = pair
        payload = bytes(range(256)) * 16384  # 4 MiB: many recv chunks
        # Send from a thread: a frame this size overflows the kernel
        # socket buffers, so the sender blocks until the receiver
        # drains — which is exactly the partial-send path under test.
        sender = threading.Thread(
            target=client.send_bytes,
            args=(proto.encode_frame(35, payload),),
        )
        sender.start()
        try:
            rtype, got = server.recv_frame()
        finally:
            sender.join(30.0)
        assert rtype == 35
        assert got == payload

    def test_many_small_frames_coalesced(self, pair):
        server, client = pair
        frames = [(i % 250 + 1, bytes([i % 251])) for i in range(200)]
        blob = b"".join(proto.encode_frame(t, p) for t, p in frames)
        client.send_bytes(blob)
        got = [server.recv_frame() for _ in frames]
        assert got == frames

    def test_poll_zero_without_data(self, pair):
        server, _client = pair
        assert not server.poll(0)

    def test_poll_sees_buffered_frame_without_new_bytes(self, pair):
        server, client = pair
        client.send_bytes(
            proto.encode_frame(1, b"a") + proto.encode_frame(2, b"b")
        )
        assert server.poll(5.0)
        assert server.recv_frame() == (1, b"a")
        # The second frame is already buffered; poll must not block on
        # the (now idle) socket.
        assert server.poll(0)
        assert server.recv_frame() == (2, b"b")


class TestEdges:
    def test_clean_close_raises_eof(self, pair):
        server, client = pair
        client.close()
        with pytest.raises(EOFError):
            server.recv_frame()

    def test_poll_true_at_eof(self, pair):
        server, client = pair
        client.close()
        assert server.poll(5.0)  # EOF is a readable event

    def test_close_mid_frame_raises_framing_error(self):
        with SocketListener() as listener:
            raw = socket.create_connection(listener.address, timeout=10.0)
            server = listener.accept(timeout=10.0)
            try:
                raw.sendall(proto.encode_frame(5, b"payload")[:3])
            finally:
                raw.close()
            with pytest.raises(FramingError):
                server.recv_frame()
            server.close()

    @pytest.mark.parametrize("length", [0, MAX_FRAME_BYTES + 1, 2**32 - 1])
    def test_bad_header_length_raises_framing_error(self, length):
        """A header declaring no room for its type byte, or more than
        the frame limit, is refused as it arrives, not waited out."""
        with SocketListener() as listener:
            raw = socket.create_connection(listener.address, timeout=10.0)
            server = listener.accept(timeout=10.0)
            try:
                raw.sendall(struct.pack("<IB", length, 5) + b"abc")
                with pytest.raises(FramingError):
                    server.recv_frame()
            finally:
                raw.close()
                server.close()

    def test_trailing_garbage_after_a_frame_raises_at_close(self):
        """Bytes after a frame are the start of the next one: the frame
        is delivered, and a close before that one completes is an
        error, not a short frame."""
        with SocketListener() as listener:
            raw = socket.create_connection(listener.address, timeout=10.0)
            server = listener.accept(timeout=10.0)
            try:
                raw.sendall(proto.encode_frame(5, b"ok") + b"xx")
            finally:
                raw.close()
            assert server.recv_frame() == (5, b"ok")
            with pytest.raises(FramingError):
                server.recv_frame()
            server.close()

    def test_connect_refused_after_deadline(self):
        # Grab a port and close it so nothing listens there.
        probe = SocketListener()
        address = probe.address
        probe.close()
        with pytest.raises(ConnectionError):
            connect(address, timeout=0.3)

    def test_close_idempotent(self, pair):
        server, client = pair
        server.close()
        server.close()
        assert server.closed
        client.close()
        client.close()

    def test_send_after_peer_close_raises_broken_pipe(self, pair):
        server, client = pair
        server.close()
        with pytest.raises((BrokenPipeError, ConnectionError)):
            # The first send may land in kernel buffers; keep writing
            # until the RST surfaces.
            for _ in range(64):
                client.send_bytes(proto.encode_frame(5, b"x" * 65536))


class TestFileRange:
    """send_file_range: a frame header, then a file's bytes by sendfile."""

    def test_tiny_send_buffer_forces_partial_sendfiles(
        self, pair, tmp_path, monkeypatch
    ):
        server, client = pair
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        data = os.urandom(1 << 20)
        path = tmp_path / "segment"
        path.write_bytes(data)
        offset, count = 12345, len(data) - 20000
        calls = []
        real = os.sendfile

        def counting(out_fd, in_fd, at, n):
            sent = real(out_fd, in_fd, at, n)
            calls.append((n, sent))
            return sent

        monkeypatch.setattr(os, "sendfile", counting)
        with open(path, "rb") as fh:
            sender = threading.Thread(
                target=client.send_file_range,
                args=(proto.frame_header(52, count), fh.fileno(), offset, count),
            )
            sender.start()
            try:
                rtype, got = server.recv_frame()
            finally:
                sender.join(30.0)
        assert (rtype, got) == (52, data[offset:offset + count])
        assert any(sent < n for n, sent in calls), "no partial sendfile"
        assert sum(sent for _, sent in calls) == count

    def test_fault_point_resets_before_any_byte(self, pair, tmp_path):
        from repro.chaos import points as chaos_points
        from repro.chaos.plan import FaultPlan

        server, client = pair
        path = tmp_path / "segment"
        path.write_bytes(b"x" * 100)
        plan = FaultPlan(0, rates={"net.send": 1.0, "net.delay": 0.0})
        with chaos_points.installed(plan), open(path, "rb") as fh:
            with pytest.raises(BrokenPipeError, match="injected connection reset"):
                client.send_file_range(proto.frame_header(52, 100), fh.fileno(), 0, 100)
        assert plan.counts() == {"net.send": 1}
        assert client.closed
        with pytest.raises(EOFError):
            server.recv_frame()  # the peer saw a clean end, no partial frame

    def test_file_shorter_than_the_range_raises(self, pair, tmp_path):
        _server, client = pair
        path = tmp_path / "segment"
        path.write_bytes(b"x" * 10)
        with open(path, "rb") as fh:
            with pytest.raises(OSError, match="short of the range"):
                client.send_file_range(proto.frame_header(52, 20), fh.fileno(), 0, 20)

    def test_closed_connection_raises(self, pair, tmp_path):
        _server, client = pair
        client.close()
        with pytest.raises(OSError, match="closed"):
            client.send_file_range(b"", 0, 0, 1)
