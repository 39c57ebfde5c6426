"""FrameServer and call(): the one accept loop and its one-shot client."""

import os
import signal
import socket
import threading
import time

import pytest

from repro.chaos import FaultPlan
from repro.chaos import points as chaos_points
from repro.durable import records as rec
from repro.net.host import ShardHost, serve_shard
from repro.net.transport import FrameServer, SocketListener, call, connect
from repro.workers import protocol as proto

BLOCK = 77  # a frame type whose handler waits for the test's go-ahead
HANGUP = 78  # a frame type whose handler ends the connection
BIG = 79  # a frame type answered with a multi-megabyte frame


def recv(conn, *, timeout=10.0):
    assert conn.poll(timeout), "server sent no frame in time"
    return conn.recv_frame()


@pytest.fixture
def server():
    """A started echo server; ``server.release`` unblocks BLOCK frames."""
    release = threading.Event()
    entered = threading.Event()

    def on_frame(conn, rtype, payload):
        if rtype == BLOCK:
            entered.set()
            assert release.wait(30.0)
        if rtype == HANGUP:
            return False
        if rtype == BIG:
            payload = bytes(8 << 20)
        conn.send_frame(rtype, payload)
        return True

    srv = FrameServer("127.0.0.1", 0, on_frame)
    srv.release = release
    srv.entered = entered
    srv.start()
    try:
        yield srv
    finally:
        release.set()
        srv.stop()


class TestFrameServer:
    def test_blocked_handler_does_not_delay_another_connection(
        self, server
    ):
        """What the vote handler's "a PING must never queue behind it"
        asks for: each connection has its own thread."""
        slow = connect(server.address, timeout=5.0)
        slow.send_frame(BLOCK, b"slow")
        assert server.entered.wait(10.0)
        start = time.monotonic()
        assert call(server.address, proto.PING, b"x", timeout=5.0) == (
            proto.PING,
            b"x",
        )
        assert time.monotonic() - start < 1.0
        assert not slow.poll(0)  # still blocked, still unanswered
        server.release.set()
        assert recv(slow) == (BLOCK, b"slow")
        slow.close()

    def test_false_closes_that_connection_only(self, server):
        stays = connect(server.address, timeout=5.0)
        leaves = connect(server.address, timeout=5.0)
        leaves.send_frame(HANGUP)
        assert leaves.poll(10.0)
        with pytest.raises(EOFError):
            leaves.recv_frame()
        stays.send_frame(5, b"still here")
        assert recv(stays) == (5, b"still here")
        stays.close()
        leaves.close()

    def test_garbage_ends_the_connection_not_the_server(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        # A declared length of zero cannot hold the type byte: the
        # decoder refuses it, and the server drops this peer.
        raw.sendall(b"\x00\x00\x00\x00\x00garbage")
        raw.settimeout(10.0)
        assert raw.recv(1) == b""
        raw.close()
        assert call(server.address, 5, b"next", timeout=5.0) == (5, b"next")

    def test_request_stop_mid_reply_delivers_the_whole_frame(self, server):
        conn = connect(server.address, timeout=5.0)
        conn.send_frame(BIG)
        # The reply outgrows the socket buffers, so the handler is
        # blocked mid-send until this side reads.
        time.sleep(0.3)
        server.request_stop()
        time.sleep(0.3)
        rtype, payload = recv(conn)
        assert (rtype, len(payload)) == (BIG, 8 << 20)
        # ... and the stop is then honoured: the connection ends.
        assert conn.poll(10.0)
        with pytest.raises(EOFError):
            conn.recv_frame()
        conn.close()

    def test_stop_twice_returns_and_leaves_no_thread(self, server):
        def live():
            return [
                t.name for t in threading.enumerate()
                if t.name.startswith("repro-frame-server")
            ]

        idle = connect(server.address, timeout=5.0)
        idle.send_frame(5, b"hello")
        assert recv(idle) == (5, b"hello")
        assert len(live()) == 2  # the accept loop and idle's thread
        server.stop()
        server.stop()
        assert live() == []
        with pytest.raises(OSError):
            call(server.address, proto.PING, timeout=0.5)
        idle.close()

    def test_start_twice_is_refused(self, server):
        with pytest.raises(RuntimeError, match="already started"):
            server.start()


class TestStopWakesTheAcceptLoop:
    """A stop is acted on at once, not at the accept loop's next poll:
    with the poll stretched to 30 s, a host still returns in moments."""

    @pytest.fixture(autouse=True)
    def slow_poll(self, monkeypatch):
        monkeypatch.setattr(FrameServer, "POLL_SECONDS", 30.0)

    def test_stop_ends_an_idle_connection_at_once(self, server):
        """An open connection that sends nothing is waiting in its poll:
        the stop wakes it too, instead of leaving it to the poll."""
        idle = connect(server.address, timeout=5.0)
        idle.send_frame(5, b"hello")
        assert recv(idle) == (5, b"hello")
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < 1.0
        assert idle.poll(5.0)
        with pytest.raises(EOFError):
            idle.recv_frame()
        idle.close()

    def test_shard_host_returns_from_serve_soon_after_shutdown(self):
        host = ShardHost()
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(host.serve()), daemon=True
        )
        thread.start()
        conn = connect(host.address, timeout=5.0)
        conn.send_frame(rec.CONFIG, rec.encode_json_payload({"obs": False}))
        assert recv(conn) == (proto.READY, b"")
        start = time.monotonic()
        conn.send_frame(proto.SHUTDOWN)
        thread.join(10.0)
        assert not thread.is_alive() and codes == [0]
        assert time.monotonic() - start < 3.0
        conn.close()

    def test_sigterm_stops_a_serving_host_at_once(self):
        """The SIGTERM handler calls ``request_stop``: it must wake the
        accept loop from inside a signal handler too."""
        timers = []

        def announce(port):
            timer = threading.Timer(0.1, os.kill, (os.getpid(), signal.SIGTERM))
            timers.append(timer)
            timer.start()

        disposition = signal.getsignal(signal.SIGTERM)
        start = time.monotonic()
        try:
            assert serve_shard(announce=announce) == 0
            assert time.monotonic() - start < 3.0
        finally:
            timers[0].join()
            # A stop SIGTERM asked for leaves SIGTERM ignored.
            assert signal.getsignal(signal.SIGTERM) == signal.SIG_IGN
            signal.signal(signal.SIGTERM, disposition)


class TestCall:
    def test_mute_peer_raises_timeout_within_timeout(self):
        """A peer that accepts and never answers costs ``timeout``."""
        with SocketListener() as mute:  # listens, never reads
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                call(mute.address, proto.PING, timeout=0.3)
            assert time.monotonic() - start < 1.0

    def test_refused_dial_is_an_immediate_answer(self):
        with SocketListener() as listener:
            address = listener.address
        start = time.monotonic()
        with pytest.raises(ConnectionRefusedError):
            call(address, proto.PING, timeout=5.0)
        assert time.monotonic() - start < 0.5

    def test_peer_hanging_up_without_a_reply_is_a_connection_error(
        self, server
    ):
        with pytest.raises(ConnectionError, match="without a reply"):
            call(server.address, HANGUP, timeout=5.0)

    def test_injected_dial_refusal_applies(self, server):
        """The partition drill cuts a watchdog off with ``net.connect``
        refusals; a probe through call() must feel them too."""
        plan = FaultPlan(31, rates={"net.connect": 1.0})
        with chaos_points.installed(plan):
            with pytest.raises(ConnectionRefusedError, match="chaos"):
                call(server.address, proto.PING, timeout=5.0)
        assert plan.counts()["net.connect"] == 1
        assert call(server.address, proto.PING, timeout=5.0)[0] == proto.PING
