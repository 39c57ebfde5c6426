"""The framed socket transport: every connection in the system.

:class:`SocketConnection` wraps one TCP stream in frames:
``send_frame`` / ``recv_frame`` / ``poll(timeout)`` / ``close``, the
raw ``send_bytes`` under ``send_frame``, and ``send_file_range``, which
sends a frame whose payload is a byte range of a file (the replication
stream's WAL frames) by ``os.sendfile``.  Shard workers, standbys,
watchdogs and their clients all speak through it.

Frames have one encoder (:func:`~repro.workers.protocol.frame_header`
ahead of the payload) and one decoder (the
:class:`~repro.net.framing.FrameReader`), and each frame is copied at
most once in user space on either side.  A frame's header and a
payload of :data:`SCATTER_BYTES` or more leave in
one ``sendmsg``, never joined into one buffer; a shorter payload is
joined to its header.  Received bytes land where the reader asks for
them (``recv_into``): its reusable buffer, from which each frame that
arrived whole is copied out, or a frame's own buffer for one whose
body runs past what was read; a read that fills less than it was
offered ends the pull.  A frame is "available"
(``poll`` returns True) only once all its bytes are received, so the
caller never blocks mid-frame.

:class:`SocketListener` is the accepting side; :func:`connect` the
dialling side.  Both default to localhost — the fabric's first target
is N processes on one machine — but take any ``(host, port)`` address.

On top of those sit the one way to serve frames and the one way to ask
for one: :class:`FrameServer`, the accept loop of every listener in the
failover stack (a thread per connection over blocking sockets), and
:func:`call`, its client for a peer that should be *up* — one dial, one
frame out, a bounded wait for one frame back.  :func:`connect` keeps
the retry loop, for callers dialling a peer that is still booting.
"""

from __future__ import annotations

import os
import select
import socket
import threading
import time
from typing import Callable, Optional

from repro.chaos import points as _chaos
from repro.net.framing import FrameReader, FramingError
from repro.utils.backoff import Backoff
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed
from repro.workers.protocol import frame_header

_LOGGER = get_logger("net.transport")

#: Size of a connection's reusable receive buffer: the most one read
#: takes when no frame is part-read, large enough that a burst of
#: small frames crosses in one syscall.
RECV_CHUNK = 1 << 16

#: Send flag that holds a frame header back until its body follows
#: (Linux; elsewhere the header leaves on its own).
_MSG_MORE = getattr(socket, "MSG_MORE", 0)

#: Payloads at least this long leave beside their header in one
#: ``sendmsg``; a shorter one costs less joined to it and sent as one
#: buffer (measured: a second ``sendmsg`` buffer costs more than
#: copying a few kB).
SCATTER_BYTES = 1 << 12


class SocketConnection:
    """One framed byte stream over a connected TCP socket."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        # Frames are latency-sensitive RPCs as often as bulk batches;
        # never trade an RTT for coalescing.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock: Optional[socket.socket] = sock
        self._reader = FrameReader(buffer_bytes=RECV_CHUNK)
        self._frames: list[tuple[int, bytes]] = []
        self._eof = False

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._sock is None

    def fileno(self) -> int:
        """The socket's descriptor, so ``select`` takes a connection."""
        if self._sock is None:
            raise OSError("connection is closed")
        return self._sock.fileno()

    # ------------------------------------------------------------------
    def send_bytes(self, data: bytes, header: bytes = b"") -> None:
        """Write one complete buffer, after ``header`` when one is given
        (blocking until fully sent).  From :data:`SCATTER_BYTES` on, the
        two leave in one ``sendmsg``, so a frame's header is never
        joined to a large payload."""
        sock = self._sending_socket()
        if len(data) < SCATTER_BYTES:
            self._send_all(sock, [header + data])
        else:
            self._send_all(sock, [header, data] if header else [data])

    def send_frame(self, rtype: int, payload: bytes = b"") -> None:
        """Write one frame: its header, then ``payload`` as it is."""
        self.send_bytes(payload, frame_header(rtype, len(payload)))

    def send_file_range(
        self, header: bytes, fd: int, offset: int, count: int
    ) -> None:
        """Write ``header``, then ``count`` bytes of the file ``fd`` from
        ``offset`` (blocking until all are sent).

        The file bytes go by ``os.sendfile``: the kernel copies them
        from the page cache, with the interpreter lock released, and a
        partial send resumes where it stopped, as :meth:`send_bytes`
        does.  The same fault points fire, once per call.
        """
        sock = self._sending_socket()
        # Held back for the body, so a small frame leaves as one packet.
        self._send_all(sock, [header], _MSG_MORE)
        while count:
            try:
                sent = os.sendfile(sock.fileno(), fd, offset, count)
            except BlockingIOError:
                select.select([], [sock], [])
                continue
            except BrokenPipeError:
                raise
            except ConnectionError as exc:
                raise BrokenPipeError(str(exc)) from exc
            if sent == 0:
                raise OSError(
                    f"file ended {count} byte(s) short of the range to send"
                )
            offset += sent
            count -= sent

    def _sending_socket(self) -> socket.socket:
        """The socket, once the ``net.delay`` / ``net.send`` fault points
        have had their say about this send."""
        if self._sock is None:
            raise OSError("connection is closed")
        delay = _chaos.fire("net.delay")
        if delay is not None:
            # Injected slow network: the frame arrives, late.
            time.sleep(delay.seconds)
        reset = _chaos.fire("net.send")
        if reset is not None:
            # Injected connection reset: both ends see the stream die
            # mid-frame, exactly like a partition — the caller's
            # reconnect path (and the peer's dedup) must absorb it.
            self.close()
            raise BrokenPipeError(
                f"chaos: injected connection reset (#{reset.index})"
            )
        return self._sock

    @staticmethod
    def _send_all(
        sock: socket.socket, buffers: list, flags: int = 0
    ) -> None:
        """Send ``buffers`` back to back, resuming a partial send where
        it stopped."""
        while True:
            try:
                if len(buffers) == 1:
                    sent = sock.send(buffers[0], flags)
                else:
                    sent = sock.sendmsg(buffers, (), flags)
            except BlockingIOError:
                select.select([], [sock], [])
                continue
            except BrokenPipeError:
                raise
            except ConnectionError as exc:
                raise BrokenPipeError(str(exc)) from exc
            for index, buffer in enumerate(buffers):
                size = len(buffer)
                if sent < size:
                    buffers = [memoryview(buffer)[sent:], *buffers[index + 1:]]
                    break
                sent -= size
            else:
                return

    def poll(self, timeout: float = 0.0) -> bool:
        """True once a complete frame (or EOF) is ready to receive."""
        if self._frames or self._eof:
            return True
        if self._sock is None:
            raise OSError("connection is closed")
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if deadline is None:
                wait = None
            else:
                wait = max(deadline - time.monotonic(), 0.0)
            readable, _, _ = select.select([self._sock], [], [], wait)
            if not readable:
                return False
            if self._pull() and (self._frames or self._eof):
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return bool(self._frames or self._eof)

    def recv_frame(self) -> tuple[int, bytes]:
        """Blocking read of one decoded frame; EOFError when peer left."""
        while not self._frames:
            if self._eof:
                raise EOFError("connection closed by peer")
            if self._sock is None:
                raise OSError("connection is closed")
            select.select([self._sock], [], [])
            self._pull()
        return self._frames.pop(0)

    def _pull(self) -> bool:
        """Drain readable bytes into the frame reader; True if any read.

        A read that fills less than it was offered drained the socket,
        so no further read is tried: bytes that arrive after it make the
        socket readable again for the caller's next ``select``.
        """
        reader = self._reader
        got_any = False
        while True:
            target = reader.recv_buffer()
            try:
                count = self._sock.recv_into(target)
            except BlockingIOError:
                return got_any
            except ConnectionResetError:
                self._eof = True
                return True
            got_any = True
            if not count:
                self._eof = True
                if reader.pending_bytes:
                    raise FramingError(
                        f"peer closed mid-frame with "
                        f"{reader.pending_bytes} byte(s) pending"
                    )
                return True
            self._frames.extend(reader.received(count))
            if count < len(target):
                return True

    # ------------------------------------------------------------------
    def shutdown_read(self) -> None:
        """Read EOF from now on: a thread waiting in :meth:`poll` or
        :meth:`recv_frame` wakes to it, and sends still work.  Touches
        no lock, so a signal handler may call it; a no-op once closed."""
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # closed under us, or the peer already left

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - double close
                pass
            self._sock = None

    def __enter__(self) -> "SocketConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SocketListener:
    """Accepting side of the framed transport (one bound TCP socket)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(16)
        self._sock: Optional[socket.socket] = sock
        self.address: tuple[str, int] = sock.getsockname()[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    def accept(self, timeout: Optional[float] = None) -> SocketConnection:
        """Accept one peer; raises TimeoutError when none dials in time."""
        # Snapshot the socket: a concurrent close() (a standby or shard
        # host stopping) nulls the attribute, and that race must read
        # as "listener closed", not AttributeError.
        sock = self._sock
        if sock is None:
            raise OSError("listener is closed")
        try:
            readable, _, _ = select.select([sock], [], [], timeout)
            if not readable:
                raise TimeoutError(
                    f"no connection on {self.address} within {timeout}s"
                )
            conn, _peer = sock.accept()
        except ValueError as exc:  # select on a closed fd
            raise OSError("listener is closed") from exc
        return SocketConnection(conn)

    def shutdown(self) -> None:
        """Stop listening: a thread blocked in :meth:`accept` wakes and
        raises ``OSError`` (Linux).  Touches no lock, so a signal
        handler may call it, and is a no-op once closed."""
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # closed under us

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - double close
                pass
            self._sock = None

    def __enter__(self) -> "SocketListener":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _dial(address: tuple[str, int], timeout: float) -> SocketConnection:
    """One dial attempt, through the ``net.connect`` fault point."""
    fault = _chaos.fire("net.connect")
    if fault is not None:
        raise ConnectionRefusedError(
            f"chaos: injected dial refusal (#{fault.index})"
        )
    return SocketConnection(socket.create_connection(address, timeout=timeout))


def connect(
    address: tuple[str, int],
    *,
    timeout: float = 30.0,
    backoff: Optional[Backoff] = None,
) -> SocketConnection:
    """Dial a listener, retrying until ``timeout`` (hosts boot async).

    Retries follow a capped exponential backoff with seeded jitter
    (:class:`~repro.utils.backoff.Backoff`) instead of a fixed beat:
    the first retry is nearly immediate (a booting host usually binds
    within milliseconds), later ones spread out so N parents redialing
    one dead host do not synchronize.  The default schedule is seeded
    from the target address, so a replayed chaos drill redials on an
    identical timeline; pass ``backoff=`` to own the schedule.
    """
    if backoff is None:
        backoff = Backoff(
            base=0.02,
            cap=0.5,
            random_state=derive_seed(0, "net.connect", *address),
        )
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            return _dial(address, 5.0)
        except OSError as exc:
            last_error = exc
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        time.sleep(min(backoff.next(), remaining))
    raise ConnectionError(
        f"could not connect to {address} within {timeout}s: {last_error}"
    )


def call(
    address: tuple[str, int],
    rtype: int,
    payload: bytes = b"",
    *,
    timeout: float,
) -> tuple[int, bytes]:
    """Dial once, send one frame, return the one frame sent back.

    For a peer that should already be listening (a liveness probe, a
    vote, a status query): there a refused dial *is* the answer, so
    nothing is retried, and ``timeout`` bounds the whole exchange.
    Every failure is an ``OSError``: ``ConnectionRefusedError`` (nobody
    listens, or an injected ``net.connect`` refusal), ``TimeoutError``
    (accepted, then no reply), ``ConnectionError`` (hung up, garbage).
    """
    deadline = time.monotonic() + timeout
    with _dial(address, timeout) as conn:
        conn.send_frame(rtype, payload)
        try:
            if conn.poll(max(deadline - time.monotonic(), 0.0)):
                return conn.recv_frame()
        except (EOFError, FramingError) as exc:
            raise ConnectionError(
                f"{address} closed without a reply: {exc}"
            ) from exc
    raise TimeoutError(f"{address} sent no reply within {timeout}s")


class FrameServer:
    """The accept loop: a thread per connection, a handler per frame.

    ``on_frame(conn, rtype, payload)`` runs on its connection's thread
    (a handler that blocks delays only its own peer), replies by
    sending on ``conn`` and returns False to end *that* connection;
    ``on_close(conn)`` runs as a connection ends, whatever the reason.
    The stop flag is read only *between* frames, and :meth:`serve` /
    :meth:`stop` wait for handlers that are mid-frame: a stop never
    tears a reply a client is waiting on.  A peer that hangs up or
    sends garbage ends its connection quietly; a handler that raises
    is logged and costs its connection, never the server.  A stop
    shuts down the listening socket and the read side of every
    connection, which wakes the accept loop and every idle connection
    at once; a handler mid-frame still sends its reply.
    """

    POLL_SECONDS = 0.2  #: between a connection's looks at the stop flag
    DRAIN_SECONDS = 5.0  #: how long a stop waits for handlers mid-frame

    def __init__(
        self,
        host: str,
        port: int,
        on_frame: Callable[[SocketConnection, int, bytes], bool],
        *,
        on_close: Callable[[SocketConnection], None] = lambda conn: None,
        name: str = "repro-frame-server",
    ) -> None:
        self._listener = SocketListener(host, port)
        self.address = self._listener.address
        self.port = self._listener.port
        self._on_frame = on_frame
        self._on_close = on_close
        self._name = name
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        self._connections: list[tuple[threading.Thread, SocketConnection]] = []

    def serve(self, announce: Optional[Callable[[int], None]] = None) -> None:
        """Announce the bound port, then accept until stopped (blocking)."""
        if announce is not None:
            announce(self.port)
        try:
            while not self._stopping:
                try:
                    conn = self._listener.accept()
                except OSError:
                    break  # listener shut down or closed: stopping
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"{self._name}-conn",
                    daemon=True,
                )
                thread.start()
                self._connections = [
                    (t, c) for t, c in self._connections if t.is_alive()
                ] + [(thread, conn)]
        finally:
            self._stopping = True
            self._listener.close()
            self._shutdown_reads()  # any accepted after request_stop looked
            deadline = time.monotonic() + self.DRAIN_SECONDS
            for thread, _conn in self._connections:
                thread.join(max(deadline - time.monotonic(), 0.0))

    def start(self) -> None:
        """:meth:`serve` on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError(f"{self._name} already started")
        self._thread = threading.Thread(
            target=self.serve, name=self._name, daemon=True
        )
        self._thread.start()

    def request_stop(self) -> None:
        """Ask :meth:`serve` to wind down: set the flag, wake the accept
        loop and every connection waiting for a frame (signal-safe: no
        lock is taken)."""
        self._stopping = True
        self._listener.shutdown()
        self._shutdown_reads()

    def _shutdown_reads(self) -> None:
        """End every live connection's reads: a poll wakes to EOF, and
        replies still go out."""
        for _thread, conn in self._connections:
            conn.shutdown_read()

    def stop(self) -> None:
        """Stop accepting, let handlers finish, join (idempotent)."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(self.DRAIN_SECONDS + 1.0)
            self._thread = None
        self._listener.close()

    def _serve_connection(self, conn: SocketConnection) -> None:
        with conn:
            try:
                while not self._stopping:
                    if not conn.poll(self.POLL_SECONDS):
                        continue
                    if not self._on_frame(conn, *conn.recv_frame()):
                        break
            except (OSError, EOFError, FramingError):
                pass  # peer hung up, reset, or sent garbage
            except Exception:
                _LOGGER.exception("%s: frame handler failed", self._name)
            finally:
                self._on_close(conn)
