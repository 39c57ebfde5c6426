"""The shard host: one shard worker on a socket.

``repro serve-shard`` is how every shard worker runs —
``Topology.workers(n)`` and ``Topology.fabric(n)`` alike: a process on a
port, each frame of the worker protocol handed to the
:class:`~repro.workers.worker.ShardRuntime`, behind a
:class:`~repro.net.transport.FrameServer` — so it accepts *multiple*
connections, each on its own thread:

* the **data plane** is the connection that sends ``CONFIG`` (answered
  ``READY``): the only one that feeds the runtime, its frames processed
  strictly in order on one thread, which is what keeps truths
  bitwise-identical to an in-process run;
* any other connection gets ``PING`` → ``PONG`` (the supervisor's
  heartbeat) — an unsolicited frame on the data plane would be read as
  an error report by the parent, so heartbeats need their own stream.

Lifecycle: ``SHUTDOWN`` exits cleanly; the data plane closing without
one means the parent is gone, and the host exits rather than linger
orphaned; a dispatch failure is reported as an ``ERROR`` frame carrying
the traceback, then the host exits nonzero
(:meth:`ShardRuntime.serve_frame`).  Either way the accept loop wakes at
once (:meth:`~repro.net.transport.FrameServer.request_stop`).  SIGTERM
is a graceful stop: a response a client is waiting on is sent whole
before the host exits.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.net.transport import FrameServer
from repro.utils.process import on_sigterm
from repro.workers import protocol as proto
from repro.workers.worker import ShardRuntime


class ShardHost(FrameServer):
    """One shard-worker runtime served over TCP."""

    def __init__(
        self,
        *,
        worker_id: int = 0,
        shard_range: tuple = (0, 0),
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port, self._feed, on_close=self._closed)
        self._runtime = ShardRuntime(worker_id, shard_range)
        self._data_plane = None
        self._claim = threading.Lock()

    def serve(self, announce: Optional[Callable[[int], None]] = None) -> int:
        """Announce, then dispatch until shutdown; returns the exit code."""
        super().serve(announce)
        return self._runtime.exit_code

    def _feed(self, conn, rtype: int, payload: bytes) -> bool:
        if conn is not self._data_plane and rtype != proto.PING:
            with self._claim:
                # The first connection to say anything but PING is the
                # data plane (the runtime refuses it unless that frame
                # is CONFIG); a second one has no business here.
                if self._data_plane is None:
                    self._data_plane = conn
            if conn is not self._data_plane:
                return False
        if self._runtime.serve_frame(conn, rtype, payload):
            return True
        self.request_stop()  # SHUTDOWN, or a reported failure
        return False

    def _closed(self, conn) -> None:
        if conn is self._data_plane:
            # Closed without a SHUTDOWN: the parent is gone, and an
            # orphaned host would serve no one.
            self.request_stop()


def serve_shard(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    worker_id: int = 0,
    shard_range: tuple = (0, 0),
    announce: Optional[Callable[[int], None]] = None,
) -> int:
    """Blocking entrypoint behind ``repro serve-shard``."""
    shard_host = ShardHost(
        worker_id=worker_id, shard_range=shard_range, host=host, port=port
    )
    with on_sigterm(shard_host.request_stop):
        return shard_host.serve(announce)
