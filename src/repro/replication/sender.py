"""The primary side of WAL-shipping replication.

A :class:`ReplicationSender` attaches to a live
:class:`~repro.durable.manager.DurabilityManager` and ships every
committed group to N standbys.  The durable-ack watermark
(:attr:`~repro.durable.wal.WriteAheadLog.durable_lsn`) is the
replication cursor on both ends:

* the sender never ships past the primary's watermark — a standby can
  only ever hold records the primary has committed, so a promoted
  standby equals the crashed primary *at the replicated watermark*;
* each standby acks with its *own* durable watermark after persisting
  the group to its own WAL generation, so reconnects resume from
  exactly what survived on the standby's disk.

One shipping thread per standby (a :class:`_StandbyLink`) wakes on the
WAL's post-fsync commit hook, locates the committed suffix through an
incremental :class:`~repro.durable.stream.WalTailReader`, and ships it
in bounded groups: each group is one RECORDS frame header followed by
a byte range of a segment file, sent with ``os.sendfile`` — the frames
as the WAL wrote them, never read or copied in this process.  A link
that reconnects (or whose cursor fell below the primary's compaction
floor) resynchronises: records still on disk are located again from
the cursor; records compaction dropped are covered by shipping the
newest checkpoint file's bytes first.  A link whose standby refuses a
group (a frame that fails its CRC, say) or whose log cannot be walked
to the watermark records the error in ``last_error`` and reconnects
under its backoff.

Sync modes:

* ``"async"`` — ingest never waits; standbys trail by whatever the
  network allows (the ``replication_lag_*`` gauges say how much);
* ``"semi-sync"`` — the service's pump blocks (via
  :meth:`ReplicationSender.after_group_commit`) until at least one
  standby has acked the pump's last LSN, bounding data loss on primary
  death to zero *acknowledged* records.  A standby outage degrades to
  async after ``ack_timeout`` (counted, logged) rather than stalling
  ingest forever.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional, Sequence

from repro.durable.stream import TailGapError, WalTailReader
from repro.net.transport import connect
from repro.obs.registry import Histogram, series_key
from repro.replication import protocol as rp
from repro.utils.backoff import Backoff
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed
from repro.workers.protocol import frame_header, recv_frame, send_frame

_LOGGER = get_logger("replication.sender")

SYNC_MODES = ("async", "semi-sync")

#: Soft cap on one RECORDS group's payload bytes (a larger frame ships
#: alone); large committed suffixes are shipped as several groups so
#: acks (and semi-sync progress) flow during catch-up.
MAX_GROUP_BYTES = 4 * 1024 * 1024


class ReplicationError(RuntimeError):
    """Replication stream failure the caller must act on."""


class _StandbyLink:
    """One standby's shipping thread and its cursor bookkeeping."""

    def __init__(self, sender: "ReplicationSender", index: int, address):
        self.sender = sender
        self.index = index
        self.address = tuple(address)
        self.ack_lsn = 0
        self.connected = False
        self.reconnects = 0
        self.records_shipped = 0
        self.bytes_shipped = 0
        self.groups_shipped = 0
        self.checkpoints_shipped = 0
        self.ack_timeouts = 0
        #: Seconds from group send to standby ack (cumulative).
        self.ship_histogram = Histogram(
            series_key(
                "repro_replication_ship_seconds", {"standby": str(index)}
            )
        )
        self.last_error: Optional[str] = None
        # The shared reconnect schedule: capped exponential backoff
        # with jitter seeded per link, so two links never redial on
        # the same beat yet a chaos drill replays both timelines.
        self._backoff = Backoff(
            base=0.05,
            cap=2.0,
            random_state=derive_seed(0, "repl-link", index, *self.address),
        )
        self._thread = threading.Thread(
            target=self._run,
            name=f"repl-sender-{index}",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        sender = self.sender
        while not sender.stopped:
            conn = None
            try:
                conn = connect(
                    self.address, timeout=sender.connect_timeout
                )
                self.connected = True
                self._backoff.reset()
                self._stream(conn)
            except Exception as exc:
                if sender.stopped:
                    break
                self.last_error = str(exc)
                self.reconnects += 1
                _LOGGER.warning(
                    "standby %d link lost (%s); reconnecting",
                    self.index,
                    exc,
                )
                sender.wait_or_stop(self._backoff.next())
            finally:
                self.connected = False
                if conn is not None:
                    conn.close()

    def _handshake(self, conn) -> int:
        send_frame(
            conn,
            rp.HELLO,
            rp.encode_json(
                {
                    "format": rp.REPLICATION_FORMAT,
                    "directory": str(self.sender.wal.directory),
                }
            ),
        )
        rtype, payload = recv_frame(conn)
        if rtype == rp.REPL_ERROR:
            raise ReplicationError(
                rp.decode_json(payload).get("error", "standby error")
            )
        if rtype != rp.CURSOR:
            raise ReplicationError(
                f"expected CURSOR after HELLO, got frame {rtype}"
            )
        return rp.decode_lsn(payload)

    def _stream(self, conn) -> None:
        sender = self.sender
        cursor = self._handshake(conn)
        with sender.ack_cv:
            self.ack_lsn = max(self.ack_lsn, cursor)
            sender.ack_cv.notify_all()
        reader = WalTailReader(sender.wal.directory, after_lsn=cursor)
        try:
            while not sender.stopped:
                durable = sender.wal.durable_lsn
                try:
                    span = reader.poll(durable, max_bytes=MAX_GROUP_BYTES)
                except TailGapError:
                    # The suffix above the cursor was compacted away; a
                    # checkpoint covers the dropped prefix.
                    reader.close()
                    reader = self._resync(conn, reader.next_lsn - 1)
                    continue
                if span is not None:
                    self._ship(conn, span)
                    continue
                sender.wait_for_commit(reader.next_lsn)
        finally:
            reader.close()

    def _resync(self, conn, cursor: int) -> WalTailReader:
        """Cursor fell below the retained log: ship a covering
        checkpoint, then resume tailing above it."""
        sender = self.sender
        lsn, data = sender.checkpoints.read_latest() or (0, None)
        if lsn <= cursor:
            raise ReplicationError(
                f"standby {self.index} cursor {cursor} predates the "
                f"retained log and no covering checkpoint exists"
            )
        # The file's bytes, as they are: the standby checks and stores
        # them unchanged.
        send_frame(conn, rp.CHECKPOINT, data)
        ack = self._await_ack(conn)
        if ack != lsn:
            raise ReplicationError(
                f"standby acked lsn {ack} for a checkpoint at {lsn}"
            )
        self.checkpoints_shipped += 1
        with sender.ack_cv:
            self.ack_lsn = max(self.ack_lsn, ack)
            sender.ack_cv.notify_all()
        _LOGGER.info(
            "standby %d resynced from checkpoint at lsn %d", self.index, lsn
        )
        return WalTailReader(sender.wal.directory, after_lsn=lsn)

    def _ship(self, conn, span) -> None:
        """One RECORDS group: the span's frames, straight from the file."""
        sender = self.sender
        start = time.perf_counter()
        conn.send_file_range(
            frame_header(rp.RECORDS, span.length),
            span.fd,
            span.offset,
            span.length,
        )
        ack = self._await_ack(conn)
        self.ship_histogram.observe(time.perf_counter() - start)
        self.records_shipped += span.last_lsn - span.first_lsn + 1
        self.bytes_shipped += span.length
        self.groups_shipped += 1
        with sender.ack_cv:
            self.ack_lsn = max(self.ack_lsn, ack)
            sender.ack_cv.notify_all()

    def _await_ack(self, conn) -> int:
        rtype, payload = recv_frame(conn)
        if rtype == rp.REPL_ERROR:
            raise ReplicationError(
                rp.decode_json(payload).get("error", "standby error")
            )
        if rtype != rp.ACK:
            raise ReplicationError(f"expected ACK, got frame {rtype}")
        return rp.decode_lsn(payload)


class ReplicationSender:
    """Ships a primary's WAL to N standbys; owns one link per standby.

    Parameters
    ----------
    addresses:
        ``(host, port)`` of each standby's replication listener.
    sync:
        ``"async"`` or ``"semi-sync"`` (see the module docstring).
    ack_timeout:
        Semi-sync back-pressure bound: how long one pump may wait for a
        standby ack before degrading to async for that group.
    connect_timeout:
        Dial/redial budget per connection attempt.
    """

    def __init__(
        self,
        addresses: Sequence,
        *,
        sync: str = "async",
        ack_timeout: float = 30.0,
        connect_timeout: float = 30.0,
    ) -> None:
        if sync not in SYNC_MODES:
            raise ValueError(
                f"sync must be one of {SYNC_MODES}, got {sync!r}"
            )
        if not addresses:
            raise ValueError("replication needs at least one standby")
        self.sync_mode = sync
        self.ack_timeout = float(ack_timeout)
        self.connect_timeout = float(connect_timeout)
        self.links = [
            _StandbyLink(self, i, addr) for i, addr in enumerate(addresses)
        ]
        self.ack_cv = threading.Condition()
        self.semi_sync_timeouts = 0
        self._commit_cv = threading.Condition()
        self._committed_lsn = 0
        #: (lsn, monotonic time) of recent group commits, for the
        #: time-based lag gauge.
        self._commit_times: deque = deque(maxlen=4096)
        self._stopped = False
        self._manager = None
        self._listener = None

    # ------------------------------------------------------------------
    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def wal(self):
        return self._manager.wal

    @property
    def checkpoints(self):
        return self._manager.checkpoints

    def attach(self, manager) -> None:
        """Hook the manager's WAL commit path and start shipping."""
        if self._manager is not None:
            raise ReplicationError("sender is already attached")
        self._manager = manager
        self._listener = self._on_commit
        manager.wal.add_commit_listener(self._listener)
        with self._commit_cv:
            self._committed_lsn = manager.wal.durable_lsn
        for link in self.links:
            link.start()

    def _on_commit(self, durable_lsn: int) -> None:
        # Runs on the WAL's committing thread: record the time for the
        # lag gauge and wake every shipping thread.
        with self._commit_cv:
            self._committed_lsn = durable_lsn
            self._commit_times.append((durable_lsn, time.monotonic()))
            self._commit_cv.notify_all()

    def wait_for_commit(self, next_lsn: int) -> None:
        """Park a link thread until a commit reaches ``next_lsn``."""
        with self._commit_cv:
            if self._committed_lsn >= next_lsn or self._stopped:
                return
            self._commit_cv.wait(0.2)

    def wait_or_stop(self, seconds: float) -> None:
        with self._commit_cv:
            if not self._stopped:
                self._commit_cv.wait(seconds)

    # ------------------------------------------------------------------
    def wait_replicated(
        self, lsn: int, *, timeout: Optional[float] = None
    ) -> bool:
        """Block until at least one standby has acked ``lsn``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.ack_cv:
            while not any(link.ack_lsn >= lsn for link in self.links):
                if self._stopped:
                    return False
                if deadline is None:
                    self.ack_cv.wait(0.5)
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self.ack_cv.wait(min(remaining, 0.5))
            return True

    def after_group_commit(self, lsn: int) -> None:
        """Pump hook: semi-sync back-pressure on the ack watermark."""
        if self.sync_mode != "semi-sync" or lsn <= 0:
            return
        if not self.wait_replicated(lsn, timeout=self.ack_timeout):
            self.semi_sync_timeouts += 1
            _LOGGER.warning(
                "semi-sync ack for lsn %d timed out after %.1fs; "
                "degrading this group to async",
                lsn,
                self.ack_timeout,
            )

    # ------------------------------------------------------------------
    def lag_lsn(self, link: _StandbyLink) -> int:
        """How many committed records the standby has not acked."""
        durable = 0 if self._manager is None else self.wal.durable_lsn
        return max(0, durable - link.ack_lsn)

    def lag_seconds(self, link: _StandbyLink) -> float:
        """Age of the oldest committed-but-unacked group (0 if none)."""
        if self.lag_lsn(link) == 0:
            return 0.0
        now = time.monotonic()
        with self._commit_cv:
            for lsn, committed_at in self._commit_times:
                if lsn > link.ack_lsn:
                    return max(0.0, now - committed_at)
        return 0.0

    def min_ack_lsn(self) -> int:
        return min((link.ack_lsn for link in self.links), default=0)

    def stats(self) -> dict:
        """JSON-friendly shipping counters (bench / telemetry)."""
        return {
            "sync_mode": self.sync_mode,
            "semi_sync_timeouts": self.semi_sync_timeouts,
            "standbys": [
                {
                    "index": link.index,
                    "address": list(link.address),
                    "connected": link.connected,
                    "ack_lsn": link.ack_lsn,
                    "lag_lsn": self.lag_lsn(link),
                    "lag_seconds": self.lag_seconds(link),
                    "records_shipped": link.records_shipped,
                    "bytes_shipped": link.bytes_shipped,
                    "groups_shipped": link.groups_shipped,
                    "checkpoints_shipped": link.checkpoints_shipped,
                    "reconnects": link.reconnects,
                }
                for link in self.links
            ],
        }

    def close(self) -> None:
        """Stop shipping threads and unhook the WAL (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        with self._commit_cv:
            self._commit_cv.notify_all()
        with self.ack_cv:
            self.ack_cv.notify_all()
        for link in self.links:
            link.join(timeout=5.0)
        if self._manager is not None and self._listener is not None:
            self._manager.wal.remove_commit_listener(self._listener)
