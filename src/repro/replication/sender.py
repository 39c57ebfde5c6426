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
WAL's post-fsync commit hook and grows a *held* group with the newly
committed frames through an incremental
:class:`~repro.durable.stream.WalTailReader` (walking only the new
frame headers).  A group is one RECORDS frame header followed by a
byte range of a segment file, sent with ``os.sendfile`` — the frames
as the WAL wrote them, never read or copied in this process.  The link
ships the held group when

* it is full: the next committed frame would take it past
  :data:`MAX_GROUP_BYTES` (a larger frame ships alone);
* it reaches the end of its segment (the next committed frame is in
  the next file);
* a caller waits on an LSN inside it — :meth:`ReplicationSender.wait_replicated`,
  semi-sync's :meth:`ReplicationSender.after_group_commit` through it,
  and :meth:`ReplicationSender.close`; or
* its oldest frame has waited :data:`MAX_HOLD_SECONDS`.

So a bulk stream ships groups whose boundaries are the greedy packing
of each segment's frames — a function of the committed bytes, not of
thread scheduling — and a trickle still ships within
:data:`MAX_HOLD_SECONDS`.  A link that reconnects (or whose cursor
fell below the primary's compaction floor) resynchronises: records
still on disk are located again from the cursor; records compaction
dropped are covered by shipping the newest checkpoint file's bytes
first.  A link whose standby refuses a group (a frame that fails its
CRC, say), whose connection fails, or whose log cannot be walked to
the watermark records the error in ``last_error`` and reconnects under
its backoff; any other exception is a bug and ends the link's thread.

Sync modes:

* ``"async"`` — ingest never waits; a standby trails by the group its
  link holds — up to :data:`MAX_GROUP_BYTES` of frames, or
  :data:`MAX_HOLD_SECONDS` of commits — plus what commits during one
  group's send-to-ack round trip (the ``replication_lag_*`` gauges
  say how much);
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
from bisect import bisect_right
from operator import itemgetter
from typing import Optional, Sequence

from repro.durable.stream import TailGapError, WalTailReader
from repro.durable.wal import WalError
from repro.net.framing import FramingError
from repro.net.transport import connect
from repro.obs.registry import Histogram, series_key
from repro.replication import protocol as rp
from repro.utils.backoff import Backoff
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed
from repro.workers.protocol import ProtocolError, frame_header

_LOGGER = get_logger("replication.sender")

SYNC_MODES = ("async", "semi-sync")

#: Soft cap on one RECORDS group's payload bytes (a larger frame ships
#: alone).  A link fills its held group up to it before shipping, and
#: a long committed suffix ships as several groups, so acks (and
#: semi-sync progress) flow during catch-up.
MAX_GROUP_BYTES = 2 * 1024 * 1024

#: The longest a committed frame waits in a held group that no caller
#: waits on.  Long enough that a bulk stream fills groups by bytes
#: (2 MiB of ``replicated_bulk`` commits in ~45 ms), short enough to
#: bound the async loss window of a trickle.
MAX_HOLD_SECONDS = 0.1

#: Commit times kept for the lag gauge and the hold deadline; beyond
#: it, neighbouring entries are merged (see ``_thin_commit_times``).
COMMIT_TIMES_KEPT = 4096

#: How long :meth:`ReplicationSender.close` waits for connected links
#: to ship what they hold.
CLOSE_DRAIN_SECONDS = 5.0

_LSN = itemgetter(0)


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
            # What a link redials on: the connection failed or the
            # standby sent what it cannot read or refused a group
            # (OSError, EOFError, FramingError, ProtocolError,
            # ReplicationError), or the log cannot be walked to the
            # watermark (WalError).  Anything else is a bug: it ends
            # this thread instead of redialling on backoff forever.
            except (
                OSError,
                EOFError,
                FramingError,
                ProtocolError,
                ReplicationError,
                WalError,
            ) as exc:
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
            except Exception as exc:
                self.last_error = repr(exc)
                raise
            finally:
                self.connected = False
                if conn is not None:
                    conn.close()

    def _handshake(self, conn) -> int:
        conn.send_frame(
            rp.HELLO,
            rp.encode_json(
                {
                    "format": rp.REPLICATION_FORMAT,
                    "directory": str(self.sender.wal.directory),
                }
            ),
        )
        rtype, payload = conn.recv_frame()
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
                try:
                    held = reader.scan(
                        sender.wal.durable_lsn, max_bytes=MAX_GROUP_BYTES
                    )
                except TailGapError:
                    # The suffix above the cursor was compacted away; a
                    # checkpoint covers the dropped prefix.
                    reader.close()
                    reader = self._resync(conn, reader.next_lsn - 1)
                    continue
                if held is None:
                    sender.wait_for_commit(reader.scan_lsn)
                elif reader.complete:
                    self._ship(conn, reader)
                else:
                    due = sender.ship_due(held.first_lsn)
                    if due > time.monotonic():
                        sender.wait_for_commit(
                            reader.scan_lsn, held_from=held.first_lsn, until=due
                        )
                    else:
                        # For a waiter or by age: take in what committed
                        # since the scan first (the held span stays in
                        # its segment, so this cannot move the reader).
                        reader.scan(
                            sender.wal.durable_lsn, max_bytes=MAX_GROUP_BYTES
                        )
                        self._ship(conn, reader)
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
        conn.send_frame(rp.CHECKPOINT, data)
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

    def _ship(self, conn, reader) -> None:
        """One RECORDS group: the reader's held frames, straight from the
        file."""
        sender = self.sender
        span = reader.held
        reader.take()
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
        rtype, payload = conn.recv_frame()
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
        #: The highest LSN a caller waits on: a held group that reaches
        #: it ships at once.
        self._demand_lsn = 0
        #: (lsn, monotonic time) of the group commits some standby has
        #: not acked, in LSN order, for the lag gauge and the hold
        #: deadline.
        self._commit_times: list = []
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
        # Frames committed before now are aged from now.
        self._on_commit(manager.wal.durable_lsn)
        for link in self.links:
            link.start()

    def _on_commit(self, durable_lsn: int) -> None:
        # Runs on the WAL's committing thread: record the time for the
        # lag gauge and the hold deadline, and wake every link.
        with self._commit_cv:
            self._committed_lsn = max(self._committed_lsn, durable_lsn)
            times = self._commit_times
            if not times or times[-1][0] < durable_lsn:
                times.append((durable_lsn, time.monotonic()))
            del times[:bisect_right(times, self.min_ack_lsn(), key=_LSN)]
            if len(times) > COMMIT_TIMES_KEPT:
                self._thin_commit_times()
            self._commit_cv.notify_all()

    def _thin_commit_times(self) -> None:
        """Halve the kept commit times, so a standby that stays down
        costs bounded memory.

        Each merged pair keeps the later LSN and the *earlier* time:
        the first entry above an ack still carries the oldest unacked
        commit's time.  A pair with some link's ack between its two
        LSNs is never merged, so every link's lag stays exact; an ack
        that later lands inside a merged stretch reads the stretch's
        oldest commit, never a younger one.
        """
        acks = [link.ack_lsn for link in self.links]
        kept: list = []
        merge = False
        for lsn, committed_at in self._commit_times:
            if merge and not any(kept[-1][0] <= a < lsn for a in acks):
                kept[-1] = (lsn, kept[-1][1])
                merge = False
            else:
                kept.append((lsn, committed_at))
                merge = True
        self._commit_times = kept

    def _committed_at(self, after_lsn: int) -> Optional[float]:
        """When the oldest kept commit above ``after_lsn`` happened
        (caller holds ``_commit_cv``)."""
        times = self._commit_times
        i = bisect_right(times, after_lsn, key=_LSN)
        return times[i][1] if i < len(times) else None

    def ship_due(self, first_lsn: int) -> float:
        """The monotonic time a held group starting at ``first_lsn``
        ships: now if a caller waits on it, else once its oldest frame
        has waited :data:`MAX_HOLD_SECONDS`."""
        with self._commit_cv:
            if self._demand_lsn >= first_lsn:
                return float("-inf")
            committed_at = self._committed_at(first_lsn - 1)
        if committed_at is None:
            # Scanned between the WAL's commit and its listener: the
            # frame committed just now.
            committed_at = time.monotonic()
        return committed_at + MAX_HOLD_SECONDS

    def wait_for_commit(
        self,
        next_lsn: int,
        *,
        held_from: Optional[int] = None,
        until: Optional[float] = None,
    ) -> None:
        """Park a link thread until a commit reaches ``next_lsn``, a
        caller waits on ``held_from`` or later, or ``until`` (at most
        0.2 s)."""
        with self._commit_cv:
            if (
                self._stopped
                or self._committed_lsn >= next_lsn
                or (held_from is not None and self._demand_lsn >= held_from)
            ):
                return
            timeout = 0.2
            if until is not None:
                timeout = min(timeout, until - time.monotonic())
            if timeout > 0:
                self._commit_cv.wait(timeout)

    def wait_or_stop(self, seconds: float) -> None:
        with self._commit_cv:
            if not self._stopped:
                self._commit_cv.wait(seconds)

    def _demand(self, lsn: int) -> None:
        """A caller waits on ``lsn``: every link ships the group that
        holds it now instead of filling it."""
        with self._commit_cv:
            if lsn > self._demand_lsn:
                self._demand_lsn = lsn
                self._commit_cv.notify_all()

    # ------------------------------------------------------------------
    def wait_replicated(
        self, lsn: int, *, timeout: Optional[float] = None
    ) -> bool:
        """Block until at least one standby has acked ``lsn``; a link
        holding ``lsn`` in a partial group ships it at once."""
        deadline = None if timeout is None else time.monotonic() + timeout
        self._demand(lsn)
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
        """Age of the oldest committed group the standby has not acked
        (0 if none), a held group's wait included."""
        if self.lag_lsn(link) == 0:
            return 0.0
        with self._commit_cv:
            committed_at = self._committed_at(link.ack_lsn)
        if committed_at is None:
            return 0.0
        return max(0.0, time.monotonic() - committed_at)

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
        """Ship what the links hold, stop them and unhook the WAL
        (idempotent).

        Closing waits on the committed tail like any caller: each
        connected link ships its held group first, for up to
        :data:`CLOSE_DRAIN_SECONDS`.
        """
        if self._stopped:
            return
        if self._manager is not None:
            self._drain(self.wal.durable_lsn)
        self._stopped = True
        with self._commit_cv:
            self._commit_cv.notify_all()
        with self.ack_cv:
            self.ack_cv.notify_all()
        for link in self.links:
            link.join(timeout=5.0)
        if self._manager is not None and self._listener is not None:
            self._manager.wal.remove_commit_listener(self._listener)

    def _drain(self, lsn: int) -> None:
        deadline = time.monotonic() + CLOSE_DRAIN_SECONDS
        self._demand(lsn)
        with self.ack_cv:
            while any(
                link.connected and link.ack_lsn < lsn for link in self.links
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self.ack_cv.wait(min(remaining, 0.05))
