"""A warm standby: persists the replication stream, serves reads,
promotes on demand.

A :class:`StandbyServer` owns its *own* WAL generation of the primary's
log: every shipped frame is verified (bounds, CRC, type, contiguous
LSN) and stored unchanged, so the standby's frames are the primary's
bytes by construction; the group is committed, **acked only after its
own fsync**, and then replayed into a live
:class:`~repro.service.ingest.IngestService`
through the same :class:`~repro.durable.recovery.RecordApplier` crash
recovery uses.  That ordering — append, commit, ack, apply — makes the
standby's directory independently recoverable and its in-memory truths
a pure function of the acked record sequence, which is what the
promotion bitwise-equality invariant rests on.  A record that fails to
apply may leave its campaign half-changed, so the standby then rebuilds
its service from its own directory, as a restart would; if that fails
too, it refuses reads, records and promotion until a restart.

Because the aggregators are live, reads are instant: the same listener
(a :class:`~repro.net.transport.FrameServer` — a thread per
connection, so a read never queues behind the stream) answers snapshot
(``READ_REQ``), status (``STATUS_REQ``) and promotion
(``PROMOTE_REQ``) requests from
:class:`~repro.replication.client.ReplicaReadClient` peers while the
stream flows.  A read serves the state the applied log defines, folding
nothing the log did not, and a reader whose last reply still holds gets
an empty one (see :meth:`StandbyServer._on_read`).
:meth:`StandbyServer.promote` turns the standby into a
fully-functional primary: the replication WAL handle is closed and a
fresh :class:`~repro.durable.manager.DurabilityManager` (continuing
LSNs after the replicated watermark) is attached with
``service.attach_durability`` — the call crash recovery's ``resume``
makes, which checkpoints the replayed campaigns — and spent budget
stays spent because a charge is recorded at admission and logged in
order, no later than the first batch or commit point after it, so the
stream carries it before any batch it admitted, and it is replayed on
arrival.

Run one with ``repro standby --dir DIR``; the process announces
``PORT <n>`` on stdout exactly like ``repro serve-shard``.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from pathlib import Path
from typing import Optional, Union

from repro.durable import records as rec
from repro.durable.checkpoint import (
    CheckpointStore,
    file_manifest,
    verify_file,
)
from repro.durable.fsync import atomic_write
from repro.durable.manager import DurabilityManager
from repro.durable.recovery import (
    RecordApplier,
    RecoveryManager,
    check_format_version,
    service_from_config,
)
from repro.durable.wal import FSYNC_POLICIES, WriteAheadLog, list_segments
from repro.net.transport import FrameServer
from repro.replication import protocol as rp
from repro.utils.logging import get_logger
from repro.utils.process import on_sigterm
from repro.workers import protocol as proto

_LOGGER = get_logger("replication.standby")


class StandbyError(RuntimeError):
    """The standby cannot serve or promote."""


class StandbyServer(FrameServer):
    """One warm standby process (or in-process thread, for tests).

    Parameters
    ----------
    directory:
        The standby's own durability directory.  If it already holds a
        replicated prefix (a restarted standby), it is recovered first
        and the replication cursor resumes after it.
    host / port:
        Listener bind address (port 0 picks a free one), bound once
        the directory is recovered.
    fsync:
        Commit policy of the standby's WAL generation.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        fsync: str = "batch",
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self._dir = Path(directory)
        self._fsync = fsync
        # One lock orders append/apply/read/promote: the stream applies
        # under it, reads snapshot under it, promote flips under it.
        self._apply_lock = threading.RLock()
        self._service = None
        self._applier: Optional[RecordApplier] = None
        self._wal: Optional[WriteAheadLog] = None
        self._promoted = False
        self._durability = None
        # LSN of a record whose apply failed and whose rebuild failed
        # too: the live state is then not the log's (see _rebuild).
        self._undefined_at: Optional[int] = None
        self.records_applied = 0
        self.groups_applied = 0
        self._fencing_epoch = 0
        # A read's version is this nonce and the campaign's read key: a
        # restart changes the first, re-registration and resync the
        # second, and a record that fails to apply draws a new nonce.
        self._nonce = os.urandom(8).hex()
        self.reads_full = 0
        self.reads_unchanged = 0
        self._bootstrap()
        super().__init__(host, port, self._serve_frame, name="repro-standby")

    # ------------------------------------------------------------------
    @property
    def fencing_epoch(self) -> int:
        """Highest promotion epoch this standby has accepted (durable)."""
        return self._fencing_epoch

    def _fence_path(self) -> Path:
        return self._dir / "FENCE"

    def _load_fencing_epoch(self) -> int:
        try:
            return int(self._fence_path().read_text("utf-8").strip())
        except (FileNotFoundError, ValueError):
            return 0

    def _persist_fencing_epoch(self, epoch: int) -> None:
        """Durably record an accepted epoch *before* acting on it.

        :func:`~repro.durable.fsync.atomic_write`, so a crash leaves
        either the old fence or the new one, never a torn file, and the
        rename survives power loss — the refusal of stale PROMOTEs must
        survive a standby restart.
        """
        atomic_write(self._fence_path(), f"{epoch}\n".encode())
        self._fencing_epoch = epoch

    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Recover any replicated prefix already on this disk."""
        self._dir.mkdir(parents=True, exist_ok=True)
        self._fencing_epoch = self._load_fencing_epoch()
        has_history = bool(list_segments(self._dir)) or (
            CheckpointStore(self._dir).read_latest() is not None
        )
        start_lsn = 1
        if has_history:
            start_lsn = self._recover() + 1
        self._wal = WriteAheadLog(
            self._dir, fsync=self._fsync, start_lsn=start_lsn
        )

    def _recover(self, *, repair: bool = True) -> int:
        """Replace the live service with one rebuilt from this standby's
        directory; returns the last LSN the directory holds."""
        recovered = RecoveryManager(self._dir).recover(repair=repair)
        self._service = recovered.service
        self._applier = RecordApplier(self._service)
        return recovered.report.last_lsn

    def _refusal(self) -> Optional[str]:
        """Why nothing may read or extend the live state, or None
        (``_apply_lock`` held)."""
        if self._undefined_at is None:
            return None
        return (
            f"record at lsn {self._undefined_at} failed to apply and "
            f"the rebuild from {self._dir} failed too; the live state "
            f"is not the log's until the standby restarts"
        )

    @property
    def durable_lsn(self) -> int:
        return self._wal.durable_lsn if self._wal is not None else 0

    @property
    def promoted(self) -> bool:
        return self._promoted

    @property
    def service(self):
        """The live replica service (None until a CONFIG arrives)."""
        return self._service

    @property
    def durability(self):
        """The promoted primary's manager (None before promotion)."""
        return self._durability

    # ------------------------------------------------------------------
    def start(self) -> int:
        """Serve on a background thread; returns the bound port."""
        super().start()
        return self.port

    def stop(self) -> None:
        """Stop serving and close the standby's WAL (idempotent) — which
        fsyncs the replication cursor, so a restart resumes exactly
        where this process stopped."""
        super().stop()
        with self._apply_lock:
            if self._wal is not None and not self._promoted:
                self._wal.close()
                self._wal = None

    # ------------------------------------------------------------------
    def _serve_frame(self, conn, rtype: int, payload: bytes) -> bool:
        try:
            return self._dispatch(conn, rtype, payload)
        except Exception as exc:
            # Tell the peer why before hanging up on it: the sender
            # logs this instead of a bare connection reset.
            _LOGGER.exception("standby connection failed")
            error = rp.encode_json({"error": str(exc)})
            conn.send_frame(rp.REPL_ERROR, error)
            return False

    def _dispatch(self, conn, rtype: int, payload: bytes) -> bool:
        """Handle one frame; returns False to end the connection."""
        if rtype == rp.HELLO:
            return self._on_hello(conn, payload)
        if rtype == rp.RECORDS:
            return self._on_records(conn, payload)
        if rtype == rp.CHECKPOINT:
            return self._on_checkpoint(conn, payload)
        if rtype == rp.READ_REQ:
            return self._on_read(conn, payload)
        if rtype == rp.STATUS_REQ:
            conn.send_frame(
                rp.STATUS_RESP, rp.encode_json(self.status())
            )
            return True
        if rtype == rp.PROMOTE_REQ:
            return self._on_promote(conn, payload)
        if rtype == rp.WD_PROMOTED:
            return self._on_fence_advance(conn, payload)
        if rtype == proto.PING:
            conn.send_frame(proto.PONG)
            return True
        if rtype == proto.SHUTDOWN:
            self.request_stop()
            return False
        conn.send_frame(
            rp.REPL_ERROR,
            rp.encode_json({"error": f"unexpected frame type {rtype}"}),
        )
        return False

    # ------------------------------------------------------------------
    def _on_hello(self, conn, payload: bytes) -> bool:
        body = rp.decode_json(payload)
        if body.get("format") != rp.REPLICATION_FORMAT:
            conn.send_frame(
                rp.REPL_ERROR,
                rp.encode_json(
                    {
                        "error": (
                            f"replication format {body.get('format')!r} "
                            f"refused: this standby speaks format "
                            f"{rp.REPLICATION_FORMAT}"
                        )
                    }
                ),
            )
            return False
        if self._promoted:
            conn.send_frame(
                rp.REPL_ERROR,
                rp.encode_json(
                    {"error": "standby was promoted; not accepting a stream"}
                ),
            )
            return False
        conn.send_frame(rp.CURSOR, rp.encode_lsn(self._wal.durable_lsn))
        return True

    def _on_records(self, conn, payload: bytes) -> bool:
        """Verify a RECORDS group whole, store its frames unchanged,
        commit, ack, then apply.  A refused group (see
        :func:`~repro.replication.protocol.verify_records`) stores and
        applies nothing and leaves the cursor where it was."""
        with self._apply_lock:
            error = self._refusal()
            if error is None and (self._promoted or self._wal is None):
                error = "standby no longer replicates"
            if error is not None:
                conn.send_frame(
                    rp.REPL_ERROR, rp.encode_json({"error": error})
                )
                return False
            frames = rp.verify_records(payload, self._wal.last_lsn)
            records = [frame.record for frame in frames]
            for record in records:
                if record.rtype == rec.CONFIG:
                    # A newer layout is refused before it is stored.
                    check_format_version(
                        record.decode(), f"CONFIG record {record.lsn}"
                    )
            self._wal.append_frames(frames)
            # Durable before acked: the sender's cursor must never run
            # ahead of what this disk can replay after a crash.
            self._wal.sync()
            conn.send_frame(
                rp.ACK, rp.encode_lsn(self._wal.durable_lsn)
            )
            for index, record in enumerate(records):
                try:
                    self._apply(record)
                except Exception:
                    # The rebuild replays the rest of the group too.
                    self._rebuild(record.lsn)
                    self.records_applied += len(records) - index
                    break
            if records:
                self.groups_applied += 1
        return True

    def _rebuild(self, lsn: int) -> None:
        """The record at ``lsn`` failed to apply, perhaps half-way, so
        the live state may be one the log does not define: rebuild it
        from this directory, which already holds every record acked
        (``_apply_lock`` held).  The failed record may have changed a
        campaign without moving its key, so no version handed out so
        far may hold: the nonce is redrawn.  When the rebuild raises
        too, :meth:`_refusal` refuses every later read, RECORDS group
        and promotion, and this group's sender is refused now."""
        _LOGGER.exception(
            "record at lsn %d failed to apply; rebuilding from %s",
            lsn, self._dir,
        )
        self._nonce = os.urandom(8).hex()
        try:
            # The log was just committed: nothing to repair, and the
            # open writer's segment must not be touched.
            self._recover(repair=False)
        except Exception as exc:
            self._undefined_at = lsn
            raise StandbyError(self._refusal()) from exc

    def _apply(self, record) -> None:
        if record.rtype == rec.CONFIG:
            if self._service is None:
                self._service = service_from_config(record.decode())
                self._applier = RecordApplier(self._service)
            self.records_applied += 1
            return
        if self._applier is None:
            raise StandbyError(
                f"record type {record.rtype} arrived before CONFIG"
            )
        self._applier.apply(record)
        self.records_applied += 1

    def _on_checkpoint(self, conn, payload: bytes) -> bool:
        """Full resync: the primary's retained log no longer reaches
        back to our cursor, so adopt a covering checkpoint instead.

        ``payload`` is a checkpoint file's bytes: its header, CRC, LSN
        and layout version are checked before anything here changes,
        and it is stored as it came.
        """
        lsn = verify_file(payload)
        check_format_version(
            file_manifest(payload), f"checkpoint at lsn {lsn}"
        )
        with self._apply_lock:
            if self._promoted or self._wal is None:
                raise StandbyError("standby no longer replicates")
            if lsn <= self._wal.durable_lsn:
                raise StandbyError(
                    f"checkpoint at lsn {lsn} does not pass the cursor "
                    f"{self._wal.durable_lsn}"
                )
            self._wal.close()
            # The checkpoint supersedes everything replicated so far,
            # but the fence never leaves the disk: a resync must not
            # reopen the door to stale PROMOTEs, not even until a crash.
            for entry in self._dir.iterdir():
                if entry.is_dir():
                    shutil.rmtree(entry)
                elif entry != self._fence_path():
                    entry.unlink()
            CheckpointStore(self._dir).write(lsn, payload)
            self._recover()
            self._wal = WriteAheadLog(
                self._dir, fsync=self._fsync, start_lsn=lsn + 1
            )
            conn.send_frame(rp.ACK, rp.encode_lsn(lsn))
        return True

    # ------------------------------------------------------------------
    def _on_read(self, conn, payload: bytes) -> bool:
        """Answer a ``READ_REQ``: empty when the reader's ``version``
        still holds, else the whole snapshot and its version.

        The version is a string: this process's nonce, then the
        campaign's :meth:`~repro.service.shard.CampaignState.read_key`,
        so records for other campaigns leave it standing; one that is
        missing or of another type never matches.  The reply is the
        state this standby's applied log defines: a read folds nothing
        the log did not, so it never sets the replica apart from its
        primary.  A promoted standby reads, and keys, as a primary does.
        """
        body = rp.decode_json(payload)
        campaign_id = body.get("campaign_id")
        with self._apply_lock:
            service = self._service
            error = self._refusal()
            if error is None and (
                service is None
                or type(campaign_id) is not str
                or not service.has_campaign(campaign_id)
            ):
                error = f"unknown campaign {campaign_id!r}"
            if error is not None:
                conn.send_frame(
                    rp.REPL_ERROR, rp.encode_json({"error": error})
                )
                return True
            state = service.campaign_state(campaign_id)
            asked = body.get("version")
            if self._promoted:
                # A promoted standby is a primary: its read folds, and
                # its own durability manager logs the fold as REFRESH.
                snapshot = service.snapshot(campaign_id)
            elif asked == self._version(state):
                snapshot = None
            else:
                snapshot = state.folded_snapshot()
            if snapshot is not None:
                # Taken after the build: a full refit's read refits, and
                # the reply must name the state it shows.
                version = self._version(state)
                if asked == version:
                    snapshot = None
            if snapshot is None:
                self.reads_unchanged += 1
            else:
                self.reads_full += 1
        if snapshot is None:
            conn.send_frame(rp.READ_RESP, b"")
            return True
        conn.send_frame(
            rp.READ_RESP,
            proto.pack_state(
                {
                    "campaign_id": snapshot.campaign_id,
                    "version": version,
                    "object_ids": list(snapshot.object_ids),
                    "truths": snapshot.truths,
                    "seen_objects": snapshot.seen_objects,
                    "weight_users": list(snapshot.contributor_ids),
                    "weight_values": snapshot.contributor_weights,
                    "claims_ingested": snapshot.claims_ingested,
                    "batches_ingested": snapshot.batches_ingested,
                    "pending_claims": snapshot.pending_claims,
                }
            ),
        )
        return True

    def _version(self, state) -> str:
        return ":".join(map(str, (self._nonce, *state.read_key())))

    def status(self) -> dict:
        """Watermarks, campaigns, and the spent-budget ledger."""
        with self._apply_lock:
            service = self._service
            ledger = None
            if service is not None and service.ledger is not None:
                ledger = {
                    "epsilon_cap": service.ledger.epsilon_cap,
                    "delta_cap": service.ledger.delta_cap,
                    "records": service.ledger.to_records(),
                }
            return {
                "directory": str(self._dir),
                "durable_lsn": self.durable_lsn,
                "records_applied": self.records_applied,
                "groups_applied": self.groups_applied,
                "reads_full": self.reads_full,
                "reads_unchanged": self.reads_unchanged,
                "promoted": self._promoted,
                "campaigns": (
                    [] if service is None else service.campaign_ids
                ),
                "ledger": ledger,
                "fencing_epoch": self._fencing_epoch,
            }

    def _on_fence_advance(self, conn, payload: bytes) -> bool:
        """A watchdog announced a promotion done *elsewhere*: adopt the
        winning fencing epoch without promoting, so a stale watchdog's
        late PROMOTE is refused on this standby too."""
        body = rp.decode_json(payload)
        epoch = int(body.get("fencing_epoch", 0) or 0)
        with self._apply_lock:
            if epoch > self._fencing_epoch:
                self._persist_fencing_epoch(epoch)
                _LOGGER.info(
                    "fence advanced to epoch %d (promotion elsewhere)",
                    epoch,
                )
        conn.send_frame(proto.PONG)
        return True

    def _on_promote(self, conn, payload: bytes) -> bool:
        epoch = None
        if payload:
            body = rp.decode_json(payload)
            if "epoch" in body and body["epoch"] is not None:
                epoch = int(body["epoch"])
        try:
            report = self.promote(epoch=epoch)
        except StandbyError as exc:
            conn.send_frame(
                rp.REPL_ERROR, rp.encode_json({"error": str(exc)})
            )
            return True
        conn.send_frame(rp.PROMOTE_RESP, rp.encode_json(report))
        return True

    def promote(self, *, epoch: Optional[int] = None) -> dict:
        """Become a fully-functional primary at the replicated watermark.

        The replication WAL handle closes and the replica service
        attaches a fresh :class:`~repro.durable.manager.
        DurabilityManager` continuing LSNs after the last replicated
        record: its CONFIG record, then a checkpoint of the replayed
        campaigns at that LSN — the ``attach_durability`` call crash
        recovery's resume makes, without re-reading the log.
        Subsequent replication streams are refused; reads keep working.
        Returns a small report dict.

        ``epoch`` is the caller's monotone fencing epoch.  The fence is
        checked *first* and persisted before any state flips: an epoch
        at or below the highest ever accepted here is refused, which is
        what makes a partitioned watchdog's late PROMOTE harmless.  A
        ``None`` epoch (manual ``repro promote``) fences at the next
        epoch automatically.
        """
        start = time.perf_counter()
        with self._apply_lock:
            if epoch is not None and epoch <= self._fencing_epoch:
                raise StandbyError(
                    f"stale fencing epoch {epoch}: this standby already "
                    f"accepted epoch {self._fencing_epoch}"
                )
            if self._promoted:
                raise StandbyError("standby is already promoted")
            error = self._refusal()
            if error is not None:
                raise StandbyError(error)
            if self._service is None or self._applier is None:
                raise StandbyError(
                    "nothing replicated yet; no service to promote"
                )
            self._persist_fencing_epoch(
                self._fencing_epoch + 1 if epoch is None else epoch
            )
            watermark = self._wal.durable_lsn
            self._wal.close()
            self._wal = None
            durability = DurabilityManager(
                self._dir, start_lsn=watermark + 1
            )
            self._service.attach_durability(durability)
            self._durability = durability
            self._promoted = True
        report = {
            "watermark_lsn": watermark,
            "records_applied": self.records_applied,
            "campaigns": self._service.campaign_ids,
            "fencing_epoch": self._fencing_epoch,
            "seconds": time.perf_counter() - start,
        }
        _LOGGER.info(
            "promoted standby %s at lsn %d (%d campaign(s))",
            self._dir,
            watermark,
            len(report["campaigns"]),
        )
        return report


def serve_standby(
    directory: Union[str, Path],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    fsync: str = "batch",
    announce=None,
) -> None:
    """Blocking entry point behind ``repro standby``.

    SIGTERM (the supervisor's polite stop, e.g. ``StandbyPool.close``
    or an operator's ``kill``) exits gracefully: the serve loop winds
    down and the standby's WAL is flushed and closed, fsyncing the
    replication cursor so the next start resumes from it.  Only
    installed when running on the main thread (tests drive
    :class:`StandbyServer` directly from worker threads).
    """
    server = StandbyServer(directory, host=host, port=port, fsync=fsync)
    try:
        with on_sigterm(server.request_stop):
            server.serve(announce=announce)
    finally:
        server.stop()
