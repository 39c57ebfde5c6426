"""The durability hook wiring the ingestion service to WAL + checkpoints.

:class:`DurabilityManager` is the single object the service layer talks
to.  The contract mirrors the ingest pipeline's own events:

* ``bind(service)`` — called once when a service attaches; records the
  service configuration and ledger caps so recovery can rebuild the
  same service from an empty directory, and checkpoints a service that
  already holds campaigns or spent budget (resume, promotion, a late
  attach);
* ``log_register`` / ``log_unregister`` — campaign lifecycle;
* ``log_batch`` — called by a shard for *every* micro-batch immediately
  before it reaches the aggregator; this is the write-ahead property:
  a batch is never aggregated without first being in the log buffer
  (and, under ``fsync="always"``, on disk);
* ``log_charge`` / ``log_charges`` — every admitted privacy-budget
  charge (one, or a bulk chunk's group in one step after
  ``check_charges``), so spent epsilon survives a restart.  A charge is
  recorded at admission and logged in order, no later than the first
  batch or commit point after it: one CHARGE record carries every
  charge admitted since the last, appended before the next BATCH
  record (so a batch that survives a crash never outlives the charges
  that admitted its claims), at
  ``after_pump``/``sync``/``compact``/``close``, and inside a
  checkpoint's ledger snapshot.  Under ``fsync="always"`` each charge
  is appended at admission.  Charges for claims that never became
  durable stay spent (the safe direction);
* ``after_pump`` — the group-commit point: syncs the log on the pump
  thread and triggers automatic checkpoints.

The manager keeps no record of its own of the campaigns it logs: a
checkpoint reads the bound service's live ``CampaignState`` (its
REGISTER body, user table, claim counters and aggregator).  One
subtraction makes those counters the log's.  Live counters advance as
claims reach a micro-batcher, so they include claims still buffered
there, whose batch is not logged yet; a checkpoint subtracts them (their
count, and a bincount of the batcher's buffered user slots), because
their batch, if it survives, appears later in the log and replays on
top.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.durable import records as rec
from repro.durable.checkpoint import CheckpointStore
from repro.durable.daemon import CompactionPolicy, CompactionTrigger
from repro.durable.wal import FSYNC_POLICIES, WriteAheadLog
from repro.privacy.ldp import LDPGuarantee
from repro.utils.logging import get_logger
from repro.utils.validation import ensure_int

_LOGGER = get_logger("durable.manager")

#: On-disk layout version stamped into CONFIG records and checkpoints.
#: v1: REGISTER records could store aggregator="auto" (recovery
#: re-applies the v1 auto rule for them).  v2: registrations persist
#: the resolved backend kind, so replay is independent of the
#: auto-selection rules in force at recovery time.  v3: a CHARGE record
#: carries a commit group's charges as columns (v2 bodies still
#: replay).  Recovery refuses a log or checkpoint above this version.
FORMAT_VERSION = 3


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning knobs of the durability subsystem.

    Parameters
    ----------
    directory:
        Where WAL segments and checkpoints live.
    fsync:
        ``"never"`` / ``"batch"`` / ``"always"`` — see
        :mod:`repro.durable.wal`.
    max_segment_bytes:
        WAL segment rotation threshold.
    checkpoint_every_claims:
        Automatic checkpoint cadence in logged claims (0 disables
        automatic checkpoints; call :meth:`DurabilityManager.checkpoint`
        manually).
    keep_checkpoints:
        Completed checkpoints retained on disk.
    compaction:
        A :class:`~repro.durable.daemon.CompactionPolicy` enabling
        policy-driven compaction: ``after_pump`` checks the directory's
        disk usage and segment age on the pump thread, at most once per
        ``check_interval_seconds``, and runs
        :meth:`DurabilityManager.compact` there when a threshold trips.
        None (the default) keeps compaction operator-driven.
    """

    directory: Union[str, Path]
    fsync: str = "batch"
    max_segment_bytes: int = 64 * 1024 * 1024
    checkpoint_every_claims: int = 0
    keep_checkpoints: int = 3
    compaction: Optional[CompactionPolicy] = None

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        ensure_int(self.max_segment_bytes, "max_segment_bytes", minimum=64)
        ensure_int(
            self.checkpoint_every_claims,
            "checkpoint_every_claims",
            minimum=0,
        )
        ensure_int(self.keep_checkpoints, "keep_checkpoints", minimum=1)


class DurabilityManager:
    """Write-ahead logging and checkpointing for one ingestion service.

    Parameters
    ----------
    config:
        A :class:`DurabilityConfig`, or a bare directory path to use
        the default policies.
    start_lsn:
        First LSN to assign; recovery passes ``last recovered LSN + 1``
        when resuming into an existing directory.
    """

    def __init__(
        self,
        config: Union[DurabilityConfig, str, Path],
        *,
        start_lsn: int = 1,
    ) -> None:
        if not isinstance(config, DurabilityConfig):
            config = DurabilityConfig(directory=config)
        self._config = config
        self._wal = WriteAheadLog(
            config.directory,
            fsync=config.fsync,
            max_segment_bytes=config.max_segment_bytes,
            start_lsn=start_lsn,
        )
        self._checkpoints = CheckpointStore(
            config.directory, keep=config.keep_checkpoints
        )
        self._service = None
        #: User-table length already written per campaign (USERS records).
        self._users_synced: dict[str, int] = {}
        #: Each campaign's BATCH encoder (:func:`rec.batch_encoder`),
        #: built from its state at its first logged batch.
        self._batch_encoders: dict = {}
        self._claims_since_checkpoint = 0
        #: Charges admitted since the last CHARGE record, in order:
        #: ``(user_id, epsilon, delta, label)``.
        self._pending_charges: list[tuple] = []
        # Guards the pending charges: the bound ledger's lock, which
        # admission already holds around log_charge.
        self._charge_lock = threading.RLock()
        self._replication = None
        self._compaction: Optional[CompactionTrigger] = None
        self.claims_logged = 0
        self.batches_logged = 0
        self.charges_logged = 0
        self.checkpoints_written = 0

    # ------------------------------------------------------------------
    @property
    def config(self) -> DurabilityConfig:
        return self._config

    @property
    def directory(self) -> Path:
        return self._wal.directory

    @property
    def last_lsn(self) -> int:
        return self._wal.last_lsn

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def checkpoints(self) -> CheckpointStore:
        return self._checkpoints

    # ------------------------------------------------------------------
    def bind(self, service) -> None:
        """Attach to an :class:`~repro.service.ingest.IngestService`.

        Writes a CONFIG record so a log replayed from scratch knows how
        to rebuild the service (shard count, batch size, ledger caps).
        A service that already holds campaigns or spent budget — a
        replayed one being resumed or promoted, or a volatile one
        attached late — is checkpointed right after, at the CONFIG
        record's LSN: its campaigns have no REGISTER record in this log,
        and the checkpoint is what makes them recoverable.
        """
        from dataclasses import asdict

        self._service = service
        ledger = service.ledger
        if ledger is not None:
            self._charge_lock = ledger.lock
        self._wal.append(
            rec.CONFIG,
            rec.encode_json_payload(
                {
                    "version": FORMAT_VERSION,
                    "service_config": asdict(service.config),
                    "ledger": (
                        None
                        if ledger is None
                        else {
                            "epsilon_cap": ledger.epsilon_cap,
                            "delta_cap": ledger.delta_cap,
                        }
                    ),
                }
            ),
        )
        if self._config.compaction is not None and self._compaction is None:
            # Compaction checkpoints first, which needs a bound service;
            # the policy's intervals start now, not at __init__.
            self._compaction = CompactionTrigger(
                self.directory, self._config.compaction
            )
        campaign_ids = service.campaign_ids
        self._users_synced = {
            campaign_id: len(service.campaign_state(campaign_id).user_table)
            for campaign_id in campaign_ids
        }
        if campaign_ids or (ledger is not None and ledger.num_users):
            self.checkpoint()

    # ------------------------------------------------------------------
    def log_register(self, spec: dict) -> int:
        """Persist a campaign registration; returns the record's LSN.

        The record is written (and synced) before any bookkeeping
        mutates: if the spec fails to encode, the caller aborts its
        registration and this manager must not be left tracking a
        campaign the service never created.
        """
        lsn = self._wal.append(rec.REGISTER, rec.encode_json_payload(spec))
        # Control-plane records are rare and must not sit in a buffer: a
        # crash must never replay claims into a campaign whose
        # registration (or removal) it forgot.
        self._wal.sync()
        campaign_id = spec["campaign_id"]
        self._users_synced[campaign_id] = len(spec.get("user_ids") or [])
        return lsn

    def log_unregister(self, campaign_id: str) -> int:
        lsn = self._wal.append(
            rec.UNREGISTER,
            rec.encode_json_payload({"campaign_id": campaign_id}),
        )
        self._wal.sync()
        self._users_synced.pop(campaign_id, None)
        self._batch_encoders.pop(campaign_id, None)
        return lsn

    def log_batch(self, state, batch) -> int:
        """Log one micro-batch about to be aggregated; returns its LSN.

        ``state`` is the owning
        :class:`~repro.service.shard.CampaignState`; new user-slot
        assignments since the last logged batch are written first (as a
        USERS record at a lower LSN), so any batch that survives a
        crash can name its contributors on replay.  Charges admitted
        since the last CHARGE record are logged before either, so the
        batch never outlives the charges that admitted its claims.
        """
        if self._pending_charges:
            self.log_pending_charges()
        campaign_id = state.campaign_id
        synced = self._users_synced.get(campaign_id, 0)
        # Read the length once and slice only up to it: producers may
        # append to the table while we log, and re-reading its length
        # after the slice would mark those late users synced without
        # ever writing them.  (The bounded slice also keeps this hot
        # path O(new users), not O(table).)
        table_len = len(state.user_table)
        if table_len > synced:
            self._wal.append(
                rec.USERS,
                rec.encode_json_payload(
                    {
                        "campaign_id": campaign_id,
                        "start": synced,
                        "user_ids": list(
                            state.user_table[synced:table_len]
                        ),
                    }
                ),
            )
            self._users_synced[campaign_id] = table_len
        try:
            encode = self._batch_encoders[campaign_id]
        except KeyError:
            encode = self._batch_encoders[campaign_id] = rec.batch_encoder(
                campaign_id, state.capacity, len(state.object_ids)
            )
        # Slots are bounded by the campaign's capacity and object
        # universe (validated at ingress), so the encoder's width holds
        # for every batch; the parts go to the log as buffers, written
        # directly.
        payload = encode(batch.users, batch.objects, batch.values)
        lsn = self._wal.append(rec.BATCH, payload)
        self.claims_logged += batch.size
        self.batches_logged += 1
        self._claims_since_checkpoint += batch.size
        return lsn

    def log_refresh(self, campaign_id: str) -> int:
        """Persist a read-forced refresh (its timing affects truths)."""
        return self._wal.append(
            rec.REFRESH,
            rec.encode_json_payload({"campaign_id": campaign_id}),
        )

    def check_user_id(self, user_id) -> None:
        """Raise :class:`~repro.durable.records.RecordError` unless a
        USERS record can carry ``user_id`` (admission runs it for a new
        user, before anything is reserved or charged)."""
        rec.check_json_value(user_id)

    def log_charge(
        self, user_id, guarantee: LDPGuarantee, *, label: str = ""
    ) -> None:
        """Record one admitted privacy-budget charge for the log.

        Called under the ledger lock.  A closed or failed log is refused
        here, at admission, with :class:`~repro.durable.wal.WalError`.
        Every value already passed a JSON encoding: the user id where it
        got its slot (:meth:`check_user_id`, or in a REGISTER record or
        a bind checkpoint), the label and cost in the campaign's
        REGISTER record.  The charge joins the next CHARGE record (see
        the module docstring); under ``fsync="always"`` that record is
        appended now.
        """
        epsilon, delta = guarantee.epsilon, guarantee.delta
        self._wal.check_append()
        self._pending_charges.append((user_id, epsilon, delta, label))
        self.charges_logged += 1
        if self._config.fsync == "always":
            self.log_pending_charges()

    def check_charges(self) -> None:
        """Raise :class:`~repro.durable.wal.WalError` unless the log can
        take a group of charges (it is open and has not failed).  Run
        under the ledger lock *before* the group is charged, so a group
        the log could not take is charged to no one."""
        self._wal.check_append()

    def log_charges(
        self, user_ids, epsilon: np.ndarray, delta: np.ndarray, label: str
    ) -> None:
        """Record a charged group (passed :meth:`check_charges`) in one
        step: user ``user_ids[i]`` charged ``(epsilon[i], delta[i])``.
        The entries are the ones :meth:`log_charge` would have staged
        one by one, so the CHARGE record's bytes are the same."""
        entries = zip(
            user_ids, epsilon.tolist(), delta.tolist(), repeat(label)
        )
        self.charges_logged += len(user_ids)
        if self._config.fsync != "always":
            self._pending_charges.extend(entries)
            return
        for entry in entries:  # one record per charge, as log_charge
            self._pending_charges.append(entry)
            self.log_pending_charges()

    def log_pending_charges(self) -> None:
        """Append the charges admitted since the last CHARGE record as
        one record, under the ledger lock (a no-op when there are
        none)."""
        with self._charge_lock:
            charges = self._pending_charges
            if charges:
                # Taken before the append: charges a failed log could
                # not take are not offered to it again.
                self._pending_charges = []
                self._wal.append(rec.CHARGE, rec.encode_charge_group(charges))

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Force the log to disk (up to the fsync policy); blocking."""
        self.log_pending_charges()
        self._wal.sync()

    @property
    def durable_lsn(self) -> int:
        """The WAL's durable-ack watermark (see :class:`WriteAheadLog`)."""
        return self._wal.durable_lsn

    def after_pump(self) -> None:
        """Group-commit point, called by the service after each pump:
        drains the pump's records to the log (the ``batch`` policy's
        group commit) before the pump acknowledges them."""
        self.log_pending_charges()
        self._wal.sync()
        if self._replication is not None:
            # Semi-sync back-pressure: under that mode the pump blocks
            # until at least one standby acked this pump's last LSN (a
            # no-op in async mode).
            self._replication.after_group_commit(self._wal.last_lsn)
        self.maybe_checkpoint()
        if self._compaction is not None:
            # Policy-triggered compaction runs here, on the pump thread
            # between batches — the one point where checkpointing cannot
            # race aggregation.
            reason = self._compaction.due(time.monotonic())
            if reason is not None:
                _LOGGER.info("policy-triggered compaction: %s", reason)
                report = self.compact()
                self._compaction.record_compaction(report, time.monotonic())

    def maybe_checkpoint(self) -> Optional[Path]:
        """Checkpoint when the automatic cadence says so."""
        every = self._config.checkpoint_every_claims
        if every > 0 and self._claims_since_checkpoint >= every:
            return self.checkpoint()
        return None

    def checkpoint(self) -> Path:
        """Snapshot the bound service's durable state; prune the log.

        The checkpoint covers every record up to the current last LSN:
        aggregator state is captured *after* those batches were
        aggregated (logging and aggregation are adjacent and
        synchronous), claim counters are the live ones minus what the
        micro-batchers still buffer (exactly the logged batches), and
        the ledger holds every charge logged so far.  Campaigns are
        written in ``campaign_ids`` order.  WAL segments fully below the
        checkpoint are deleted.
        """
        from dataclasses import asdict

        if self._service is None:
            raise RuntimeError(
                "no service bound; checkpoint() needs bind() first"
            )
        service = self._service
        ledger = service.ledger
        campaigns = []
        for campaign_id in service.campaign_ids:
            state = service.campaign_state(campaign_id)
            # Claims still in the micro-batcher are counted live but not
            # logged yet: their batch replays on top of this checkpoint.
            buffered = state.batcher.buffered_users
            campaigns.append(
                {
                    "spec": state.spec,
                    "user_table": list(state.user_table),
                    "claims_accepted": state.claims_accepted - buffered.size,
                    "claims_by_slot": state.claims_by_slot
                    - np.bincount(buffered, minlength=state.capacity),
                    "aggregator": state.aggregator.state_dict(),
                }
            )
        # The ledger snapshot and the covered log position are read
        # under the ledger lock — the same lock producers hold across
        # (admit + log_charge) — and the charges admitted since the
        # last CHARGE record are logged first, below the position: so
        # every charge is either in these records (LSN at or below the
        # position) or strictly after the position and replayed from
        # the suffix.  Never both, never neither.
        with self._charge_lock:
            self.log_pending_charges()
            ledger_state = None if ledger is None else {
                "epsilon_cap": ledger.epsilon_cap,
                "delta_cap": ledger.delta_cap,
                "records": ledger.to_records(),
            }
            lsn = self._wal.last_lsn
        # Frames at or below the captured position must be durable
        # before the checkpoint claims to cover them.
        self._wal.sync()
        payload = {
            "version": FORMAT_VERSION,
            "service_config": asdict(service.config),
            "ledger": ledger_state,
            "campaigns": campaigns,
        }
        path = self._checkpoints.save(lsn, payload)
        self._wal.retain(lsn)
        self._claims_since_checkpoint = 0
        self.checkpoints_written += 1
        _LOGGER.debug(
            "checkpoint at lsn %d covering %d campaign(s)",
            lsn,
            len(campaigns),
        )
        return path

    def compact(self, *, checkpoint_first: bool = True):
        """Rewrite the log down to live records; returns the report.

        A fresh checkpoint is written first by default, so the rewrite
        retires everything the service has already aggregated — the
        claim-granular replacement for segment retention.  Appends are
        blocked for the duration (the WAL holds its lock throughout);
        see :mod:`repro.durable.compaction` for the crash-safety
        protocol.
        """
        if checkpoint_first and self._service is not None:
            self.checkpoint()
        else:
            self.log_pending_charges()
        return self._wal.compact()

    def attach_replication(self, sender) -> None:
        """Wire a :class:`~repro.replication.sender.ReplicationSender`
        into the commit path: it hooks the WAL's post-fsync commit
        notifications and, under semi-sync, blocks :meth:`after_pump`
        on the standby ack watermark."""
        if self._replication is not None:
            raise RuntimeError("a replication sender is already attached")
        self._replication = sender
        sender.attach(self)

    @property
    def replication(self):
        """The attached replication sender (None when unreplicated)."""
        return self._replication

    @property
    def compaction_trigger(self) -> Optional[CompactionTrigger]:
        """The policy-driven compaction trigger ``after_pump`` consults
        (None unless configured, or before :meth:`bind`)."""
        return self._compaction

    def close(self) -> None:
        """Drain, flush, and close the log (the directory stays
        recoverable).  Idempotent — a sticky drain error is raised by
        the first close only (see
        :meth:`~repro.durable.wal.WriteAheadLog.close`)."""
        try:
            self.log_pending_charges()
        finally:
            if self._replication is not None:
                self._replication.close()
            self._wal.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
