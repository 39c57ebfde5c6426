"""Crash recovery: rebuild an ingestion service from its durability dir.

:class:`RecoveryManager` performs the standard WAL recovery protocol:

1. load the newest readable checkpoint (unreadable ones are skipped);
2. rebuild the service — configuration, campaigns, user tables,
   aggregator state, privacy-budget ledger — from the checkpoint (or,
   with no checkpoint, from the log's CONFIG/REGISTER records);
3. replay the log suffix (records with LSN above the checkpoint's) in
   order: registrations, user-slot assignments, micro-batches straight
   into the campaign aggregators, and ledger charges;
4. truncate any torn tail left by the crash.

Replay feeds each logged batch through the same
``IncrementalAggregator.ingest`` call the live shard used, so the
recovered aggregation state is a pure function of the logged batch
sequence — bit-for-bit identical to a service that ingested exactly
those batches.  Claims that were accepted but still buffered in a
micro-batcher at crash time were never logged and are lost; their
budget charges, logged no later than the first batch or commit point
after admission, stay spent wherever that point became durable (the
privacy-safe direction).  The same applies one level down: records
staged in the log but never committed (beyond the durable-ack
watermark) are a lost *suffix* — everything at or below the watermark
replays.

Compacted logs (see :mod:`repro.durable.compaction`) recover through
the same protocol — an interrupted compaction swap is rolled forward
or back by ``read_wal`` before replay — with one extra guard: a
compacted log requires a checkpoint covering the records compaction
dropped, and recovery refuses (rather than silently rebuilding wrong
truths) when every such checkpoint is unreadable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.durable import records as rec
from repro.durable.checkpoint import Checkpoint, CheckpointStore
from repro.durable.manager import (
    FORMAT_VERSION,
    DurabilityConfig,
    DurabilityManager,
)
from repro.durable.wal import read_wal
from repro.privacy.ldp import LDPGuarantee
from repro.truthdiscovery.streaming import ClaimBatch
from repro.utils.logging import get_logger

_LOGGER = get_logger("durable.recovery")


class RecoveryError(RuntimeError):
    """The durability directory cannot be turned back into a service."""


def check_format_version(body: dict, source: str) -> None:
    """Raise :class:`RecoveryError` for a CONFIG record body or
    checkpoint payload written by a newer layout than this build's
    :data:`~repro.durable.manager.FORMAT_VERSION`: checked before
    replay, which would otherwise half-rebuild a service from records
    it cannot read."""
    version = body.get("version", 1)
    if version > FORMAT_VERSION:
        raise RecoveryError(
            f"{source} has layout version {version}; this build reads "
            f"versions up to {FORMAT_VERSION}"
        )


@dataclass
class RecoveryReport:
    """What one recovery pass did (for logs, tests, and the CLI).

    ``charges_replayed`` counts budget charges, not CHARGE records (a
    record carries a commit group's charges).
    """

    directory: str
    checkpoint_lsn: int = 0
    last_lsn: int = 0
    records_replayed: int = 0
    registers_replayed: int = 0
    batches_replayed: int = 0
    claims_replayed: int = 0
    charges_replayed: int = 0
    batches_skipped: int = 0
    truncated_bytes: int = 0
    campaigns: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def as_dict(self) -> dict:
        """JSON-friendly summary (CLI / benchmark output)."""
        return {
            "directory": self.directory,
            "checkpoint_lsn": self.checkpoint_lsn,
            "last_lsn": self.last_lsn,
            "records_replayed": self.records_replayed,
            "registers_replayed": self.registers_replayed,
            "batches_replayed": self.batches_replayed,
            "claims_replayed": self.claims_replayed,
            "charges_replayed": self.charges_replayed,
            "batches_skipped": self.batches_skipped,
            "truncated_bytes": self.truncated_bytes,
            "campaigns": list(self.campaigns),
            "seconds": self.seconds,
        }

    def summary(self) -> str:
        """One-paragraph human rendering."""
        return (
            f"recovered {len(self.campaigns)} campaign(s) from "
            f"{self.directory}: checkpoint at lsn {self.checkpoint_lsn}, "
            f"replayed {self.batches_replayed} batch(es) / "
            f"{self.claims_replayed} claim(s) / "
            f"{self.charges_replayed} charge(s) up to lsn {self.last_lsn}"
            + (
                f", truncated {self.truncated_bytes} torn byte(s)"
                if self.truncated_bytes
                else ""
            )
            + f" in {self.seconds * 1e3:.1f} ms"
        )


@dataclass
class RecoveredService:
    """A rebuilt service plus the recovery report (and optional logger)."""

    service: "IngestService"  # noqa: F821 - forward ref, see recover()
    report: RecoveryReport
    durability: Optional[DurabilityManager] = None


def _recorded_config(fields: dict):
    """The ``ServiceConfig`` a CONFIG record or checkpoint stored.

    Directories written before the service had one overflow rule also
    store ``"overflow"``; it is dropped, and replay is the same under
    either old policy, because only claims that reached a batcher were
    ever logged.
    """
    from repro.service.ingest import ServiceConfig

    return ServiceConfig(
        **{k: v for k, v in fields.items() if k != "overflow"}
    )


def service_from_config(body: dict, *, config=None, accountant=None):
    """The empty in-process service a CONFIG record body describes.

    Its ``ServiceConfig`` (unless ``config`` overrides the recorded
    one) and, when the primary ran a ledger, a fresh ledger with the
    same caps — what replay (:class:`RecordApplier`) starts from, in
    recovery, on a standby, and in the drills' independent arbiters.
    """
    from repro.service.ingest import IngestService
    from repro.service.ledger import BudgetLedger

    if config is None:
        config = _recorded_config(body["service_config"])
    caps = body.get("ledger")
    ledger = None
    if caps is not None:
        ledger = BudgetLedger(
            caps["epsilon_cap"],
            delta_cap=caps["delta_cap"],
            accountant=accountant,
        )
    return IngestService(config, ledger=ledger)


class RecordApplier:
    """Applies WAL records to a live service, one at a time.

    This is the single definition of replay semantics: crash recovery
    drives it over a full log scan, and a replication standby drives it
    continuously as records arrive off the wire — both produce state
    that is a pure function of the record sequence, which is what makes
    recovered and promoted truths bitwise-equal to the primary's.
    """

    def __init__(
        self, service, *, report: Optional[RecoveryReport] = None
    ) -> None:
        self.service = service
        self.report = (
            report
            if report is not None
            else RecoveryReport(directory="")
        )

    def apply(self, record: rec.WalRecord) -> None:
        """Apply one decoded record (CONFIG records are no-ops)."""
        service = self.service
        if record.rtype == rec.CONFIG:
            return
        self.report.records_replayed += 1
        if record.rtype == rec.REGISTER:
            register_from_spec(service, record.decode())
            self.report.registers_replayed += 1
        elif record.rtype == rec.UNREGISTER:
            campaign_id = record.decode()["campaign_id"]
            if service.has_campaign(campaign_id):
                service.unregister_campaign(campaign_id)
        elif record.rtype == rec.USERS:
            self._apply_users(record.decode())
        elif record.rtype == rec.REFRESH:
            campaign_id = record.decode()["campaign_id"]
            if service.has_campaign(campaign_id):
                state = service.campaign_state(campaign_id)
                state.aggregator.refresh()
        elif record.rtype == rec.BATCH:
            self._apply_batch(*rec.decode_batch(record.payload))
        elif record.rtype == rec.CHARGE:
            charges = rec.charge_entries(record.decode())
            ledger = service.ledger
            if ledger is not None:
                for user_id, epsilon, delta, _label in charges:
                    ledger.record_spent(
                        user_id, LDPGuarantee(epsilon=epsilon, delta=delta)
                    )
            self.report.charges_replayed += len(charges)

    def _apply_users(self, body: dict) -> None:
        service = self.service
        campaign_id = body["campaign_id"]
        if not service.has_campaign(campaign_id):
            return
        state = service.campaign_state(campaign_id)
        for offset, user_id in enumerate(body["user_ids"]):
            slot = int(body["start"]) + offset
            if slot < len(state.user_table):
                # The checkpointed user table already covers this slot
                # (it is captured live and may run ahead of the log).
                continue
            if slot != len(state.user_table):
                raise RecoveryError(
                    f"user-table gap for {campaign_id!r}: record starts at "
                    f"slot {slot}, table has {len(state.user_table)}"
                )
            state.user_table.append(user_id)
            state.user_index[user_id] = slot

    def _apply_batch(self, campaign_id: str, batch: ClaimBatch) -> None:
        service = self.service
        if not service.has_campaign(campaign_id):
            # A batch for a campaign the log never registered (or that
            # a later checkpoint no longer knows): nothing to feed.
            self.report.batches_skipped += 1
            _LOGGER.warning(
                "skipping logged batch for unknown campaign %r",
                campaign_id,
            )
            return
        state = service.campaign_state(campaign_id)
        top_slot = int(batch.users.max())
        if top_slot >= state.capacity:
            raise RecoveryError(
                f"logged batch for {campaign_id!r} references slot "
                f"{top_slot} beyond capacity {state.capacity}"
            )
        # Belt and braces: a USERS record always precedes its batch in
        # the log, but placeholder ids keep replay total if one is lost.
        state.ensure_placeholder_slots(top_slot)
        state.aggregator.ingest(batch)
        state.claims_accepted += batch.size
        state.claims_by_slot += np.bincount(
            batch.users, minlength=state.capacity
        )
        self.report.batches_replayed += 1
        self.report.claims_replayed += batch.size


class RecoveryManager:
    """Rebuilds :class:`~repro.service.ingest.IngestService` state.

    Parameters
    ----------
    directory:
        The durability directory a :class:`DurabilityManager` wrote.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self._dir = Path(directory)

    # ------------------------------------------------------------------
    def recover(
        self,
        *,
        config=None,
        accountant=None,
        resume: bool = False,
        durability_config: Optional[DurabilityConfig] = None,
        repair: bool = True,
    ) -> RecoveredService:
        """Run the full recovery protocol; returns the rebuilt service.

        Parameters
        ----------
        config:
            Optional :class:`~repro.service.ingest.ServiceConfig`
            override; by default the persisted configuration is used.
        accountant:
            Optional audit accountant to wire into the recovered
            ledger (event history is not persisted, only totals).
        resume:
            When true, attach a fresh :class:`DurabilityManager` to the
            recovered service, continuing LSNs after the recovered
            tail; attaching to a service that holds campaigns writes a
            checkpoint, so old segments can be retired.
        durability_config:
            Policies for the resumed manager (defaults to this
            directory with default policies).  Ignored unless
            ``resume``.
        repair:
            Truncate a torn WAL tail in place (disable for read-only
            inspection of a damaged directory).
        """
        start = time.perf_counter()
        if not self._dir.is_dir():
            raise RecoveryError(f"no durability directory at {self._dir}")
        checkpoint = CheckpointStore(self._dir).load_latest()
        after_lsn = checkpoint.lsn if checkpoint is not None else 0
        scan = read_wal(self._dir, after_lsn=after_lsn, repair=repair)
        if scan.compaction_lsn > after_lsn:
            # Compaction dropped records at or below its checkpoint LSN
            # on the promise that a checkpoint covering them exists.
            # Without one, replaying the compacted log would silently
            # rebuild wrong truths (the dropped batches are gone).
            raise RecoveryError(
                f"log was compacted against a checkpoint at lsn "
                f"{scan.compaction_lsn} but the newest readable "
                f"checkpoint covers only lsn {after_lsn}; the records "
                f"compaction dropped cannot be replayed"
            )
        if scan.retired_gap_end > after_lsn:
            # Same promise, made by segment retention after a
            # compaction: the pruned post-compaction segments were
            # covered by a checkpoint when retain() dropped them.
            raise RecoveryError(
                f"segment retention pruned records up to lsn "
                f"{scan.retired_gap_end} but the newest readable "
                f"checkpoint covers only lsn {after_lsn}; the retired "
                f"records cannot be replayed"
            )
        if scan.first_lsn > after_lsn + 1:
            # The log's oldest surviving record sits beyond what the
            # checkpoint covers: records in between are gone (e.g. the
            # newest checkpoint was lost after retention already pruned
            # the segments it covered).  Replaying past the gap would
            # silently drop claims and budget charges.
            raise RecoveryError(
                f"log gap: checkpoint covers up to lsn {after_lsn} but "
                f"the oldest surviving record is lsn {scan.first_lsn}; "
                f"records in between are lost"
            )
        if checkpoint is not None:
            check_format_version(
                checkpoint.payload, f"checkpoint at lsn {checkpoint.lsn}"
            )
        for record in scan.records:
            if record.rtype == rec.CONFIG:
                check_format_version(
                    record.decode(), f"CONFIG record {record.lsn}"
                )
        report = RecoveryReport(
            directory=str(self._dir),
            checkpoint_lsn=after_lsn,
            last_lsn=max(scan.last_lsn, after_lsn),
            truncated_bytes=scan.truncated_bytes,
        )

        service = self._bootstrap(checkpoint, scan, config, accountant)
        if checkpoint is not None:
            self._restore_checkpoint(service, checkpoint)
        applier = RecordApplier(service, report=report)
        for record in scan.records:
            applier.apply(record)
        report.campaigns = service.campaign_ids
        report.seconds = time.perf_counter() - start
        _LOGGER.info("%s", report.summary())

        durability = None
        if resume:
            durability = DurabilityManager(
                durability_config or self._dir,
                start_lsn=report.last_lsn + 1,
            )
            service.attach_durability(durability)
        return RecoveredService(
            service=service, report=report, durability=durability
        )

    # ------------------------------------------------------------------
    def _bootstrap(self, checkpoint, scan, config, accountant):
        """The empty service replay fills: persisted configuration
        (unless ``config`` overrides it) and ledger, from the
        checkpoint or else the log's CONFIG record."""
        from repro.service.ingest import IngestService
        from repro.service.ledger import BudgetLedger

        if checkpoint is not None:
            payload = checkpoint.payload
            if config is None:
                config = _recorded_config(payload["service_config"])
            ledger_state = payload.get("ledger")
            ledger = None
            if ledger_state is not None:
                ledger = BudgetLedger.from_records(
                    ledger_state["records"],
                    epsilon_cap=ledger_state["epsilon_cap"],
                    delta_cap=ledger_state["delta_cap"],
                    accountant=accountant,
                )
            return IngestService(config, ledger=ledger)
        for record in scan.records:
            if record.rtype == rec.CONFIG:
                return service_from_config(
                    record.decode(), config=config, accountant=accountant
                )
        return IngestService(config)

    def _restore_checkpoint(self, service, checkpoint: Checkpoint) -> None:
        for entry in checkpoint.payload.get("campaigns", []):
            spec = entry["spec"]
            campaign_id = spec["campaign_id"]
            register_from_spec(service, spec)
            state = service.campaign_state(campaign_id)
            user_table = list(entry["user_table"])
            if len(user_table) > state.capacity:
                raise RecoveryError(
                    f"checkpointed user table for {campaign_id!r} exceeds "
                    f"capacity {state.capacity}"
                )
            state.user_table = user_table
            state.user_index = {u: i for i, u in enumerate(user_table)}
            by_slot = np.asarray(
                entry["claims_by_slot"], dtype=np.int64
            ).copy()
            if by_slot.shape != (state.capacity,):
                raise RecoveryError(
                    f"checkpointed claim counters for {campaign_id!r} have "
                    f"shape {by_slot.shape}, expected ({state.capacity},)"
                )
            state.claims_by_slot = by_slot
            state.claims_accepted = int(entry["claims_accepted"])
            state.aggregator.load_state(entry["aggregator"])


def register_from_spec(service, spec: dict) -> None:
    """Re-register a campaign from its persisted REGISTER spec.

    The campaign keeps ``spec`` verbatim as its record (a format-v1
    ``"auto"`` body included), so the next checkpoint stores exactly
    the body this one was replayed from.
    """
    cost = spec.get("cost")
    if service.has_campaign(spec["campaign_id"]):
        raise RecoveryError(
            f"duplicate registration for {spec['campaign_id']!r} in log"
        )
    from repro.service.aggregator import _streaming_unsupported_kwargs

    method = spec.get("method", "crh")
    aggregator = spec.get("aggregator", "auto")
    method_kwargs = dict(spec.get("method_kwargs") or {})
    if aggregator == "auto":
        # Format-v1 logs stored the unresolved kind; since then the
        # auto rule changed (GTM/CATD now stream at scale) and
        # registration persists the resolved kind instead.  Replay
        # must rebuild the backend the live v1 service actually ran
        # — the checkpointed aggregator state and the logged-batch
        # semantics both depend on it — so re-apply the v1 rule
        # here: stream only large plain-CRH campaigns (v1 never
        # considered method kwargs).
        config = service.config
        cells = int(spec["max_users"]) * len(spec["object_ids"])
        if config.decay < 1.0:
            aggregator = "streaming"
        elif cells <= config.full_refit_max_cells or method != "crh":
            aggregator = "full"
        else:
            aggregator = "streaming"
    if aggregator == "streaming":
        # v1 never forwarded method kwargs into its streaming
        # backend, so v1 logs can pair a streaming campaign with
        # batch-only knobs; drop what the estimator cannot accept,
        # exactly as the v1 construction did.  v2 registrations
        # validated this up front and carry nothing unsupported.
        for key in _streaming_unsupported_kwargs(method, method_kwargs):
            method_kwargs.pop(key)
    service.register_campaign(
        spec["campaign_id"],
        list(spec["object_ids"]),
        max_users=int(spec["max_users"]),
        user_ids=spec.get("user_ids") or None,
        method=method,
        aggregator=aggregator,
        cost=(
            None
            if cost is None
            else LDPGuarantee(
                epsilon=cost["epsilon"], delta=cost["delta"]
            )
        ),
        **method_kwargs,
    )
    service.campaign_state(spec["campaign_id"]).spec = spec
