"""Claim-granular WAL compaction: rewrite live records, swap atomically.

Segment-level retention (:meth:`~repro.durable.wal.WriteAheadLog.retain`)
can only retire *whole* segments fully covered by a checkpoint — a
single live record parks megabytes of dead batches on disk.  Compaction
is record-granular: it rewrites the log keeping only

* every record **above** the checkpoint LSN (the replay suffix, kept
  verbatim — recovery must replay exactly what the live service saw);
* the latest CONFIG record, and the latest REGISTER plus subsequent
  USERS records of every campaign still registered at the checkpoint
  (cheap JSON; they make the directory self-describing even if every
  checkpoint is later lost);
* every CHARGE record (privacy budget spent on released data must stay
  spent, checkpoint or no checkpoint — the safe direction).

Batches, refreshes, unregistrations, and superseded control records at
or below the checkpoint LSN are dropped: their effects live in the
checkpoint.  Disk usage is therefore bounded by live state, not by
segment boundaries.

Crash safety — the swap protocol
--------------------------------

The rewrite lands in ``compact.tmp/`` (new segments first, each
fsynced, then ``MANIFEST.json``, then the directory fsync — the
manifest is the commit point), and is swapped in by
:func:`~repro.durable.wal._commit_compaction`: the previous
``compacted/`` generation is renamed aside, the temp generation is
renamed into place, the parent directory is fsynced, and the retired
top-level segments plus the old generation are deleted.
:func:`~repro.durable.wal.repair_compaction` — run automatically by
``read_wal`` and the ``WriteAheadLog`` constructor — rolls a crash at
*any* point forward (temp manifest complete) or back (it is not), so a
torn mid-compaction crash always recovers to a consistent log and
bitwise-identical truths.

Because compacted records keep their original LSNs, the rewritten log
has legitimate gaps at or below the manifest's ``checkpoint_lsn``;
``read_wal`` relaxes its contiguity check exactly that far, and
:class:`~repro.durable.recovery.RecoveryManager` refuses to rebuild
from a compacted log whose required checkpoint is unreadable (replaying
past the dropped records would silently produce wrong truths).

``fault=`` injects a crash at a named point (``"before-manifest"``,
``"before-commit"``, ``"after-old-rename"``, ``"after-rename"``) by
raising :class:`CompactionInterrupted`; tests use it to prove torn
compactions recover bitwise.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.durable import records as rec
from repro.durable.checkpoint import CheckpointStore
from repro.durable.wal import (
    COMPACT_DIRNAME,
    COMPACT_MANIFEST,
    COMPACT_TMP_DIRNAME,
    SEGMENT_MAGIC,
    SEGMENT_PREFIX,
    SEGMENT_SUFFIX,
    WalError,
    WalRecord,
    _commit_compaction,
    _frame_header,
    _fsync_dir,
    list_segments,
    read_wal,
    repair_compaction,
)
from repro.utils.logging import get_logger

_LOGGER = get_logger("durable.compaction")

#: Injectable crash points, in protocol order (see the module docstring).
FAULT_POINTS = (
    "before-manifest",
    "before-commit",
    "after-old-rename",
    "after-rename",
)

_RTYPE_NAMES = {
    rec.CONFIG: "config",
    rec.REGISTER: "register",
    rec.UNREGISTER: "unregister",
    rec.USERS: "users",
    rec.BATCH: "batch",
    rec.CHARGE: "charge",
    rec.REFRESH: "refresh",
}


class CompactionInterrupted(WalError):
    """Injected crash at a fault point (testing the swap protocol)."""


@dataclass
class CompactionReport:
    """What one compaction pass did (for logs, tests, and the CLI)."""

    directory: str
    checkpoint_lsn: int = 0
    last_lsn: int = 0
    records_before: int = 0
    records_after: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    segments_before: int = 0
    segments_after: int = 0
    dropped_by_type: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def records_dropped(self) -> int:
        return self.records_before - self.records_after

    @property
    def bytes_reclaimed(self) -> int:
        return self.bytes_before - self.bytes_after

    def as_dict(self) -> dict:
        """JSON-friendly summary (CLI / benchmark output)."""
        return {
            "directory": self.directory,
            "checkpoint_lsn": self.checkpoint_lsn,
            "last_lsn": self.last_lsn,
            "records_before": self.records_before,
            "records_after": self.records_after,
            "records_dropped": self.records_dropped,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "bytes_reclaimed": self.bytes_reclaimed,
            "segments_before": self.segments_before,
            "segments_after": self.segments_after,
            "dropped_by_type": dict(self.dropped_by_type),
            "seconds": self.seconds,
        }

    def summary(self) -> str:
        """One-paragraph human rendering."""
        return (
            f"compacted {self.directory} at checkpoint lsn "
            f"{self.checkpoint_lsn}: {self.records_before} -> "
            f"{self.records_after} record(s), {self.bytes_before:,} -> "
            f"{self.bytes_after:,} byte(s) "
            f"({self.bytes_reclaimed:,} reclaimed) in "
            f"{self.seconds * 1e3:.1f} ms"
        )


def _select_live(
    records: list[WalRecord], floor: int
) -> tuple[list[WalRecord], dict]:
    """Partition a full scan into live records and drop counts.

    ``floor`` is the checkpoint LSN the rewrite assumes: everything
    above it is live verbatim; below it only the latest CONFIG, the
    registration lineage of still-registered campaigns, and all
    charges survive.
    """
    latest_config_lsn = 0
    latest_register: dict[str, int] = {}
    for record in records:
        if record.lsn > floor:
            break
        if record.rtype == rec.CONFIG:
            latest_config_lsn = record.lsn
        elif record.rtype == rec.REGISTER:
            campaign_id = record.decode()["campaign_id"]
            latest_register[campaign_id] = record.lsn
        elif record.rtype == rec.UNREGISTER:
            # The campaign's whole lineage at or below the floor is
            # dead (a later re-registration starts a fresh lineage).
            latest_register.pop(record.decode()["campaign_id"], None)
    live: list[WalRecord] = []
    dropped: dict[str, int] = {}
    for record in records:
        if record.lsn > floor:
            live.append(record)
            continue
        keep = False
        if record.rtype == rec.CONFIG:
            keep = record.lsn == latest_config_lsn
        elif record.rtype == rec.CHARGE:
            keep = True
        elif record.rtype == rec.REGISTER:
            campaign_id = record.decode()["campaign_id"]
            keep = latest_register.get(campaign_id) == record.lsn
        elif record.rtype == rec.USERS:
            campaign_id = record.decode()["campaign_id"]
            keep = (
                campaign_id in latest_register
                and record.lsn > latest_register[campaign_id]
            )
        # BATCH / REFRESH / UNREGISTER at or below the floor: dead —
        # their effects are inside the checkpoint.
        if keep:
            live.append(record)
        else:
            name = _RTYPE_NAMES.get(record.rtype, str(record.rtype))
            dropped[name] = dropped.get(name, 0) + 1
    return live, dropped


def _encode_frame(record: WalRecord) -> bytes:
    """Re-encode a scanned record into its exact on-disk frame bytes."""
    payload = record.payload
    header = _frame_header(record.rtype, record.lsn, (payload,), len(payload))
    return header + payload


def _close_synced(fh) -> None:
    fh.flush()
    os.fsync(fh.fileno())
    fh.close()


def compact_directory(
    directory: Union[str, Path],
    *,
    checkpoint_lsn: Optional[int] = None,
    max_segment_bytes: int = 64 * 1024 * 1024,
    fault: Optional[str] = None,
) -> CompactionReport:
    """Rewrite a durability directory down to its live records.

    Must not race a live writer — either quiesce the service first or
    go through :meth:`~repro.durable.wal.WriteAheadLog.compact` /
    :meth:`~repro.durable.manager.DurabilityManager.compact`, which
    block appends for the duration.

    Parameters
    ----------
    directory:
        The durability directory (WAL segments + checkpoints).
    checkpoint_lsn:
        Checkpoint the rewrite assumes.  Defaults to the newest
        readable checkpoint; an explicit value above what any readable
        checkpoint covers is refused (the result would be
        unrecoverable).
    max_segment_bytes:
        Rotation threshold for the rewritten segments.
    fault:
        Test-only injected crash point (see :data:`FAULT_POINTS`).
    """
    start = time.perf_counter()
    directory = Path(directory)
    if not directory.is_dir():
        raise WalError(f"no WAL directory at {directory}")
    if fault is not None and fault not in FAULT_POINTS:
        raise ValueError(
            f"fault must be one of {FAULT_POINTS}, got {fault!r}"
        )

    def maybe_crash(point: str) -> None:
        if fault == point:
            raise CompactionInterrupted(f"injected crash at {point!r}")

    repair_compaction(directory)
    newest = CheckpointStore(directory).load_latest()
    covered = newest.lsn if newest is not None else 0
    if checkpoint_lsn is None:
        checkpoint_lsn = covered
    elif checkpoint_lsn > covered:
        raise WalError(
            f"cannot compact against checkpoint lsn {checkpoint_lsn}: "
            f"the newest readable checkpoint covers only lsn {covered}"
        )
    scan = read_wal(directory, repair=True)
    comp_dir = directory / COMPACT_DIRNAME
    before_segments = list_segments(directory) + list_segments(comp_dir)
    report = CompactionReport(
        directory=str(directory),
        checkpoint_lsn=int(checkpoint_lsn),
        last_lsn=scan.last_lsn,
        records_before=len(scan.records),
        bytes_before=sum(p.stat().st_size for p in before_segments),
        segments_before=len(before_segments),
    )
    if scan.last_lsn == 0:
        # Never held a record: nothing to rewrite.
        report.seconds = time.perf_counter() - start
        return report

    live, dropped = _select_live(scan.records, checkpoint_lsn)
    report.dropped_by_type = dropped
    report.records_after = len(live)

    tmp = directory / COMPACT_TMP_DIRNAME
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    segment_names: list[str] = []
    fh = None
    segment_bytes = 0
    for record in live:
        frame = _encode_frame(record)
        if (
            fh is not None
            and segment_bytes + len(frame) > max_segment_bytes
            and segment_bytes > len(SEGMENT_MAGIC)
        ):
            _close_synced(fh)
            fh = None
        if fh is None:
            name = f"{SEGMENT_PREFIX}{record.lsn:020d}{SEGMENT_SUFFIX}"
            segment_names.append(name)
            fh = open(tmp / name, "wb")
            fh.write(SEGMENT_MAGIC)
            segment_bytes = len(SEGMENT_MAGIC)
        fh.write(frame)
        segment_bytes += len(frame)
    if fh is not None:
        _close_synced(fh)
    maybe_crash("before-manifest")
    manifest = {
        "format": 1,
        "checkpoint_lsn": int(checkpoint_lsn),
        "last_lsn": int(scan.last_lsn),
        "segments": segment_names,
        "retired": [p.name for p in list_segments(directory)],
    }
    with open(tmp / COMPACT_MANIFEST, "w", encoding="utf-8") as mfh:
        json.dump(manifest, mfh, sort_keys=True)
        mfh.flush()
        os.fsync(mfh.fileno())
    _fsync_dir(tmp)
    maybe_crash("before-commit")
    _commit_compaction(directory, crash=maybe_crash)

    report.bytes_after = sum(
        (comp_dir / name).stat().st_size for name in segment_names
    )
    report.segments_after = len(segment_names)
    report.seconds = time.perf_counter() - start
    _LOGGER.info("%s", report.summary())
    return report
