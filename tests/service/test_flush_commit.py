"""``flush()`` is one group commit.

A flush used to commit twice: its ``pump()`` synced the pump's CHARGE
and BATCH records, then the shards' tail batches and REFRESH records
got a second sync.  It now pumps without the intermediate commit and
syncs once.  The log must not notice: for a scripted durable session
the directory holds the same bytes as under the two-commit flush
(frozen below as :func:`two_commit_flush`), with one ``fdatasync`` per
flush instead of two.  Automatic checkpoints are off here: one that
falls due at a flush is now written after the tail, covering it.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.durable.fsync as disk
from repro.crowdsensing.messages import ClaimSubmission
from repro.durable.manager import DurabilityConfig
from repro.privacy.ldp import LDPGuarantee
from repro.service import IngestService, ServiceConfig, Topology
from repro.service.ledger import BudgetLedger


def two_commit_flush(service) -> int:
    """``IngestService.flush`` before it became one group commit."""
    moved = service.pump()
    for shard in service._shards:
        shard.flush()
    if service._durability is not None:
        service._durability.after_pump()
        service._sample_wal_stats()
    return moved


@pytest.fixture
def fdatasyncs(monkeypatch):
    calls = []
    real = disk.datasync

    def record(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(disk, "datasync", record)
    return calls


def build(directory: Path) -> IngestService:
    return IngestService(
        ServiceConfig(num_shards=2, max_batch=8),
        ledger=BudgetLedger(epsilon_cap=1e6),
        topology=Topology.in_process(
            durability=DurabilityConfig(directory, fsync="batch")
        ),
    )


def session(service, flush) -> None:
    """Device submissions, costed chunks, pumps, reads and flushes on
    two campaigns with a cost, so flushes log CHARGE, BATCH and REFRESH
    records."""
    cost = LDPGuarantee(epsilon=0.5, delta=0.0)
    users = tuple(f"u{i}" for i in range(12))
    for campaign_id in ("a", "b"):
        service.register_campaign(
            campaign_id, ("o0", "o1", "o2"), max_users=12, cost=cost,
            user_ids=users, aggregator="streaming",
        )
    rng = np.random.default_rng(7)
    for step in range(6):
        for i in range(5):
            service.submit(ClaimSubmission(
                campaign_id="ab"[i % 2], user_id=users[(step + i) % 12],
                object_ids=("o0", "o2"), values=tuple(rng.normal(size=2)),
            ))
        service.submit_columns(
            "b", rng.integers(0, 12, 11), rng.integers(0, 3, 11),
            rng.normal(size=11),
        )
        if step % 2:
            service.pump()
        if step == 3:
            service.snapshot("a")
        flush(service)


def directory_bytes(directory: Path) -> dict:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def counting(flush, fdatasyncs, per_flush):
    """``flush``, recording the fdatasyncs each call made."""

    def counted(service):
        fdatasyncs.clear()
        moved = flush(service)
        per_flush.append(len(fdatasyncs))
        return moved

    return counted


def test_flush_logs_the_two_commit_bytes_in_one_commit(tmp_path, fdatasyncs):
    per_flush = {"two": [], "one": []}
    for name, flush in (
        ("two", two_commit_flush), ("one", IngestService.flush)
    ):
        with build(tmp_path / name) as service:
            session(service, counting(flush, fdatasyncs, per_flush[name]))
    assert directory_bytes(tmp_path / "one") == directory_bytes(
        tmp_path / "two"
    )
    # A flush right after a pump() had no pump records left to commit.
    assert per_flush == {"two": [2, 1] * 3, "one": [1] * 6}
