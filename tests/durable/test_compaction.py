"""Claim-granular compaction: shrink, atomic swap, torn-crash recovery."""

import shutil

import numpy as np
import pytest

from repro.durable import records as rec
from repro.durable.checkpoint import CheckpointStore
from repro.durable.compaction import (
    FAULT_POINTS,
    CompactionInterrupted,
    compact_directory,
)
from repro.durable.manager import DurabilityConfig, DurabilityManager
from repro.durable.recovery import RecoveryError, RecoveryManager
from repro.durable.wal import (
    COMPACT_DIRNAME,
    WalError,
    WriteAheadLog,
    list_segments,
    load_compaction_manifest,
    read_wal,
)
from repro.privacy.ldp import LDPGuarantee
from repro.service import (
    BudgetLedger,
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)


def build_durable_run(
    directory,
    *,
    claims=24_000,
    checkpoint_every=8_000,
    cost=None,
):
    """Stream a deterministic campaign through a WAL-attached service."""
    manager = DurabilityManager(
        DurabilityConfig(
            directory=directory,
            fsync="batch",
            checkpoint_every_claims=checkpoint_every,
        )
    )
    ledger = BudgetLedger(epsilon_cap=1e6) if cost is not None else None
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=512),
        ledger=ledger,
        topology=Topology.in_process(durability=manager),
    )
    gen = LoadGenerator(
        "compact-camp", num_users=60, num_objects=20, random_state=7
    )
    service.register_campaign(
        gen.campaign_id,
        gen.object_ids,
        max_users=gen.num_users,
        user_ids=gen.user_ids,
        cost=cost,
    )
    for chunk in gen.column_chunks(claims, chunk_size=512):
        service.submit_columns(
            chunk.campaign_id,
            chunk.user_slots,
            chunk.object_slots,
            chunk.values,
        )
        service.pump()
    service.flush()
    live = service.snapshot(gen.campaign_id)
    manager.checkpoint()
    manager.close()
    return live, gen, service


class TestCompactionShrinks:
    def test_bytes_and_records_shrink_and_recovery_is_bitwise(
        self, tmp_path
    ):
        live, gen, _ = build_durable_run(tmp_path)
        before = read_wal(tmp_path)
        report = compact_directory(tmp_path)
        assert report.records_after < report.records_before
        assert report.bytes_after < report.bytes_before
        assert report.records_before == len(before.records)
        after = read_wal(tmp_path)
        assert len(after.records) == report.records_after
        assert after.compaction_lsn == report.checkpoint_lsn
        recovered = RecoveryManager(tmp_path).recover()
        snap = recovered.service.snapshot(gen.campaign_id)
        assert np.array_equal(live.truths, snap.truths)
        assert live.weights_by_user == snap.weights_by_user

    def test_charges_survive_compaction(self, tmp_path):
        cost = LDPGuarantee(epsilon=0.01, delta=0.0)
        live, gen, service = build_durable_run(tmp_path, cost=cost)
        spent_before = service.ledger.spent(gen.user_ids[0])
        compact_directory(tmp_path)
        charges = [
            r
            for r in read_wal(tmp_path).records
            if r.rtype == rec.CHARGE
        ]
        assert charges, "compaction dropped the budget charges"
        recovered = RecoveryManager(tmp_path).recover()
        assert (
            recovered.service.ledger.spent(gen.user_ids[0])
            == spent_before
        )

    def test_compact_again_after_more_traffic(self, tmp_path):
        live, gen, _ = build_durable_run(tmp_path)
        compact_directory(tmp_path)
        recovered = RecoveryManager(tmp_path).recover(resume=True)
        service = recovered.service
        for chunk in gen.column_chunks(4_000, chunk_size=512):
            service.submit_columns(
                chunk.campaign_id,
                chunk.user_slots,
                chunk.object_slots,
                chunk.values,
            )
            service.pump()
        service.flush()
        live2 = service.snapshot(gen.campaign_id)
        recovered.durability.checkpoint()
        report = recovered.durability.compact(checkpoint_first=False)
        recovered.durability.close()
        assert report.records_after < report.records_before
        snap = RecoveryManager(tmp_path).recover().service.snapshot(
            gen.campaign_id
        )
        assert np.array_equal(live2.truths, snap.truths)

    def test_live_manager_compact_then_keep_serving(self, tmp_path):
        manager = DurabilityManager(
            DurabilityConfig(directory=tmp_path, fsync="batch")
        )
        service = IngestService(
            ServiceConfig(num_shards=2, max_batch=512),
            topology=Topology.in_process(durability=manager),
        )
        gen = LoadGenerator(
            "live-compact", num_users=40, num_objects=16, random_state=3
        )
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=gen.num_users,
            user_ids=gen.user_ids,
        )
        chunks = list(gen.column_chunks(16_000, chunk_size=512))
        for chunk in chunks[:16]:
            service.submit_columns(
                chunk.campaign_id,
                chunk.user_slots,
                chunk.object_slots,
                chunk.values,
            )
            service.pump()
        report = manager.compact()  # checkpoints first, then rewrites
        assert report.records_after < report.records_before
        for chunk in chunks[16:]:
            service.submit_columns(
                chunk.campaign_id,
                chunk.user_slots,
                chunk.object_slots,
                chunk.values,
            )
            service.pump()
        service.flush()
        live = service.snapshot(gen.campaign_id)
        manager.close()
        snap = RecoveryManager(tmp_path).recover().service.snapshot(
            gen.campaign_id
        )
        assert np.array_equal(live.truths, snap.truths)

    def test_empty_directory_is_a_noop(self, tmp_path):
        (tmp_path / "nothing").mkdir()
        report = compact_directory(tmp_path / "nothing")
        assert report.records_before == 0
        assert report.records_after == 0
        assert not (tmp_path / "nothing" / COMPACT_DIRNAME).exists()


class TestTornCompaction:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("torn-ref")
        live, gen, _ = build_durable_run(base)
        return base, live, gen

    @pytest.mark.parametrize("fault", FAULT_POINTS)
    def test_crash_at_fault_point_recovers_bitwise(
        self, tmp_path, reference, fault
    ):
        base, live, gen = reference
        work = tmp_path / "work"
        shutil.copytree(base, work)
        if fault == "after-old-rename":
            # That fault point only exists once a previous compacted
            # generation is being replaced.
            compact_directory(work)
        with pytest.raises(CompactionInterrupted):
            compact_directory(work, fault=fault)
        recovered = RecoveryManager(work).recover()
        snap = recovered.service.snapshot(gen.campaign_id)
        assert np.array_equal(live.truths, snap.truths), fault
        # And a retried compaction repairs the swap and succeeds.
        report = compact_directory(work)
        assert report.records_after <= report.records_before
        snap2 = RecoveryManager(work).recover().service.snapshot(
            gen.campaign_id
        )
        assert np.array_equal(live.truths, snap2.truths), fault

    def test_mid_swap_crash_readable_without_repair(
        self, tmp_path, reference
    ):
        base, live, gen = reference
        work = tmp_path / "work"
        shutil.copytree(base, work)
        compact_directory(work)
        records_committed = len(read_wal(work).records)
        with pytest.raises(CompactionInterrupted):
            compact_directory(work, fault="after-old-rename")
        # Read-only view (repair=False) still sees the previous
        # committed generation, untouched on disk.
        scan = read_wal(work, repair=False)
        assert len(scan.records) == records_committed

    def test_unknown_fault_point_rejected(self, tmp_path, reference):
        base, _, _ = reference
        work = tmp_path / "work"
        shutil.copytree(base, work)
        with pytest.raises(ValueError, match="fault"):
            compact_directory(work, fault="between-everything")


class TestCompactionGuards:
    def test_recovery_refuses_compacted_log_without_checkpoint(
        self, tmp_path
    ):
        live, gen, _ = build_durable_run(tmp_path)
        compact_directory(tmp_path)
        for ckpt in CheckpointStore(tmp_path).paths():
            ckpt.unlink()
        with pytest.raises(RecoveryError, match="compacted"):
            RecoveryManager(tmp_path).recover()

    def test_compact_refuses_uncovered_checkpoint_lsn(self, tmp_path):
        build_durable_run(tmp_path)
        covered = read_wal(tmp_path).last_lsn
        with pytest.raises(WalError, match="checkpoint"):
            compact_directory(tmp_path, checkpoint_lsn=covered + 50)

    def test_resumed_writer_respects_manifest_floor(self, tmp_path):
        build_durable_run(tmp_path)
        compact_directory(tmp_path)
        manifest = load_compaction_manifest(tmp_path)
        last = manifest["last_lsn"]
        with pytest.raises(WalError, match="collides"):
            WriteAheadLog(tmp_path, start_lsn=last)
        with WriteAheadLog(tmp_path, start_lsn=last + 1) as wal:
            wal.append(
                rec.REFRESH,
                rec.encode_json_payload({"campaign_id": "x"}),
            )
        scan = read_wal(tmp_path)
        assert scan.last_lsn == last + 1

    def test_retention_still_prunes_post_compaction_segments(
        self, tmp_path
    ):
        """retain() (whole segments) and compact() (records) compose."""
        build_durable_run(tmp_path)
        compact_directory(tmp_path)
        with WriteAheadLog(
            tmp_path,
            start_lsn=read_wal(tmp_path).last_lsn + 1,
            max_segment_bytes=256,
        ) as wal:
            for _ in range(20):
                wal.append(
                    rec.REFRESH,
                    rec.encode_json_payload({"campaign_id": "x"}),
                )
            removed = wal.retain(wal.last_lsn)
            assert removed
        assert len(list_segments(tmp_path)) >= 1

    def test_checkpoint_retention_after_compaction_stays_recoverable(
        self, tmp_path
    ):
        """Compact, keep serving across segment rotations, checkpoint
        (which auto-retains covered post-compaction segments): the
        retention gap between the compacted generation and the
        surviving tail must read back fine and recover bitwise."""
        build_durable_run(tmp_path)
        compact_directory(tmp_path)
        recovered = RecoveryManager(tmp_path).recover(
            resume=True,
            durability_config=DurabilityConfig(
                directory=tmp_path,
                fsync="batch",
                # Tiny segments force several rotations, so the next
                # checkpoint's retain() prunes sealed mid-log segments.
                max_segment_bytes=4096,
            ),
        )
        service = recovered.service
        gen = LoadGenerator(
            "compact-camp", num_users=60, num_objects=20, random_state=7
        )
        for chunk in gen.column_chunks(12_000, chunk_size=512):
            service.submit_columns(
                "compact-camp",
                chunk.user_slots,
                chunk.object_slots,
                chunk.values,
            )
            service.pump()
        service.flush()
        recovered.durability.checkpoint()
        assert len(list_segments(tmp_path)) >= 1
        live = service.snapshot("compact-camp")
        recovered.durability.close()
        scan = read_wal(tmp_path)
        assert scan.retired_gap_end > 0  # retention really pruned
        snap = RecoveryManager(tmp_path).recover().service.snapshot(
            "compact-camp"
        )
        assert np.array_equal(live.truths, snap.truths)

    def test_retention_gap_without_covering_checkpoint_refused(
        self, tmp_path
    ):
        """A retention gap is only safe while a checkpoint covers it:
        recovery must refuse, not silently skip the retired records."""
        build_durable_run(tmp_path)
        compact_directory(tmp_path)
        recovered = RecoveryManager(tmp_path).recover(
            resume=True,
            durability_config=DurabilityConfig(
                directory=tmp_path, fsync="batch", max_segment_bytes=4096
            ),
        )
        service = recovered.service
        gen = LoadGenerator(
            "compact-camp", num_users=60, num_objects=20, random_state=7
        )
        for chunk in gen.column_chunks(12_000, chunk_size=512):
            service.submit_columns(
                "compact-camp",
                chunk.user_slots,
                chunk.object_slots,
                chunk.values,
            )
            service.pump()
        service.flush()
        recovered.durability.checkpoint()
        recovered.durability.close()
        assert read_wal(tmp_path).retired_gap_end > 0
        # Lose the checkpoints covering the retained gap, keeping the
        # oldest (which still covers the compaction floor, so the
        # retention guard — not the compaction guard — must fire).
        checkpoints = CheckpointStore(tmp_path).paths()
        assert len(checkpoints) >= 2
        for ckpt in checkpoints[1:]:
            ckpt.unlink()
        with pytest.raises(RecoveryError, match="retention"):
            RecoveryManager(tmp_path).recover()

