"""Write-ahead-log framing, rotation, retention, and damage handling."""

import os

import pytest

from repro.durable import records as rec
from repro.durable.wal import (
    WalCorruptionError,
    WalError,
    WriteAheadLog,
    list_segments,
    read_wal,
)


def payload(i):
    return rec.encode_json_payload({"campaign_id": f"c{i}"})


def write_records(directory, count, **kwargs):
    with WriteAheadLog(directory, **kwargs) as wal:
        lsns = [wal.append(rec.REFRESH, payload(i)) for i in range(count)]
    return lsns


class TestAppendRead:
    def test_round_trip(self, tmp_path):
        lsns = write_records(tmp_path, 5)
        assert lsns == [1, 2, 3, 4, 5]
        scan = read_wal(tmp_path)
        assert [r.lsn for r in scan.records] == lsns
        assert [r.decode()["campaign_id"] for r in scan.records] == [
            f"c{i}" for i in range(5)
        ]
        assert scan.last_lsn == 5
        assert not scan.torn_tail

    def test_after_lsn_filter(self, tmp_path):
        write_records(tmp_path, 6)
        scan = read_wal(tmp_path, after_lsn=4)
        assert [r.lsn for r in scan.records] == [5, 6]
        # last_lsn still reflects the whole log, not the filtered view.
        assert scan.last_lsn == 6

    def test_empty_directory(self, tmp_path):
        scan = read_wal(tmp_path)
        assert scan.records == [] and scan.last_lsn == 0

    def test_unknown_record_type_refused_at_append(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            with pytest.raises(ValueError, match="unknown record type"):
                wal.append(42, b"")

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_fsync_policies_all_write(self, tmp_path):
        for policy in ("never", "batch", "always"):
            directory = tmp_path / policy
            with WriteAheadLog(directory, fsync=policy) as wal:
                wal.append(rec.REFRESH, payload(0))
                wal.sync()
            assert len(read_wal(directory).records) == 1


class TestRotation:
    def test_segments_rotate_and_names_carry_lsn(self, tmp_path):
        # Each frame is ~50 bytes; a 128-byte cap forces rotation.
        write_records(tmp_path, 10, max_segment_bytes=128)
        segments = list_segments(tmp_path)
        assert len(segments) > 1
        scan = read_wal(tmp_path)
        assert [r.lsn for r in scan.records] == list(range(1, 11))

    def test_resume_starts_fresh_segment(self, tmp_path):
        write_records(tmp_path, 3)
        with WriteAheadLog(tmp_path, start_lsn=4) as wal:
            wal.append(rec.REFRESH, payload(3))
        assert len(list_segments(tmp_path)) == 2
        assert [r.lsn for r in read_wal(tmp_path).records] == [1, 2, 3, 4]

    def test_colliding_start_lsn_refused(self, tmp_path):
        write_records(tmp_path, 3)
        with pytest.raises(WalError, match="collides"):
            WriteAheadLog(tmp_path, start_lsn=2)

    def test_retention_drops_covered_segments(self, tmp_path):
        # Records reach the file at a drain, so the segments exist once
        # sync() has committed the group; retention then keeps only the
        # active one.
        with WriteAheadLog(tmp_path, max_segment_bytes=128) as wal:
            for i in range(10):
                wal.append(rec.REFRESH, payload(i))
            wal.sync()
            total = len(list_segments(tmp_path))
            assert total > 2
            removed = wal.retain(wal.last_lsn)
            # Everything but the last (possibly active) segment goes.
            assert len(removed) == total - 1
        # Only the final segment's records can remain on disk.
        lsns = [r.lsn for r in read_wal(tmp_path).records]
        assert lsns[-1] == 10 and len(lsns) <= 3

    def test_retention_keeps_uncovered_suffix(self, tmp_path):
        with WriteAheadLog(tmp_path, max_segment_bytes=128) as wal:
            for i in range(10):
                wal.append(rec.REFRESH, payload(i))
            wal.retain(3)
        lsns = [r.lsn for r in read_wal(tmp_path).records]
        assert lsns and lsns[-1] == 10
        # Nothing above the retention point may disappear.
        assert all(lsn > 3 for lsn in lsns) or min(lsns) <= 3


class TestDamage:
    def test_torn_tail_truncated_and_reported(self, tmp_path):
        write_records(tmp_path, 4)
        segment = list_segments(tmp_path)[-1]
        intact = segment.read_bytes()
        segment.write_bytes(intact + b"\x99\x02partial frame")
        scan = read_wal(tmp_path)
        assert scan.torn_tail and scan.truncated_bytes > 0
        assert [r.lsn for r in scan.records] == [1, 2, 3, 4]
        # repair=True restored the intact prefix on disk.
        assert segment.read_bytes() == intact
        assert not read_wal(tmp_path).torn_tail

    def test_repair_false_leaves_file(self, tmp_path):
        write_records(tmp_path, 2)
        segment = list_segments(tmp_path)[-1]
        damaged = segment.read_bytes() + b"xx"
        segment.write_bytes(damaged)
        scan = read_wal(tmp_path, repair=False)
        assert scan.torn_tail
        assert segment.read_bytes() == damaged

    def test_crc_flip_in_tail_is_torn(self, tmp_path):
        write_records(tmp_path, 3)
        segment = list_segments(tmp_path)[-1]
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF  # corrupt the last record's body
        segment.write_bytes(bytes(data))
        scan = read_wal(tmp_path)
        assert scan.torn_tail
        assert [r.lsn for r in scan.records] == [1, 2]

    def test_corruption_mid_log_raises(self, tmp_path):
        write_records(tmp_path, 6, max_segment_bytes=128)
        segments = list_segments(tmp_path)
        assert len(segments) >= 2
        first = segments[0]
        data = bytearray(first.read_bytes())
        data[-1] ^= 0xFF  # damage a non-final segment
        first.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="mid-log"):
            read_wal(tmp_path)

    def test_bad_magic_raises(self, tmp_path):
        write_records(tmp_path, 2)
        segment = list_segments(tmp_path)[0]
        data = bytearray(segment.read_bytes())
        data[0] ^= 0xFF
        segment.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="bad header"):
            read_wal(tmp_path)

    def test_empty_trailing_segment_is_removed(self, tmp_path):
        write_records(tmp_path, 2)
        # Simulate a crash between segment creation and the magic write.
        orphan = tmp_path / "wal-00000000000000000003.seg"
        orphan.write_bytes(b"RP")
        scan = read_wal(tmp_path)
        assert [r.lsn for r in scan.records] == [1, 2]
        assert scan.torn_tail
        assert not orphan.exists()

    def test_process_kill_between_syncs_keeps_synced_prefix(self, tmp_path):
        # Emulate the "crash" the service cares about: the writer is
        # never closed, but everything up to the last sync survives.
        wal = WriteAheadLog(tmp_path, fsync="batch")
        wal.append(rec.REFRESH, payload(0))
        wal.sync()
        wal.append(rec.REFRESH, payload(1))
        wal.sync()
        # No close(): the object is simply abandoned mid-life.
        del wal
        assert [r.lsn for r in read_wal(tmp_path).records] == [1, 2]

    def test_sync_counts_are_observable(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="batch") as wal:
            wal.append(rec.REFRESH, payload(0))
            wal.sync()
            wal.sync()  # clean: no second physical sync
            assert wal.syncs == 1
            assert wal.records_written == 1
            assert wal.bytes_written > 0
        if os.name == "posix":
            assert list_segments(tmp_path)[0].stat().st_size > 8


class TestConcurrency:
    def test_concurrent_appends_stay_framed_and_monotonic(self, tmp_path):
        import threading

        wal = WriteAheadLog(tmp_path, fsync="never", max_segment_bytes=4096)
        per_thread = 300

        def worker(tag):
            for i in range(per_thread):
                wal.append(rec.CHARGE, payload(i))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        wal.close()
        scan = read_wal(tmp_path)
        lsns = [r.lsn for r in scan.records]
        assert lsns == list(range(1, 6 * per_thread + 1))
        for record in scan.records:
            record.decode()  # every frame intact


class TestFramelessSegments:
    def test_frameless_torn_segment_is_removed(self, tmp_path):
        lsns = write_records(tmp_path, 4)
        # Crash right after rotation: a new segment exists with only
        # the magic (or a torn first frame) and zero intact records.
        from repro.durable.wal import SEGMENT_MAGIC, segment_path

        orphan = segment_path(tmp_path, lsns[-1] + 1)
        orphan.write_bytes(SEGMENT_MAGIC + b"\x40\x00torn first frame")
        scan = read_wal(tmp_path)
        assert [r.lsn for r in scan.records] == lsns
        assert not orphan.exists()

    def test_resume_after_frameless_torn_segment(self, tmp_path):
        # The full regression: recovery repaired the log, and a resumed
        # writer must be able to reuse the orphaned LSN range.
        lsns = write_records(tmp_path, 4)
        from repro.durable.wal import SEGMENT_MAGIC, segment_path

        orphan = segment_path(tmp_path, lsns[-1] + 1)
        orphan.write_bytes(SEGMENT_MAGIC)
        scan = read_wal(tmp_path)
        assert scan.last_lsn == lsns[-1]
        with WriteAheadLog(tmp_path, start_lsn=scan.last_lsn + 1) as wal:
            wal.append(rec.REFRESH, payload(99))
        assert [r.lsn for r in read_wal(tmp_path).records] == lsns + [
            lsns[-1] + 1
        ]

    def test_writer_replaces_frameless_leftover_even_unrepaired(
        self, tmp_path
    ):
        lsns = write_records(tmp_path, 2)
        from repro.durable.wal import SEGMENT_MAGIC, segment_path

        orphan = segment_path(tmp_path, lsns[-1] + 1)
        orphan.write_bytes(SEGMENT_MAGIC)
        # No read_wal repair pass: the writer itself must cope.
        with WriteAheadLog(tmp_path, start_lsn=lsns[-1] + 1) as wal:
            wal.append(rec.REFRESH, payload(7))
        assert read_wal(tmp_path).last_lsn == lsns[-1] + 1


class TestGapDetection:
    def test_missing_middle_segment_raises(self, tmp_path):
        write_records(tmp_path, 9, max_segment_bytes=128)
        segments = list_segments(tmp_path)
        assert len(segments) >= 3
        segments[1].unlink()  # lose a middle segment's records
        with pytest.raises(WalCorruptionError, match="LSN gap"):
            read_wal(tmp_path)

    def test_first_lsn_reported(self, tmp_path):
        with WriteAheadLog(tmp_path, max_segment_bytes=128) as wal:
            for i in range(9):
                wal.append(rec.REFRESH, payload(i))
            wal.retain(4)
        scan = read_wal(tmp_path)
        assert scan.first_lsn >= 1
        assert scan.first_lsn == scan.records[0].lsn
