"""A crash after every seam call of the durable layer recovers bitwise.

Each test runs one durable operation once under the seam recorder
(:mod:`seam`) to list its calls, then, for every k, runs it again on a
fresh copy of the same directory and crashes it just after the k-th
call.  What the first k calls left on disk must then recover to the
truths of the uncrashed run, bitwise, with the same spent budget: a
compaction (the first, and one that replaces a committed generation),
a checkpoint write, a standby's fence bump and resync, and recovery's
torn-tail repair followed by the resumed writer's first group commit.
The compaction tests also check that the swap protocol's four named
points (:func:`compaction_points`) are among the ones crashed at.
"""

from __future__ import annotations

import os
import shutil

import pytest
import seam

from repro.durable.checkpoint import verify_file
from repro.durable.compaction import compact_directory
from repro.durable.manager import DurabilityConfig, DurabilityManager
from repro.durable.recovery import RecoveryManager
from repro.durable.stream import WalTailReader
from repro.durable.wal import (
    COMPACT_DIRNAME,
    COMPACT_MANIFEST,
    COMPACT_OLD_DIRNAME,
    COMPACT_TMP_DIRNAME,
    SEGMENT_MAGIC,
    list_segments,
    read_wal,
)
from repro.net.transport import FrameServer
from repro.privacy.ldp import LDPGuarantee
from repro.replication import protocol as rp
from repro.replication.standby import StandbyServer
from repro.service import (
    BudgetLedger,
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)

CAMPAIGN = "seam-camp"
COST = LDPGuarantee(epsilon=0.01, delta=0.0)
SEGMENT_BYTES = 16_384


def generator() -> LoadGenerator:
    return LoadGenerator(CAMPAIGN, num_users=30, num_objects=10, random_state=5)


def config(directory) -> DurabilityConfig:
    return DurabilityConfig(
        directory=directory,
        fsync="batch",
        checkpoint_every_claims=5_000,
        max_segment_bytes=SEGMENT_BYTES,
    )


def feed(service, chunks) -> None:
    for chunk in chunks:
        service.submit_columns(
            CAMPAIGN, chunk.user_slots, chunk.object_slots, chunk.values
        )
        service.pump()


def outcome(service) -> tuple:
    """Truths as bytes, and every user's spent budget."""
    truths = service.snapshot(CAMPAIGN).truths.tobytes()
    spent = sorted(service.ledger.to_records(), key=repr)
    return truths, spent


def recovered(directory) -> tuple:
    return outcome(RecoveryManager(directory).recover().service)


def resume(directory):
    return RecoveryManager(directory).recover(
        resume=True, durability_config=config(directory)
    )


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A costed campaign's log, never compacted: two checkpoints, and
    a suffix above the newest over several segments; and its outcome."""
    directory = tmp_path_factory.mktemp("seam-base")
    manager = DurabilityManager(config(directory))
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=256),
        ledger=BudgetLedger(epsilon_cap=1e6),
        topology=Topology.in_process(durability=manager),
    )
    gen = generator()
    service.register_campaign(
        CAMPAIGN, gen.object_ids, max_users=gen.num_users,
        user_ids=gen.user_ids, cost=COST,
    )
    chunks = list(gen.column_chunks(13_000, chunk_size=256))
    feed(service, chunks[:36])
    manager.checkpoint()
    feed(service, chunks[36:])
    service.flush()
    expected = outcome(service)
    manager.close()
    assert len(list_segments(directory)) > 1
    return directory, expected


def copy(source, tmp_path, name):
    target = tmp_path / name
    shutil.copytree(source, target)
    return target


def every_crash(tmp_path, source, action, check) -> list:
    """Crash ``action(directory)`` after each of its seam calls, each
    time on a fresh copy of ``source``, and ``check(directory, k,
    events)`` what is left; returns the clean run's calls."""
    clean = copy(source, tmp_path, "clean")
    events = seam.calls(lambda: action(clean))
    assert events
    for k in range(1, len(events) + 1):
        work = copy(source, tmp_path, f"crash{k}")
        made = seam.crash_after(k, lambda: action(work))
        assert names(made, work) == names(events[:k], clean)
        check(work, k, events)
        shutil.rmtree(work)
    print(f"crashed after each of {len(events)} seam calls")
    return events


def names(events, root) -> list:
    """What each call did, to which path under ``root``: comparable
    across copies of a directory."""
    return [
        (event.op, event.path and str(event.path.relative_to(root)))
        for event in events
    ]


def compaction_points(events) -> set:
    """The named points of the swap protocol a crash after each call
    lands on: before the manifest is written, before the swap, after
    the committed generation is moved aside, and after the new one is
    moved into place."""
    points = set()
    for k, event in enumerate(events, 1):
        following = events[k] if k < len(events) else None
        if following is not None and following.path.name == COMPACT_MANIFEST:
            points.add("before-manifest")
        if event.op == "fsync_dir" and event.path.name == COMPACT_TMP_DIRNAME:
            points.add("before-commit")
        if event.op == "rename" and event.path.name == COMPACT_OLD_DIRNAME:
            points.add("after-old-rename")
        if (
            event.op == "rename"
            and event.path.name == COMPACT_DIRNAME
            and event.source.name == COMPACT_TMP_DIRNAME
        ):
            points.add("after-rename")
    return points


class TestCompactionCrashes:
    def check(self, expected):
        def check(work, k, events):
            assert recovered(work) == expected, f"crash after call {k}"
            # A retried compaction finishes the swap and recovers too.
            compact_directory(work, max_segment_bytes=SEGMENT_BYTES)
            assert recovered(work) == expected, f"retry after call {k}"

        return check

    def test_first_compaction(self, tmp_path, base):
        source, expected = base
        events = every_crash(
            tmp_path,
            source,
            lambda work: compact_directory(
                work, max_segment_bytes=SEGMENT_BYTES
            ),
            self.check(expected),
        )
        assert compaction_points(events) == {
            "before-manifest", "before-commit", "after-rename",
        }

    def test_second_compaction(self, tmp_path, base):
        source, expected = base
        source = copy(source, tmp_path, "compacted-once")
        compact_directory(source, max_segment_bytes=SEGMENT_BYTES)
        events = every_crash(
            tmp_path,
            source,
            lambda work: compact_directory(
                work, max_segment_bytes=SEGMENT_BYTES
            ),
            self.check(expected),
        )
        assert compaction_points(events) == {
            "before-manifest", "before-commit", "after-old-rename",
            "after-rename",
        }

    def test_mid_swap_crash_readable_without_repair(self, tmp_path, base):
        source, _ = base
        work = copy(source, tmp_path, "work")
        compact_directory(work)
        records_committed = len(read_wal(work).records)
        events = seam.calls(lambda: compact_directory(copy(work, tmp_path, "c")))
        moved_aside = next(
            k for k, event in enumerate(events, 1)
            if event.op == "rename" and event.path.name == COMPACT_OLD_DIRNAME
        )
        seam.crash_after(moved_aside, lambda: compact_directory(work))
        # Read-only view (repair=False) still sees the previous
        # committed generation, untouched on disk.
        scan = read_wal(work, repair=False)
        assert len(scan.records) == records_committed


class TestCheckpointCrashes:
    def test_checkpoint_write(self, tmp_path, base):
        """A resumed service takes more claims over rotating segments,
        then checkpoints: the write, the prune of the oldest checkpoint
        and the retention of covered segments, each crashed after."""
        source, _ = base
        work = copy(source, tmp_path, "resumed")
        state = resume(work)
        feed(state.service, generator().column_chunks(3_000, chunk_size=256))
        state.service.flush()
        expected = outcome(state.service)
        state.durability.sync()
        state.durability.close()

        def action(directory):
            # A crashed run's handles are just dropped, as a dead
            # process's are.
            live = resume(directory)
            live.durability.checkpoint()
            live.durability.close()

        def check(directory, k, events):
            assert recovered(directory) == expected, f"crash after call {k}"

        # Each run resumes (a bind checkpoint) and then checkpoints:
        # both are a checkpoint write, and both are crashed after.
        events = every_crash(tmp_path, work, action, check)
        ops = {event.op for event in events}
        assert {"write_synced", "rename", "fsync_dir", "remove"} <= ops

    @pytest.mark.parametrize("partial", [False, True])
    def test_failed_checkpoint_write_leaves_the_directory_as_it_was(
        self, tmp_path, base, partial
    ):
        """A checkpoint write can fail on purpose, before its first byte
        or part-way: a torn ``*.tmp`` is then all it adds, recovery
        ignores it, and the next checkpoint write replaces it."""
        source, expected = base
        work = copy(source, tmp_path, "work")
        state = resume(work)
        before = directory_bytes(work)
        seam.fail_first(
            "write_synced", state.durability.checkpoint, partial=partial
        )
        after = directory_bytes(work)
        added = set(after) - set(before)
        assert {name: after[name] for name in before} == before
        assert len(added) == partial
        assert all(name.endswith(".tmp") for name in added)
        assert recovered(copy(work, tmp_path, "probe")) == expected
        state.durability.checkpoint()
        assert not any(name.endswith(".tmp") for name in directory_bytes(work))
        state.durability.close()
        assert recovered(work) == expected


class _Link:
    """Stands in for a replication connection: keeps what is sent."""

    def __init__(self) -> None:
        self.sent = []

    def send_frame(self, rtype, payload=b"") -> None:
        self.sent.append((rtype, payload))


def shipped_frames(directory, after_lsn: int, up_to_lsn: int) -> bytes:
    """The log's frames with ``after_lsn < lsn <= up_to_lsn``: the
    payload of a RECORDS group."""
    parts = []
    with WalTailReader(directory, after_lsn=after_lsn) as reader:
        while (span := reader.poll(up_to_lsn)) is not None:
            parts.append(os.pread(span.fd, span.length, span.offset))
    return b"".join(parts)


def directory_bytes(directory) -> dict:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestStandbyCrashes:
    @pytest.fixture(scope="class")
    def replicated(self, tmp_path_factory):
        """A standby holding two segments of a primary's log (it was
        restarted once) and fence epoch 4, and the primary's checkpoint
        past its cursor: the frame that resyncs it."""
        root = tmp_path_factory.mktemp("seam-standby")
        manager = DurabilityManager(config(root / "primary"))
        service = IngestService(
            ServiceConfig(num_shards=2, max_batch=256),
            ledger=BudgetLedger(epsilon_cap=1e6),
            topology=Topology.in_process(durability=manager),
        )
        gen = generator()
        service.register_campaign(
            CAMPAIGN, gen.object_ids, max_users=gen.num_users,
            user_ids=gen.user_ids, cost=COST,
        )
        chunks = list(gen.column_chunks(6_000, chunk_size=256))
        shipped = 0
        for part in (chunks[:8], chunks[8:16]):
            feed(service, part)
            manager.sync()
            standby = StandbyServer(root / "standby")
            if shipped == 0:
                standby._persist_fencing_epoch(4)
            frames = shipped_frames(
                manager.wal.directory, shipped, manager.durable_lsn
            )
            standby._on_records(_Link(), frames)
            shipped = standby.durable_lsn
            standby.stop()
        feed(service, chunks[16:])
        service.flush()
        resync = manager.checkpoint().read_bytes()
        expected = outcome(service)
        manager.close()
        assert len(list_segments(root / "standby")) == 2
        return root / "standby", resync, expected

    def test_fence_bump_then_resync(self, tmp_path, replicated):
        source, resync, expected = replicated
        resync_lsn = verify_file(resync)

        def action(directory):
            standby = StandbyServer(directory)
            try:
                standby._persist_fencing_epoch(5)
                link = _Link()
                standby._on_checkpoint(link, resync)
                assert link.sent[0][0] == rp.ACK
            finally:
                FrameServer.stop(standby)  # the listener only

        def check(directory, k, events):
            fenced = any(
                event.op == "rename" and event.path.name == "FENCE"
                for event in events[:k]
            )
            standby = StandbyServer(directory)
            try:
                # The fence never goes back, and never loses the bump
                # once its rename is on disk.
                assert standby.fencing_epoch == (5 if fenced else 4), k
                if standby.durable_lsn < resync_lsn:
                    standby._on_checkpoint(_Link(), resync)
                assert outcome(standby.service) == expected, k
            finally:
                standby.stop()

        events = every_crash(tmp_path, source, action, check)
        removed = [e.path.name for e in events if e.op == "remove"]
        segments = [name for name in removed if name.startswith("wal-")]
        assert segments == sorted(segments, reverse=True) and segments

    @pytest.mark.parametrize("partial", [False, True])
    def test_failed_fence_write_keeps_the_old_epoch(
        self, tmp_path, replicated, partial
    ):
        """A FENCE write that fails, before its first byte or part-way,
        keeps the old epoch on disk, and the next write replaces a torn
        ``FENCE.tmp``."""
        source, _, _ = replicated
        work = copy(source, tmp_path, "work")
        standby = StandbyServer(work)
        try:
            seam.fail_first(
                "write_synced",
                lambda: standby._persist_fencing_epoch(9),
                partial=partial,
            )
            assert standby.fencing_epoch == 4
            assert standby._load_fencing_epoch() == 4
            assert (work / "FENCE.tmp").exists() == partial
            standby._persist_fencing_epoch(9)
            assert standby._load_fencing_epoch() == 9
            assert not (work / "FENCE.tmp").exists()
        finally:
            standby.stop()


class TestTornTailCrashes:
    """Recovery repairs a torn tail, the writer resumes, and one chunk
    is committed; a crash after any call of that recovers the state
    before the chunk or, once its group commit's fdatasync is done,
    the state after it."""

    @pytest.fixture(params=["torn-frame", "frame-less-segment"])
    def torn(self, request, tmp_path, base):
        source, expected = base
        work = copy(source, tmp_path, "torn")
        last = list_segments(work)[-1]
        if request.param == "torn-frame":
            with open(last, "ab") as fh:
                fh.write(b"\x40\x00\x00\x00torn")
        else:
            scan = read_wal(work, repair=False)
            name = f"wal-{scan.last_lsn + 1:020d}.seg"
            (work / name).write_bytes(SEGMENT_MAGIC + b"\x40\x00")
        return work, expected, request.param

    @staticmethod
    def resume_and_commit(directory):
        state = resume(directory)
        feed(state.service, generator().column_chunks(256, chunk_size=256))
        return state

    def test_repair_is_durable_before_the_writer_resumes(self, torn):
        """The bug this guards: an unsynced truncation lost to a power
        cut brings torn bytes back inside a segment that is no longer
        the last, and the log cannot be read again."""
        work, _, kind = torn
        last = list_segments(work)[-1]
        events = seam.calls(lambda: self.resume_and_commit(work))
        first_segment = next(
            k for k, event in enumerate(events) if event.op == "open_segment"
        )
        repair = [(event.op, event.path) for event in events[:first_segment]]
        if kind == "torn-frame":
            # The truncation, which fsyncs the file.
            assert repair[0] == ("truncate", last)
        else:
            assert repair[:2] == [("remove", last), ("fsync_dir", work)]

    def test_crash_after_every_call(self, tmp_path, torn):
        work, before, _ = torn
        live = self.resume_and_commit(copy(work, tmp_path, "live"))
        after = outcome(live.service)
        live.durability.close()
        assert after != before

        def check(directory, k, events):
            # The run ends with the chunk's group commit, one write and
            # its fdatasync: once written, the chunk survives a crash.
            assert [event.op for event in events[-2:]] == [
                "write_all", "datasync",
            ]
            want = after if k >= len(events) - 1 else before
            assert recovered(directory) == want, f"crash after call {k}"

        every_crash(tmp_path, work, self.resume_and_commit, check)
