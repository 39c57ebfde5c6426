"""Scripted durable sessions, recorded through the seam, checked three
ways against the frozen per-frame writer.

Hypothesis draws a session: appends under one fsync policy, syncs,
segment rotation (small segments), checkpoints with their retention,
compactions, and crashes (the writer is dropped with its staged
records, the directory is read with repair, and a new writer resumes
after what is on disk).  Every call the session makes to
:mod:`repro.durable.fsync` is recorded (:mod:`seam`), and every
acknowledgement (a raise of ``durable_lsn``) is seen by a commit
listener.  Three properties:

* **bytes** — every top-level segment is the
  ``per_frame_reference`` writer's segment of that name, every
  compacted frame is its frame of that LSN, every checkpoint file is
  the bytes written, and nothing above the newest checkpoint is
  missing; under ``batch``/``always`` a segment's bytes are synced
  whole;
* **acknowledged means synced** — under ``batch``/``always``, when a
  record is acknowledged, every byte of it and of the records before it
  in its writer's segments is covered by a ``datasync``, and each
  segment's directory entry by a ``fsync_dir``;
* **directory changes are synced** — every rename, removal or
  truncation is followed by a sync of its directory (a truncation syncs
  its file itself) before the next acknowledgement.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import per_frame_reference
import seam
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durable import records as rec
from repro.durable.checkpoint import CheckpointStore, encode_file
from repro.durable.wal import (
    COMPACT_DIRNAME,
    SEGMENT_MAGIC,
    WriteAheadLog,
    list_segments,
    read_wal,
)

OPS = st.one_of(
    st.tuples(
        st.just("append"),
        st.sampled_from([rec.REFRESH, rec.CHARGE]),
        st.integers(0, 120),
    ),
    st.just(("sync",)),
    st.just(("checkpoint",)),
    st.just(("compact",)),
    st.just(("crash",)),
)


class Session:
    """The model of one scripted session, fed by the recorder."""

    def __init__(self, directory: Path, policy: str, segment_bytes: int):
        self.dir = directory
        self.policy = policy
        self.segment_bytes = segment_bytes
        self.records: dict[int, tuple] = {}  # lsn -> (rtype, payload)
        self.runs: list[tuple[int, list]] = []  # (start lsn, lsns drained)
        self.run_start = 1
        self.run: list[int] = []  # this writer's appended lsns
        self.checkpoints: dict[str, bytes] = {}
        self.newest_checkpoint = 0
        # What the seam calls did.
        self.written: dict[Path, int] = {}
        self.synced: dict[Path, int] = {}
        self.unsynced_entries: set[Path] = set()
        self.unsynced_dirs: set[Path] = set()
        self.failures: list[str] = []
        self.wal = None

    def writer(self, start_lsn: int) -> WriteAheadLog:
        wal = WriteAheadLog(
            self.dir,
            fsync=self.policy,
            max_segment_bytes=self.segment_bytes,
            start_lsn=start_lsn,
        )
        wal.add_commit_listener(self.acknowledged)
        self.run_start, self.run = start_lsn, []
        return wal

    # -- the seam ------------------------------------------------------
    def seen(self, event: seam.Event) -> None:
        op, path = event.op, event.path
        if op == "open_segment":
            self.written[path] = self.synced[path] = 0
            self.unsynced_entries.add(path)
        elif op == "write_all":
            self.written[path] += event.nbytes
        elif op == "datasync":
            self.synced[path] = self.written[path]
        elif op == "fsync_dir":
            self.unsynced_entries = {
                p for p in self.unsynced_entries if p.parent != path
            }
            self.unsynced_dirs.discard(path)
        elif op == "rename":
            self.unsynced_dirs |= {path.parent, event.source.parent}
        elif op == "remove":
            self.unsynced_dirs.add(path.parent)

    def acknowledged(self, durable_lsn: int) -> None:
        """A commit listener: runs on every raise of ``durable_lsn``."""
        if self.policy == "never":
            return
        if self.unsynced_dirs:
            self.failures.append(
                f"lsn {durable_lsn} acknowledged before a sync of "
                f"{sorted(map(str, self.unsynced_dirs))}"
            )
        acked = [lsn for lsn in self.run if lsn <= durable_lsn]
        for name, data in self.reference(acked).items():
            path = self.dir / name
            if self.synced.get(path, -1) < len(data):
                self.failures.append(
                    f"lsn {durable_lsn} acknowledged with {name} synced to "
                    f"{self.synced.get(path)} of {len(data)} bytes"
                )
            if path in self.unsynced_entries:
                self.failures.append(
                    f"lsn {durable_lsn} acknowledged before {name}'s "
                    f"directory entry was synced"
                )

    def reference(self, lsns: list) -> dict:
        return per_frame_reference.segments(
            [self.records[lsn] for lsn in lsns],
            self.segment_bytes,
            start_lsn=self.run_start,
        )

    # -- the script ----------------------------------------------------
    def end_run(self) -> None:
        drained = [lsn for lsn in self.run if lsn <= self.wal.durable_lsn]
        self.runs.append((self.run_start, drained))

    def step(self, op: tuple) -> None:
        if op[0] == "append":
            _, rtype, size = op
            lsn = self.wal.next_lsn
            payload = bytes([len(self.runs) % 256, lsn % 256]) * (size // 2)
            self.records[lsn] = (rtype, payload)
            self.run.append(lsn)
            assert self.wal.append(rtype, payload) == lsn
        elif op[0] == "sync":
            self.wal.sync()
        elif op[0] == "checkpoint":
            self.wal.sync()
            lsn = self.wal.last_lsn
            data = encode_file(lsn, {"lsn": lsn})
            path = CheckpointStore(self.dir).write(lsn, data)
            self.checkpoints[path.name] = data
            self.newest_checkpoint = lsn
            self.wal.retain(lsn)
        elif op[0] == "compact":
            self.wal.compact()
            self.end_run()
            self.run_start, self.run = self.wal.next_lsn, []
        elif op[0] == "crash":
            self.end_run()
            # The process dies: its staged records are lost and its
            # segment's file descriptor is released, nothing written.
            self.wal._close_segment()
            self.wal = self.writer(read_wal(self.dir).last_lsn + 1)

    def close(self) -> None:
        self.wal.close()
        self.end_run()

    # -- the bytes -----------------------------------------------------
    def check_bytes(self) -> None:
        segments = {}
        for start, drained in self.runs:
            self.run_start = start
            segments.update(self.reference(drained))
        for path in list_segments(self.dir):
            assert path.read_bytes() == segments[path.name], path.name
            if self.policy != "never":
                assert self.synced[path] == len(segments[path.name]), path.name
        for path in list_segments(self.dir / COMPACT_DIRNAME):
            data = memoryview(path.read_bytes())[len(SEGMENT_MAGIC):]
            for frame in split(data):
                lsn = int.from_bytes(frame[9:17], "little")
                rtype, payload = self.records[lsn]
                assert frame == per_frame_reference.frame(
                    rtype, lsn, payload
                ), (path.name, lsn)
        for checkpoint in CheckpointStore(self.dir).paths():
            assert checkpoint.read_bytes() == self.checkpoints[checkpoint.name]
        scan = read_wal(self.dir, repair=False)
        read = {record.lsn for record in scan.records}
        for record in scan.records:
            assert (record.rtype, bytes(record.payload)) == self.records[
                record.lsn
            ]
        drained = {lsn for _, lsns in self.runs for lsn in lsns}
        assert {lsn for lsn in drained if lsn > self.newest_checkpoint} <= read


def split(data) -> list:
    """The frames of a segment's body, back to back."""
    frames, offset = [], 0
    while offset < len(data):
        length = int.from_bytes(data[offset:offset + 4], "little")
        frames.append(bytes(data[offset:offset + 8 + length]))
        offset += 8 + length
    return frames


def append(size: int) -> tuple:
    return ("append", rec.REFRESH, size)


@settings(max_examples=200, deadline=None)
@given(
    policy=st.sampled_from(["never", "batch", "always"]),
    segment_bytes=st.integers(64, 600),
    ops=st.lists(OPS, max_size=30),
)
# One group that rotates: the sealed segment's sync.
@example(policy="batch", segment_bytes=64, ops=[append(40), append(40), ("sync",)])
# Retention removes a segment, then an append fits the active one.
@example(
    policy="batch",
    segment_bytes=120,
    ops=[
        append(60), ("sync",), append(60), ("sync",), ("checkpoint",),
        append(10), ("sync",),
    ],
)
# A fourth checkpoint prunes the first; retention removes nothing.
@example(
    policy="always",
    segment_bytes=600,
    ops=[append(10), ("checkpoint",)] * 4 + [append(10)],
)
def test_sessions_match_the_reference_and_sync_before_acknowledging(
    policy, segment_bytes, ops
):
    with tempfile.TemporaryDirectory() as tmp:
        session = Session(Path(tmp), policy, segment_bytes)
        with seam.SeamRecorder(on_event=session.seen).installed():
            session.wal = session.writer(1)
            for op in ops:
                session.step(op)
            session.close()
        assert session.failures == []
        session.check_bytes()
