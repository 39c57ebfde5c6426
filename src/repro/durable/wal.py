"""Segmented, CRC-checked, append-only write-ahead log.

The log is a directory of segment files named ``wal-<first-lsn>.seg``
(zero-padded so lexicographic order is LSN order).  Each segment starts
with an 8-byte magic and holds a sequence of frames::

    u32  body length
    u32  CRC-32 of the body
    ...  body = u8 record type | u64 LSN | payload

LSNs (log sequence numbers) are assigned by the writer, strictly
increasing across segments; checkpoints reference them to mark how much
of the log they cover, and recovery replays only records with larger
LSNs.

Commit semantics
----------------

Every record takes one path.  :meth:`WriteAheadLog.append` assigns the
LSN and *stages* ``(type, LSN, payload buffers)`` — or, for a replica,
:meth:`WriteAheadLog.append_frames` stages its primary's frames, which
:func:`split_frames` verified, as they are; a *drain* commits
everything staged as one group — one ``os.writev`` per segment it
touches (split further only at ``IOV_MAX``), then one ``fdatasync``
unless the policy is ``never`` — and only then advances the monotone
watermark :attr:`WriteAheadLog.durable_lsn`.  A frame opens a new
segment exactly when it would overflow the current one, so where
groups end never changes the bytes on disk.  Policies (``fsync=``):
``"never"`` writes without fsync (survives process crashes, not power
loss); ``"batch"`` commits at each sync point
(:meth:`WriteAheadLog.sync`, which the service calls after each pump);
``"always"`` commits each record before ``append()`` returns.

The calling thread drains, and only it: at ``sync()``, ``compact()``
and ``close()``, inline under ``always`` (a group of one), and whenever
the staged bytes cross a high-water mark
(``min(max_segment_bytes, 1 MiB)``) that bounds staging memory.  A
record reaches the file only at a drain; only records at or below
``durable_lsn`` were ever promised.

A failed drain is sticky: the first IO error is kept, and it and every
later ``append``/``sync``/``close`` raise :class:`WalError` chained to
it (``close()`` still releases the segment; only the first close
raises).  Every group commit records its latency
(:attr:`WriteAheadLog.commit_latencies`, ``groups_committed``,
``commit_seconds``).

Compaction
----------

:func:`repro.durable.compaction.compact_directory` (or
:meth:`WriteAheadLog.compact` on a live writer) rewrites the log's
*live* records into fresh segments under a ``compacted/``
subdirectory, committed by an atomic temp-dir + rename +
directory-fsync swap with a ``MANIFEST.json`` commit point.  The
manifest records the checkpoint LSN the rewrite assumed
(``checkpoint_lsn``): records at or below it may legitimately be
missing from a compacted log (their state lives in the checkpoint), so
:func:`read_wal` enforces LSN contiguity only above that floor and
:class:`~repro.durable.recovery.RecoveryManager` refuses to replay a
compacted log without a checkpoint covering it.
:func:`repair_compaction` rolls a crash-interrupted swap forward (the
temp generation's manifest is complete) or back (it is not) and is run
automatically by :func:`read_wal` and the :class:`WriteAheadLog`
constructor.

Reading tolerates a torn tail — a partial frame or CRC mismatch at the
end of the *last* top-level segment, the signature of a crash mid-write
— by truncating it (``repair=True``).  The same damage in an earlier
segment or in a compacted segment (those are fully fsynced before the
swap commits) is real corruption and raises
:class:`WalCorruptionError`.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Union

from repro.chaos import points as _chaos
from repro.durable.records import RECORD_TYPES, WalRecord
from repro.utils.logging import get_logger

_LOGGER = get_logger("durable.wal")

SEGMENT_MAGIC = b"RPWAL001"
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".seg"

#: Subdirectory holding the committed compacted generation.
COMPACT_DIRNAME = "compacted"
#: Staging directory a compaction writes into before the atomic swap.
COMPACT_TMP_DIRNAME = "compact.tmp"
#: Where the previous generation is parked during the swap.
COMPACT_OLD_DIRNAME = "compact.old"
#: The compacted generation's commit point (see repair_compaction).
COMPACT_MANIFEST = "MANIFEST.json"

#: Accepted values for the writer's ``fsync`` policy.
FSYNC_POLICIES = ("never", "batch", "always")

_FRAME_HEADER = struct.Struct("<II")  # body length, CRC-32
_BODY_HEADER = struct.Struct("<BQ")  # record type, LSN
_FRAME_OVERHEAD = _FRAME_HEADER.size + _BODY_HEADER.size
#: Both headers at once: body length, CRC-32, record type, LSN.
_FRAME_PREFIX = struct.Struct("<IIBQ")

#: Hard ceiling on a single frame body; anything larger in a file is
#: treated as corruption rather than an allocation request.
MAX_BODY_BYTES = 1 << 30

_fdatasync = getattr(os, "fdatasync", os.fsync)

#: Most buffers one ``os.writev`` call may take.
_IOV_MAX = os.sysconf("SC_IOV_MAX")

#: Per-group commit-latency samples kept in
#: :attr:`WriteAheadLog.commit_latencies`.
COMMIT_LATENCY_WINDOW = 4096

#: Most staged frame bytes before a drain runs without waiting for a
#: sync point (capped further by the segment size).
STAGE_HIGH_WATER_BYTES = 1024 * 1024


def _buffer_len(part) -> int:
    """Byte length of a payload part (len() of a typed memoryview is
    its element count, not its size)."""
    if isinstance(part, memoryview):
        return part.nbytes
    return len(part)


def _frame_header(rtype: int, lsn: int, parts, payload_len: int) -> bytes:
    """Frame header plus body header of one record, whose payload
    ``parts`` follow unchanged (the CRC runs over them in place)."""
    body_header = _BODY_HEADER.pack(rtype, lsn)
    crc = zlib.crc32(body_header)
    for part in parts:
        crc = zlib.crc32(part, crc)
    body_len = _BODY_HEADER.size + payload_len
    return _FRAME_HEADER.pack(body_len, crc) + body_header


def _write_all(fd: int, buffers: list, size: int) -> None:
    """Write ``buffers`` (``size`` bytes in all) to ``fd``: one
    ``os.writev`` per ``_IOV_MAX`` buffers, and no per-buffer Python
    work unless a call writes less than all (then it resumes there)."""
    while True:
        written = os.writev(
            fd, buffers if len(buffers) <= _IOV_MAX else buffers[:_IOV_MAX]
        )
        size -= written
        if size <= 0:
            return
        for index, buf in enumerate(buffers):
            length = _buffer_len(buf)
            if written < length:
                break
            written -= length
        buffers = [memoryview(buf).cast("B")[written:], *buffers[index + 1:]]


def _fsync_dir(directory: Path) -> None:
    """Make a create/rename in ``directory`` itself durable.

    File data reaches the disk via fdatasync, but a freshly created
    file's *directory entry* needs its own fsync or power loss can
    leave the data unreachable.  Best-effort: platforms that cannot
    fsync a directory just skip it.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


class WalError(RuntimeError):
    """Base class for write-ahead-log failures."""


class WalCorruptionError(WalError):
    """The log is damaged somewhere recovery cannot safely skip."""


class WalFrame(NamedTuple):
    """One whole frame of the log — length, CRC and body — as stored."""

    lsn: int
    rtype: int
    frame: memoryview

    @property
    def record(self) -> WalRecord:
        """The record it carries; the payload is a view into ``frame``."""
        return WalRecord(self.lsn, self.rtype, self.frame[_FRAME_OVERHEAD:])


def split_frames(data) -> list[WalFrame]:
    """Every frame of ``data``, which must be whole frames back to back.

    Strict where :func:`_iter_frames` is lenient: each frame's declared
    length must fit the bounds and the bytes that remain, its CRC must
    match and its record type must be known, and nothing may follow the
    last frame.  Any defect raises :class:`WalCorruptionError` naming
    it; LSN order is the caller's to check.
    """
    view = memoryview(data).cast("B")
    size = len(view)
    frames: list[WalFrame] = []
    offset = 0
    while offset < size:
        if size - offset < _FRAME_OVERHEAD:
            raise WalCorruptionError(
                f"frame at byte {offset} is truncated mid-header "
                f"({size - offset} of {_FRAME_OVERHEAD} bytes)"
            )
        length, crc, rtype, lsn = _FRAME_PREFIX.unpack_from(view, offset)
        body_start = offset + _FRAME_HEADER.size
        end = body_start + length
        if length < _BODY_HEADER.size or length > MAX_BODY_BYTES:
            raise WalCorruptionError(
                f"frame at byte {offset} declares a body of {length} "
                f"bytes (bounds {_BODY_HEADER.size}..{MAX_BODY_BYTES})"
            )
        if end > size:
            raise WalCorruptionError(
                f"frame at lsn {lsn} declares a body of {length} bytes; "
                f"{size - body_start} follow its header"
            )
        if zlib.crc32(view[body_start:end]) != crc:
            raise WalCorruptionError(f"frame at lsn {lsn} fails its CRC")
        if rtype not in RECORD_TYPES:
            raise WalCorruptionError(
                f"frame at lsn {lsn} has unknown record type {rtype}"
            )
        frames.append(WalFrame(lsn, rtype, view[offset:end]))
        offset = end
    return frames


def segment_path(directory: Path, first_lsn: int) -> Path:
    return directory / f"{SEGMENT_PREFIX}{first_lsn:020d}{SEGMENT_SUFFIX}"


def list_segments(directory: Union[str, Path]) -> list[Path]:
    """Top-level segment files in LSN order (compacted ones excluded)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p
        for p in directory.iterdir()
        if p.name.startswith(SEGMENT_PREFIX)
        and p.name.endswith(SEGMENT_SUFFIX)
    )


def _segment_first_lsn(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError as exc:
        raise WalCorruptionError(
            f"segment {path.name} has a malformed name"
        ) from exc


# ---------------------------------------------------------------------------
# Compaction manifests and crash repair.  The rewrite itself lives in
# repro.durable.compaction (it needs record semantics); the on-disk swap
# protocol and its repair live here because every reader and writer must
# agree on them before touching a directory.


def _read_manifest_file(path: Path) -> Optional[dict]:
    """Parsed, structurally valid manifest at ``path``; None otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(manifest, dict):
        return None
    try:
        manifest["checkpoint_lsn"] = int(manifest["checkpoint_lsn"])
        manifest["last_lsn"] = int(manifest["last_lsn"])
        manifest["segments"] = [str(s) for s in manifest["segments"]]
        manifest["retired"] = [str(s) for s in manifest["retired"]]
    except (KeyError, TypeError, ValueError):
        return None
    return manifest


def load_compaction_manifest(
    directory: Union[str, Path]
) -> Optional[dict]:
    """The committed compacted generation's manifest (None when absent).

    A ``compacted/`` directory without a readable manifest is
    corruption: the manifest is written and fsynced before the swap
    commits, so it cannot be legitimately missing.
    """
    comp = Path(directory) / COMPACT_DIRNAME
    if not comp.is_dir():
        return None
    manifest = _read_manifest_file(comp / COMPACT_MANIFEST)
    if manifest is None:
        raise WalCorruptionError(
            f"compacted generation {comp} has a missing or malformed "
            f"{COMPACT_MANIFEST}"
        )
    return manifest


def _cleanup_after_commit(directory: Path, manifest: dict) -> None:
    """Finish a committed swap: drop retired segments and the old gen."""
    removed = False
    for name in manifest["retired"]:
        stale = directory / name
        if stale.exists():
            stale.unlink()
            removed = True
    old = directory / COMPACT_OLD_DIRNAME
    if old.is_dir():
        shutil.rmtree(old)
        removed = True
    if removed:
        _fsync_dir(directory)


def _commit_compaction(directory: Path, *, crash=None) -> None:
    """Swap a fully written temp generation into place and clean up.

    Re-entrant from any crash point: :func:`repair_compaction` resumes
    here whenever a complete temp generation exists.  ``crash`` is a
    test-only fault hook called with the name of each crash point.
    """
    tmp = directory / COMPACT_TMP_DIRNAME
    cur = directory / COMPACT_DIRNAME
    old = directory / COMPACT_OLD_DIRNAME
    if cur.is_dir():
        if old.is_dir():
            # Garbage from an even earlier interrupted swap; the
            # current generation superseded it (rule: cur + old
            # coexisting means the swap that created cur completed).
            shutil.rmtree(old)
        os.rename(cur, old)
        _fsync_dir(directory)
    if crash is not None:
        crash("after-old-rename")
    os.rename(tmp, cur)
    if crash is not None:
        crash("after-rename")
    _fsync_dir(directory)
    manifest = load_compaction_manifest(directory)
    _cleanup_after_commit(directory, manifest)


def repair_compaction(directory: Union[str, Path]) -> None:
    """Roll an interrupted compaction forward or back (idempotent).

    The commit point is the temp generation's manifest: segments are
    written and fsynced *before* the manifest, so a complete manifest
    means the new generation is durable and the swap is resumed (roll
    forward); an absent or torn manifest means the attempt never
    committed and is discarded (roll back, restoring the previous
    generation if the crash landed mid-rename).  Safe to call on any
    directory, compacted or not.
    """
    directory = Path(directory)
    tmp = directory / COMPACT_TMP_DIRNAME
    cur = directory / COMPACT_DIRNAME
    old = directory / COMPACT_OLD_DIRNAME
    if tmp.is_dir():
        if _read_manifest_file(tmp / COMPACT_MANIFEST) is not None:
            _LOGGER.warning(
                "resuming interrupted compaction swap in %s", directory
            )
            _commit_compaction(directory)
            return
        _LOGGER.warning(
            "discarding uncommitted compaction attempt in %s", directory
        )
        shutil.rmtree(tmp)
    if cur.is_dir():
        # The committed generation is authoritative; finish any
        # interrupted cleanup behind it.
        _cleanup_after_commit(directory, load_compaction_manifest(directory))
    elif old.is_dir():
        # Crash after the old generation was moved aside but before a
        # complete replacement existed: the old generation is still the
        # truth.
        _LOGGER.warning(
            "rolling back interrupted compaction swap in %s", directory
        )
        os.rename(old, cur)
        _fsync_dir(directory)


class WriteAheadLog:
    """Appender for a WAL directory.

    Parameters
    ----------
    directory:
        Log directory (created if missing).  A writer never appends
        into pre-existing segments: its first drain starts a fresh
        segment, which keeps resuming after recovery trivially safe.
    fsync:
        Durability policy; see the module docstring.
    max_segment_bytes:
        Rotation threshold; a segment is sealed once the next frame
        would overflow it, and that frame opens a new one.
    start_lsn:
        First LSN this writer assigns (``last recovered LSN + 1`` when
        resuming).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        fsync: str = "batch",
        max_segment_bytes: int = 64 * 1024 * 1024,
        start_lsn: int = 1,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if max_segment_bytes < len(SEGMENT_MAGIC) + _FRAME_HEADER.size:
            raise ValueError(
                f"max_segment_bytes {max_segment_bytes} cannot hold a frame"
            )
        if start_lsn < 1:
            raise ValueError(f"start_lsn must be >= 1, got {start_lsn}")
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        repair_compaction(self._dir)
        floor = 0
        manifest = load_compaction_manifest(self._dir)
        if manifest is not None:
            floor = manifest["last_lsn"]
        existing = list_segments(self._dir)
        if existing:
            last = existing[-1]
            floor = max(floor, _segment_first_lsn(last) - 1)
            data = last.read_bytes()
            if data.startswith(SEGMENT_MAGIC):
                for _offset, _body_start, body in _iter_frames(data):
                    _rtype, lsn = _BODY_HEADER.unpack_from(body, 0)
                    floor = max(floor, lsn)
        if start_lsn <= floor:
            raise WalError(
                f"start_lsn {start_lsn} collides with existing records "
                f"up to lsn {floor} in {self._dir}; recover first"
            )
        self._fsync = fsync
        self._max_segment_bytes = max_segment_bytes
        self._next_lsn = start_lsn
        self._fh = None  # the open segment, unbuffered: writev only
        self._segment_bytes = 0
        # Appends arrive from producer threads (budget charges) as well
        # as the pump thread (batches); this lock keeps LSNs monotonic,
        # is the producer barrier of compact() and close(), and guards
        # staging, the drain, the watermark and ``_closed``.
        self._io_lock = threading.Lock()
        self._staging: list[tuple] = []
        self._staged_bytes = 0
        # Crossing this drains without waiting for a sync point, which
        # bounds staging memory.
        self._stage_high_water = min(
            self._max_segment_bytes, STAGE_HIGH_WATER_BYTES
        )
        self.bytes_written = 0
        self.records_written = 0
        #: Record-committing fdatasyncs: group commits and segment
        #: seals (0 under ``never``).
        self.syncs = 0
        #: Wall seconds of each group commit (writev + fdatasync),
        #: newest last; bounded so long-running services stay O(1).
        self.commit_latencies: deque[float] = deque(
            maxlen=COMMIT_LATENCY_WINDOW
        )
        self.groups_committed = 0
        self.commit_seconds = 0.0
        self._durable_lsn = start_lsn - 1
        self._closed = False
        self._error: Optional[BaseException] = None  # first failed drain
        self._commit_listeners: list = []

    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def fsync_policy(self) -> str:
        return self._fsync

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        """Highest LSN assigned so far (``start_lsn - 1`` when none)."""
        return self._next_lsn - 1

    @property
    def durable_lsn(self) -> int:
        """Monotone watermark: records at or below it are committed —
        fdatasynced under ``batch``/``always``, written to the OS under
        ``never``.  It trails :attr:`last_lsn` by the staged suffix
        until a drain; :meth:`sync` closes the gap."""
        return self._durable_lsn

    def add_commit_listener(self, listener) -> None:
        """Register ``listener(durable_lsn)`` to run after each group
        commit, once the records at or below the watermark are on disk
        (fdatasynced unless the policy is ``never``).

        Listeners run on the draining thread, under the log's lock, and
        must be cheap — typically just waking a shipping thread.
        Exceptions are swallowed and logged so a misbehaving listener
        can never poison the commit path.
        """
        self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener) -> None:
        """Unregister a listener added via :meth:`add_commit_listener`."""
        try:
            self._commit_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_commit(self, durable_lsn: int) -> None:
        for listener in list(self._commit_listeners):
            try:
                listener(durable_lsn)
            except Exception:  # pragma: no cover - defensive
                _LOGGER.exception("WAL commit listener failed")

    # ------------------------------------------------------------------
    def append(self, rtype: int, payload) -> int:
        """Stage one record; returns its LSN.

        ``payload`` is the record body: ``bytes``, or a tuple/list of
        buffer-likes (bytes / memoryviews) written back to back — the
        zero-copy path the hot batch encoder uses; buffers must not be
        mutated until the record is durable.

        The record reaches the file at the next drain: before this
        returns under ``fsync="always"``, else at the next sync point
        or high-water drain; :attr:`durable_lsn` acknowledges it.  A
        closed log, or one whose drain has failed, raises
        :class:`WalError`.
        """
        if rtype not in RECORD_TYPES:
            raise ValueError(f"unknown record type {rtype}")
        parts = (
            (payload,)
            if isinstance(payload, (bytes, bytearray, memoryview))
            else tuple(payload)
        )
        payload_len = sum(_buffer_len(part) for part in parts)
        if payload_len + _BODY_HEADER.size > MAX_BODY_BYTES:
            raise WalError(
                f"record body of {payload_len} bytes is too large"
            )
        with self._io_lock:
            self.check_append()
            lsn = self._next_lsn
            self._stage([(rtype, lsn, parts, payload_len)])
        return lsn

    def append_frames(self, frames) -> int:
        """Stage already-framed records unchanged; returns the last LSN.

        ``frames`` are :class:`WalFrame` s that :func:`split_frames`
        verified, carrying the LSNs this log assigns next, in order (a
        replica storing its primary's frames).  Nothing is re-framed or
        CRC'd again: each frame's bytes are written as they are, under
        the rotation rule and commit semantics of :meth:`append`, and
        must not be mutated until they are durable.
        """
        entries = [
            (None, lsn, (frame,), len(frame) - _FRAME_OVERHEAD)
            for lsn, _rtype, frame in frames
        ]
        with self._io_lock:
            self.check_append()
            for expected, entry in enumerate(entries, self._next_lsn):
                if entry[1] != expected:
                    raise WalError(
                        f"frame at lsn {entry[1]} does not continue "
                        f"the log at lsn {expected}"
                    )
            self._stage(entries)
            return self._next_lsn - 1

    def _stage(self, entries: list) -> None:
        """Queue ``(rtype, lsn, parts, payload_len)`` entries for the next
        drain (``_io_lock`` held); an rtype of None marks ``parts`` as one
        whole frame.  Drains here under ``always`` or once staging
        reaches the high-water mark."""
        self._next_lsn += len(entries)
        self.records_written += len(entries)
        self._staging.extend(entries)
        self._staged_bytes += sum(
            _FRAME_OVERHEAD + entry[3] for entry in entries
        )
        if (
            self._fsync == "always"
            or self._staged_bytes >= self._stage_high_water
        ):
            self._drain()

    def check_append(self) -> None:
        """Raise :class:`WalError` where :meth:`append` would: the log
        is closed, or a drain has failed."""
        self._raise_if_failed()
        if self._closed:
            raise WalError("log is closed")

    def sync(self) -> None:
        """Group-commit point: drains the staged group on this thread, so
        on return every record appended so far is committed
        (fdatasynced unless ``never``); a failed drain raises
        :class:`WalError`."""
        with self._io_lock:
            self._drain()

    def retain(self, lsn: int) -> list[Path]:
        """Delete sealed segments fully covered by a checkpoint at ``lsn``.

        A segment is removable when the *next* segment starts at or
        below ``lsn + 1`` — every record it holds then has an LSN
        ``<= lsn``.  The active segment is never removed.  Returns the
        deleted paths.  (Claim-granular retirement *within* segments is
        compaction's job; see :meth:`compact`.)
        """
        segments = list_segments(self._dir)
        removed: list[Path] = []
        for current, successor in zip(segments, segments[1:]):
            if _segment_first_lsn(successor) <= lsn + 1:
                current.unlink()
                removed.append(current)
            else:
                break
        if removed:
            _LOGGER.debug(
                "retention at lsn %d removed %d segment(s)", lsn, len(removed)
            )
        return removed

    def compact(self, *, checkpoint_lsn: Optional[int] = None):
        """Rewrite the log to its live records; returns the report.

        Safe on a live writer: appends are blocked for the duration,
        everything staged is drained to durability first, the current
        segment is closed, and the next drain starts a fresh segment
        above the compacted generation.  See
        :func:`repro.durable.compaction.compact_directory` for the
        rewrite itself and the crash-safety protocol.
        """
        from repro.durable.compaction import compact_directory

        with self._io_lock:
            self._drain()
            self._close_segment()
            return compact_directory(
                self._dir,
                checkpoint_lsn=checkpoint_lsn,
                max_segment_bytes=self._max_segment_bytes,
            )

    def close(self) -> None:
        """Drain and close the log (the directory stays recoverable).

        Every staged record is committed before the segment closes; a
        failed drain raises :class:`WalError` after the segment is
        released.  Idempotent: only the *first* close surfaces the
        sticky error — repeated closes (common in ``finally`` blocks
        unwinding after that first raise) are no-ops.
        """
        with self._io_lock:
            if self._closed:
                return
            try:
                self._drain()
            except WalError:
                pass  # raised below, once the segment is released
            # Under the producer lock, so a racing append either staged
            # before the drain above or sees _closed and raises.
            self._closed = True
            self._close_segment()
        self._raise_if_failed()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Draining: the one path every record takes to disk.
    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise WalError(
                f"WAL group commit failed; records above durable lsn "
                f"{self._durable_lsn} may not be durable"
            ) from self._error

    def _drain(self) -> None:
        """Commit the staged group on this thread (``_io_lock`` held),
        then advance the watermark and tell the listeners — the one
        owner of the commit bookkeeping.  A failure becomes the log's
        sticky error and raises :class:`WalError`."""
        self._raise_if_failed()
        group, self._staging, self._staged_bytes = self._staging, [], 0
        if not group:
            return
        start = time.perf_counter()
        try:
            self._write_group(group)
        except Exception as exc:
            self._error = exc
            self._raise_if_failed()
        elapsed = time.perf_counter() - start
        durable = self._durable_lsn = group[-1][1]
        self.groups_committed += 1
        self.commit_seconds += elapsed
        self.commit_latencies.append(elapsed)
        self._notify_commit(durable)

    def _write_group(self, group: list) -> None:
        """Frame ``group`` into the log: one ``writev`` per segment it
        touches, then one fdatasync unless the policy is ``never``.
        Rotation is a rule over the frame sequence alone, so group
        boundaries never change the bytes on disk."""
        fault = _chaos.fire("wal.write")
        if fault is not None:
            raise OSError(
                f"chaos: injected WAL write error at lsn {group[0][1]} "
                f"(#{fault.index})"
            )
        torn = _chaos.fire("wal.torn_tail")
        buffers: list = []
        size = 0
        last_frame = last_frame_start = 0
        for rtype, lsn, parts, payload_len in group:
            frame_len = _FRAME_OVERHEAD + payload_len
            if (
                self._fh is not None
                and self._segment_bytes + frame_len > self._max_segment_bytes
                and self._segment_bytes > len(SEGMENT_MAGIC)
            ):
                _write_all(self._fh.fileno(), buffers, size)
                if self._fsync != "never":
                    self._sync_segment()
                self._close_segment()
                buffers, size = [], 0
            if self._fh is None:
                self._open_segment(lsn)
                buffers.append(SEGMENT_MAGIC)
                size += len(SEGMENT_MAGIC)
            last_frame, last_frame_start = len(buffers), size
            if rtype is not None:
                buffers.append(_frame_header(rtype, lsn, parts, payload_len))
            buffers.extend(parts)
            size += frame_len
            self._segment_bytes += frame_len
            self.bytes_written += frame_len
        if torn is not None:
            # Simulated power loss mid-write: the writev stops three
            # bytes into the last frame's body header and the writer
            # "dies".  Nothing in the group was acknowledged; the next
            # recovery's torn-tail repair truncates the partial frame.
            cut = _FRAME_HEADER.size + 3
            _write_all(
                self._fh.fileno(),
                buffers[:last_frame] + [buffers[last_frame][:cut]],
                last_frame_start + cut,
            )
            raise OSError(
                f"chaos: torn WAL tail injected at lsn {group[-1][1]} "
                f"(#{torn.index})"
            )
        _write_all(self._fh.fileno(), buffers, size)
        if self._fsync != "never":
            self._sync_segment()

    def _sync_segment(self) -> None:
        """fdatasync the open segment: the one record-committing sync."""
        fault = _chaos.fire("wal.fsync")
        if fault is not None:
            raise OSError(f"chaos: injected fsync error (#{fault.index})")
        # fdatasync skips the metadata flush (mtime etc.) where the
        # platform offers it; the file length change that matters for
        # replay is part of the data journal either way.
        _fdatasync(self._fh.fileno())
        self.syncs += 1

    def _open_segment(self, first_lsn: int) -> None:
        path = segment_path(self._dir, first_lsn)
        if path.exists():
            # A frame-less leftover (crash between rotation and the
            # first frame surviving) carries no records and may be
            # replaced; anything with content is a real collision.
            if path.stat().st_size > len(SEGMENT_MAGIC):
                raise WalError(f"segment {path.name} already exists")
        self._fh = open(path, "wb", buffering=0)
        self._segment_bytes = len(SEGMENT_MAGIC)
        if self._fsync != "never":
            # The new directory entry must survive power loss too, or
            # every "durable" frame in this segment is unreachable; the
            # magic itself rides in the group's writev and fdatasync.
            _fsync_dir(self._dir)

    def _close_segment(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            self._segment_bytes = 0


# ---------------------------------------------------------------------------
# Reading.


@dataclass
class WalScan:
    """Outcome of one full log read."""

    records: list[WalRecord] = field(default_factory=list)
    segments: int = 0
    compacted_segments: int = 0
    #: Checkpoint LSN a compaction assumed (0 when never compacted).
    #: Records at or below it may legitimately be missing; recovery
    #: must hold a checkpoint covering at least this LSN.
    compaction_lsn: int = 0
    #: End of a checkpoint-retention gap between the compacted
    #: generation and the surviving top-level segments (0 when none):
    #: ``retain()`` prunes whole post-compaction segments once a
    #: checkpoint covers them, so records up to this LSN are missing
    #: and recovery must hold a checkpoint covering at least it.
    retired_gap_end: int = 0
    truncated_bytes: int = 0
    truncated_segment: Optional[str] = None
    first_lsn: int = 0
    last_lsn: int = 0

    @property
    def torn_tail(self) -> bool:
        return self.truncated_bytes > 0


def _iter_frames(
    data: bytes, start: int = len(SEGMENT_MAGIC)
) -> Iterator[tuple[int, int, bytes]]:
    """Yield ``(offset, body_offset, body)`` for intact frames of
    ``data`` from ``start`` (by default, a whole segment's first frame).

    Stops at the first incomplete or malformed frame; the caller
    decides whether that is a torn tail, corruption, or a frame still
    being written.
    """
    offset = start
    size = len(data)
    while offset < size:
        if offset + _FRAME_HEADER.size > size:
            break
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        body_start = offset + _FRAME_HEADER.size
        if length < _BODY_HEADER.size or length > MAX_BODY_BYTES:
            break
        if body_start + length > size:
            break
        body = data[body_start:body_start + length]
        if zlib.crc32(body) != crc:
            break
        yield offset, body_start, body
        offset = body_start + length


def _scan_segment(
    path: Path,
    scan: WalScan,
    after_lsn: int,
    floor: int,
    expected_lsn: Optional[int],
    *,
    tolerate_tail: bool,
    repair: bool,
    first_gap_ok: bool = False,
) -> Optional[int]:
    """Read one segment into ``scan``; returns the updated expected LSN.

    ``floor`` is the compaction checkpoint LSN: gaps whose skipped
    records all sit at or below it are legitimate (compaction dropped
    them); any other gap means lost records.  ``first_gap_ok`` marks
    the first top-level segment after a compacted generation: segment
    retention may have pruned checkpoint-covered segments between the
    two, so a gap before this segment's first frame is recorded
    (``scan.retired_gap_end``) rather than treated as corruption —
    recovery verifies a checkpoint covers it.  ``tolerate_tail`` marks
    the final top-level segment, the only place a torn tail is a crash
    signature rather than corruption.
    """
    data = path.read_bytes()
    if len(data) < len(SEGMENT_MAGIC) or not data.startswith(SEGMENT_MAGIC):
        if tolerate_tail and len(data) < len(SEGMENT_MAGIC):
            # Crash between segment creation and the magic landing.
            scan.truncated_bytes += len(data)
            scan.truncated_segment = path.name
            if repair:
                path.unlink()
            return expected_lsn
        raise WalCorruptionError(f"segment {path.name} has a bad header")
    consumed = len(SEGMENT_MAGIC)
    frames = 0
    for offset, body_start, body in _iter_frames(data):
        rtype, lsn = _BODY_HEADER.unpack_from(body, 0)
        if expected_lsn is not None:
            if lsn <= expected_lsn:
                raise WalCorruptionError(
                    f"LSN order violation in {path.name}: got {lsn} "
                    f"after {expected_lsn}"
                )
            if lsn != expected_lsn + 1 and lsn > floor + 1:
                if frames == 0 and first_gap_ok:
                    # Checkpoint retention pruned the segments between
                    # the compacted generation and this one; the gap is
                    # fine iff a checkpoint covers it, which recovery
                    # checks against retired_gap_end.
                    scan.retired_gap_end = lsn - 1
                else:
                    # Contiguity, not just monotonicity: a gap above
                    # the compaction floor means records were lost (a
                    # deleted or skipped segment) and replaying past it
                    # would silently produce wrong state.
                    raise WalCorruptionError(
                        f"LSN gap in {path.name}: got {lsn} after "
                        f"{expected_lsn}"
                    )
        expected_lsn = lsn
        if scan.first_lsn == 0:
            scan.first_lsn = lsn
        scan.last_lsn = max(scan.last_lsn, lsn)
        consumed = body_start + len(body)
        frames += 1
        if lsn > after_lsn:
            scan.records.append(
                WalRecord(
                    lsn=lsn,
                    rtype=rtype,
                    payload=body[_BODY_HEADER.size:],
                )
            )
    if consumed < len(data):
        if not tolerate_tail:
            raise WalCorruptionError(
                f"corrupt frame mid-log in {path.name} "
                f"(offset {consumed})"
            )
        scan.truncated_bytes = len(data) - consumed
        scan.truncated_segment = path.name
    if tolerate_tail and repair:
        if frames == 0:
            # No intact frame survived: the whole segment is noise
            # (crash right after rotation).  Remove it so a resumed
            # writer can reuse the LSN range it claims in its name.
            path.unlink()
            if scan.truncated_bytes:
                _LOGGER.warning(
                    "removed frame-less torn segment %s", path.name
                )
        elif scan.truncated_bytes:
            with open(path, "rb+") as fh:
                fh.truncate(consumed)
            _LOGGER.warning(
                "truncated torn tail of %s: %d byte(s) dropped",
                path.name,
                scan.truncated_bytes,
            )
    return expected_lsn


def read_wal(
    directory: Union[str, Path],
    *,
    after_lsn: int = 0,
    repair: bool = True,
) -> WalScan:
    """Read every intact record with LSN ``> after_lsn``, in order.

    Compacted directories read the committed ``compacted/`` generation
    first, then the top-level tail; an interrupted compaction swap is
    repaired up front (rolled forward or back) when ``repair`` is
    true, and read through its still-committed previous generation
    when it is not.  A torn tail on the final top-level segment is
    truncated in place when ``repair`` is true (so a subsequent writer
    restart cannot be confused by it) and reported in the returned
    :class:`WalScan`.  Damage anywhere else — including inside the
    fully-fsynced compacted generation — raises
    :class:`WalCorruptionError`.
    """
    directory = Path(directory)
    if repair and directory.is_dir():
        repair_compaction(directory)
    comp_dir = directory / COMPACT_DIRNAME
    if not comp_dir.is_dir() and not repair:
        old = directory / COMPACT_OLD_DIRNAME
        if old.is_dir():
            # Read-only view of a mid-swap crash: the previous
            # generation is still the committed one.
            comp_dir = old
    manifest = None
    comp_segments: list[Path] = []
    if comp_dir.is_dir():
        manifest = _read_manifest_file(comp_dir / COMPACT_MANIFEST)
        if manifest is None:
            raise WalCorruptionError(
                f"compacted generation {comp_dir} has a missing or "
                f"malformed {COMPACT_MANIFEST}"
            )
        for name in manifest["segments"]:
            seg = comp_dir / name
            if not seg.is_file():
                raise WalCorruptionError(
                    f"compacted segment {name} is missing from {comp_dir}"
                )
            comp_segments.append(seg)
    retired = set(manifest["retired"]) if manifest is not None else set()
    floor = manifest["checkpoint_lsn"] if manifest is not None else 0
    top_segments = [
        p for p in list_segments(directory) if p.name not in retired
    ]
    scan = WalScan(
        segments=len(top_segments),
        compacted_segments=len(comp_segments),
        compaction_lsn=floor,
    )
    expected: Optional[int] = None
    for seg in comp_segments:
        expected = _scan_segment(
            seg, scan, after_lsn, floor, expected,
            tolerate_tail=False, repair=False,
        )
    for index, seg in enumerate(top_segments):
        is_last = index == len(top_segments) - 1
        expected = _scan_segment(
            seg, scan, after_lsn, floor, expected,
            tolerate_tail=is_last, repair=repair and is_last,
            # Only the compacted-to-top-level boundary may carry a
            # retention gap; top-level segments retire strictly from
            # the head, so later boundaries stay contiguous.
            first_gap_ok=index == 0 and manifest is not None,
        )
    if manifest is not None:
        # Trailing records at or below the floor may have been dropped
        # by compaction; the manifest still remembers the true end of
        # the log so a resumed writer never reuses their LSNs.
        scan.last_lsn = max(scan.last_lsn, manifest["last_lsn"])
    return scan
