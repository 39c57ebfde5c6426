"""Incremental cursor reads over a live WAL directory.

Replication ships the log as it grows: after every group commit the
sender needs exactly the frames between its cursor (the standby's
durable-ack watermark) and the primary's :attr:`durable_lsn`.  A
committed frame has one encoding, on disk and on the wire, so the
sender ships the segment's bytes as they are and never decodes them:
:class:`WalTailReader` only *locates* them.  It remembers its position
— current segment file plus byte offset — and each
:meth:`~WalTailReader.poll` walks frame headers from there (no body
is read, copied or CRC'd) and returns the byte range of the next run
of committed frames, following segment rotation as the writer seals
and opens files.  The receiver verifies every frame it is sent.

Safety properties:

* only frames at or below the caller-supplied durable watermark are
  located, so a standby can never get *ahead* of what the primary has
  committed (the promotion bitwise-equality invariant depends on this);
* the walk is verified contiguous, and it always reaches the
  watermark: frames the watermark promises that are not there — a
  truncated segment, a header out of bounds, a skipped LSN — raise
  :class:`~repro.durable.wal.WalCorruptionError` naming the LSN, never
  an empty answer a caller would wait on forever.

A :class:`TailGapError` signals that the reader's cursor fell off the
retained log — compaction or retention retired the segment it needs,
or the cursor predates the compaction floor.  The sender then falls
back to a checkpoint-based resync (see ``repro.replication``).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple, Optional, Union

from repro.durable.wal import (
    _BODY_HEADER,
    _FRAME_HEADER,
    _FRAME_OVERHEAD,
    _FRAME_PREFIX,
    MAX_BODY_BYTES,
    SEGMENT_MAGIC,
    WalCorruptionError,
    WalError,
    _segment_first_lsn,
    list_segments,
    segment_path,
)

__all__ = ["TailGapError", "WalSpan", "WalTailReader"]


class TailGapError(WalError):
    """The reader's cursor points below the retained suffix of the log.

    Raised when the next expected LSN cannot be read contiguously from
    the top-level segments — its segment was retired by compaction or
    checkpoint retention.  Callers resynchronise from a checkpoint.
    """


class WalSpan(NamedTuple):
    """A run of whole, committed frames in one segment file.

    ``fd`` is the reader's descriptor of that file: valid until its
    next :meth:`~WalTailReader.poll` or :meth:`~WalTailReader.close`.
    """

    fd: int
    offset: int
    length: int
    first_lsn: int
    last_lsn: int


class WalTailReader:
    """Locator of the committed suffix of a live WAL directory.

    Parameters
    ----------
    directory:
        The WAL directory a :class:`~repro.durable.wal.WriteAheadLog`
        writer is appending into (same process or not — only the files
        are shared).
    after_lsn:
        Cursor: the first :meth:`poll` locates frames from
        ``after_lsn + 1``.

    The reader keeps the current segment open (so a segment retired
    after it was opened still reads to its end); :meth:`close` it, or
    use it as a context manager.
    """

    def __init__(
        self, directory: Union[str, Path], *, after_lsn: int = 0
    ) -> None:
        self._dir = Path(directory)
        self._next = after_lsn + 1
        self._path: Optional[Path] = None
        self._file = None
        self._offset = 0

    @property
    def next_lsn(self) -> int:
        """The LSN the next located frame will carry."""
        return self._next

    def close(self) -> None:
        """Release the open segment (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WalTailReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def poll(
        self, up_to_lsn: int, *, max_bytes: Optional[int] = None
    ) -> Optional[WalSpan]:
        """The next run of frames with ``next_lsn <= lsn <= up_to_lsn``.

        ``up_to_lsn`` must be the writer's :attr:`durable_lsn` (or any
        lower bound of it), read *before* this call: frames beyond it
        may exist on disk without being fsynced yet and are never
        located.  A run ends at the watermark, at the end of its
        segment, or before the frame that would take it past
        ``max_bytes`` (a single larger frame is a run of its own).
        Returns None only when ``next_lsn > up_to_lsn``; raises
        :class:`TailGapError` when the cursor fell below the retained
        log and :class:`~repro.durable.wal.WalCorruptionError` when the
        frames the watermark promises are not all there.
        """
        if self._next > up_to_lsn:
            return None
        if self._file is None:
            self._position()
        while True:
            span = self._walk(up_to_lsn, max_bytes)
            if span is not None:
                return span
            self._advance(up_to_lsn)

    # ------------------------------------------------------------------
    def _open(self, path: Path) -> None:
        try:
            handle = open(path, "rb", buffering=0)
        except FileNotFoundError:
            raise TailGapError(
                f"segment {path.name} was retired before the reader "
                f"opened it (cursor at lsn {self._next})"
            ) from None
        if os.pread(handle.fileno(), len(SEGMENT_MAGIC), 0) != SEGMENT_MAGIC:
            handle.close()
            raise WalCorruptionError(f"segment {path.name} has a bad header")
        self.close()
        self._file, self._path = handle, path
        self._offset = len(SEGMENT_MAGIC)

    def _position(self) -> None:
        """Open the segment that holds ``_next`` and walk to its frame.

        Only called while ``_next`` is at or below the durable
        watermark, so the frames it needs were written: raises
        :class:`TailGapError` when no top-level segment holds them —
        there is none (a compaction retired them all and nothing was
        written since) or every segment starts above the cursor.
        """
        chosen = None
        for seg in list_segments(self._dir):
            if _segment_first_lsn(seg) <= self._next:
                chosen = seg
            else:
                break
        if chosen is None:
            raise TailGapError(
                f"records at lsn {self._next} are no longer in the "
                f"top-level segments of {self._dir}"
            )
        self._open(chosen)
        fd, offset = self._file.fileno(), self._offset
        while True:
            header = os.pread(fd, _FRAME_OVERHEAD, offset)
            if len(header) < _FRAME_OVERHEAD:
                break
            length, _crc, _rtype, lsn = _FRAME_PREFIX.unpack(header)
            if lsn >= self._next:
                break
            defect = self._length_defect(offset, length)
            if defect is not None:
                raise WalCorruptionError(defect)
            offset += _FRAME_HEADER.size + length
        self._offset = offset

    def _walk(
        self, up_to_lsn: int, max_bytes: Optional[int]
    ) -> Optional[WalSpan]:
        """Locate the run of frames from the current position; None when
        the segment holds no further frame."""
        fd = self._file.fileno()
        size = os.fstat(fd).st_size
        start = offset = self._offset
        first = self._next
        while self._next <= up_to_lsn:
            header = os.pread(fd, _FRAME_OVERHEAD, offset)
            if len(header) < _FRAME_OVERHEAD:
                break
            length, _crc, _rtype, lsn = _FRAME_PREFIX.unpack(header)
            end = offset + _FRAME_HEADER.size + length
            defect = self._length_defect(offset, length)
            if defect is None and lsn != self._next:
                defect = (
                    f"LSN gap in {self._path.name}: expected "
                    f"{self._next}, found {lsn}"
                )
            if defect is None and end > size:
                defect = (
                    f"frame at lsn {lsn} runs past the end of "
                    f"{self._path.name}, below the durable watermark "
                    f"{up_to_lsn}"
                )
            if defect is not None:
                if offset > start:
                    break  # ship what precedes it; the next poll raises
                raise WalCorruptionError(defect)
            if max_bytes is not None and offset > start and end - start > max_bytes:
                break
            offset = end
            self._next = lsn + 1
        if offset == start:
            return None
        self._offset = offset
        return WalSpan(fd, start, offset - start, first, self._next - 1)

    def _advance(self, up_to_lsn: int) -> None:
        """The current segment holds no frame at ``_next``: move to the
        segment the writer opened for it, or say why there is none."""
        successor = segment_path(self._dir, self._next)
        if successor != self._path and successor.is_file():
            self._open(successor)
            return
        if self._path.is_file():
            raise WalCorruptionError(
                f"{self._path.name} ends before lsn {self._next} and no "
                f"segment follows it, below the durable watermark "
                f"{up_to_lsn}"
            )
        raise TailGapError(
            f"segment {self._path.name} was retired under the "
            f"reader (cursor at lsn {self._next})"
        )

    def _length_defect(self, offset: int, length: int) -> Optional[str]:
        if _BODY_HEADER.size <= length <= MAX_BODY_BYTES:
            return None
        return (
            f"frame at byte {offset} of {self._path.name} declares a "
            f"body of {length} bytes"
        )
