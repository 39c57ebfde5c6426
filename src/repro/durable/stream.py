"""Incremental cursor reads over a live WAL directory.

Replication ships the log as it grows: after every group commit the
sender needs the frames between its cursor (the standby's durable-ack
watermark) and the primary's :attr:`durable_lsn`.  A committed frame
has one encoding, on disk and on the wire, so the sender ships the
segment's bytes as they are and never decodes them:
:class:`WalTailReader` only *locates* them.  It keeps two positions in
its open segment file: the *ship* position (the first frame not yet
handed out) and the *scan* position (the first frame not yet walked).
The frames between them are the *held* span.  Each
:meth:`~WalTailReader.scan` walks frame headers from the scan position
only (no body is read, copied or CRC'd, and no held header is walked
twice) and grows the held span; :meth:`~WalTailReader.take` hands it
out.  A held span is *complete* — it can grow no further — once the
next committed frame would take it past ``max_bytes`` or lies in the
next segment file, so a caller that takes only complete spans ships
groups that are a function of the committed bytes alone: the greedy
packing of each segment's frames.  :meth:`~WalTailReader.poll` takes
whatever the scan reached, following segment rotation as the writer
seals and opens files.  The receiver verifies every frame it is sent.

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

    ``fd`` is the reader's descriptor of that file: valid until the
    reader moves to another segment or is closed.
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
        Cursor: the first span handed out starts at ``after_lsn + 1``.

    The reader keeps the current segment open (so a segment retired
    after it was opened still reads to its end); :meth:`close` it, or
    use it as a context manager.  The held span never leaves that
    segment: the reader moves to the next one only once it has handed
    out every frame of this one.
    """

    def __init__(
        self, directory: Union[str, Path], *, after_lsn: int = 0
    ) -> None:
        self._dir = Path(directory)
        self._path: Optional[Path] = None
        self._file = None
        # Ship position: the held span starts here.
        self._ship_lsn = after_lsn + 1
        self._ship_offset = 0
        # Scan position: the held span ends here.
        self._next = after_lsn + 1
        self._offset = 0
        self._complete = False

    @property
    def next_lsn(self) -> int:
        """The LSN the next span handed out will start at."""
        return self._ship_lsn

    @property
    def scan_lsn(self) -> int:
        """The LSN the next :meth:`scan` walks first: one past the held
        span."""
        return self._next

    @property
    def complete(self) -> bool:
        """True once the held span can grow no further: it holds
        ``max_bytes``, or the next committed frame would take it past
        them, lies in the next segment, or cannot be walked."""
        return self._complete

    @property
    def held(self) -> Optional[WalSpan]:
        """The frames walked but not yet handed out, or None."""
        if self._next == self._ship_lsn:
            return None
        return WalSpan(
            self._file.fileno(),
            self._ship_offset,
            self._offset - self._ship_offset,
            self._ship_lsn,
            self._next - 1,
        )

    def close(self) -> None:
        """Release the open segment (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WalTailReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def scan(
        self, up_to_lsn: int, *, max_bytes: Optional[int] = None
    ) -> Optional[WalSpan]:
        """Grow the held span with the frames up to ``up_to_lsn``; return
        it (None when nothing is held).

        ``up_to_lsn`` must be the writer's :attr:`durable_lsn` (or any
        lower bound of it), read *before* this call: frames beyond it
        may exist on disk without being fsynced yet and are never
        walked.  Only headers above the held span are read.  The span
        stops growing (:attr:`complete`) once it holds ``max_bytes``,
        before the frame that would take it past them (a single larger
        frame is a span of its own), at the end of its segment when the
        next committed frame lies beyond it, and before a frame that
        cannot be walked.
        Raises :class:`TailGapError` when the cursor fell below the
        retained log and :class:`~repro.durable.wal.WalCorruptionError`
        when, with nothing held, the frames the watermark promises are
        not all there.
        """
        while not self._complete and self._next <= up_to_lsn:
            if self._file is None:
                self._position()
            if self._walk(up_to_lsn, max_bytes) or self._next > up_to_lsn:
                break
            # The segment holds no frame at ``_next``, which is committed.
            if self._next > self._ship_lsn:
                self._complete = True
            else:
                self._advance(up_to_lsn)
        return self.held

    def take(self) -> None:
        """Hand out the held span: the next one starts after it."""
        self._ship_lsn, self._ship_offset = self._next, self._offset
        self._complete = False

    def poll(
        self, up_to_lsn: int, *, max_bytes: Optional[int] = None
    ) -> Optional[WalSpan]:
        """Scan to ``up_to_lsn`` and hand out the held span, complete or
        not: the next run of frames with ``next_lsn <= lsn <=
        up_to_lsn``.

        A run ends at the watermark, at the end of its segment, or where
        ``max_bytes`` completes it.  Returns None only when ``next_lsn >
        up_to_lsn``; raises as :meth:`scan` does.
        """
        span = self.scan(up_to_lsn, max_bytes=max_bytes)
        self.take()
        return span

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
        self._offset = self._ship_offset = len(SEGMENT_MAGIC)

    def _position(self) -> None:
        """Open the segment that holds the ship position and walk to its
        frame; anything held before a :meth:`close` is walked again.

        Only called while that LSN is at or below the durable
        watermark, so the frames it needs were written: raises
        :class:`TailGapError` when no top-level segment holds them —
        there is none (a compaction retired them all and nothing was
        written since) or every segment starts above the cursor.
        """
        self._next, self._complete = self._ship_lsn, False
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
        self._offset = self._ship_offset = offset

    def _walk(self, up_to_lsn: int, max_bytes: Optional[int]) -> bool:
        """Extend the held span from the scan position; True when it
        became complete, False when it reached the watermark or the
        segment holds no further frame."""
        fd = self._file.fileno()
        size = os.fstat(fd).st_size
        start, offset = self._ship_offset, self._offset
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
                    # Hand out what precedes it; the next scan raises.
                    self._complete = True
                    break
                raise WalCorruptionError(defect)
            if max_bytes is not None and offset > start and end - start > max_bytes:
                self._complete = True
                break
            offset = end
            self._next = lsn + 1
            if max_bytes is not None and offset - start >= max_bytes:
                self._complete = True
                break
        self._offset = offset
        return self._complete

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
