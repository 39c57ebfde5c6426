"""Incremental cursor reads over a live WAL directory.

Replication ships the log as it grows: after every group commit the
sender needs exactly the records between its cursor (the standby's
durable-ack watermark) and the primary's :attr:`durable_lsn`.
Re-reading whole segments per group would be quadratic, so
:class:`WalTailReader` remembers its position — current segment file
plus byte offset — and each :meth:`~WalTailReader.poll` reads only the
newly appended bytes, following segment rotation as the writer seals
and opens files.

Safety properties:

* only *complete, CRC-valid* frames are consumed — a partially written
  frame at the tail is left alone and retried on the next poll;
* only records at or below the caller-supplied durable watermark are
  emitted, so a standby can never get *ahead* of what the primary has
  committed (the promotion bitwise-equality invariant depends on this);
* the stream is verified contiguous: a skipped LSN raises
  :class:`TailGapError` instead of silently shipping a log with holes.

A :class:`TailGapError` also signals that the reader's cursor fell off
the retained log — compaction retired the segment it was reading, or
the cursor predates the compaction floor.  The sender then falls back
to a checkpoint-based resync (see ``repro.replication``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.durable.records import WalRecord
from repro.durable.wal import (
    _BODY_HEADER,
    SEGMENT_MAGIC,
    WalError,
    _iter_frames,
    _segment_first_lsn,
    list_segments,
    segment_path,
)

__all__ = ["TailGapError", "WalTailReader"]


class TailGapError(WalError):
    """The reader's cursor points below the retained suffix of the log.

    Raised when the next expected LSN cannot be read contiguously from
    the top-level segments — its segment was retired by compaction or
    checkpoint retention.  Callers resynchronise from a checkpoint.
    """


class WalTailReader:
    """Stateful reader of the committed suffix of a live WAL directory.

    Parameters
    ----------
    directory:
        The WAL directory a :class:`~repro.durable.wal.WriteAheadLog`
        writer is appending into (same process or not — only the files
        are shared).
    after_lsn:
        Cursor: the first :meth:`poll` returns records starting at
        ``after_lsn + 1``.
    """

    def __init__(
        self, directory: Union[str, Path], *, after_lsn: int = 0
    ) -> None:
        self._dir = Path(directory)
        self._next = after_lsn + 1
        self._path: Path | None = None
        self._offset = 0

    @property
    def next_lsn(self) -> int:
        """The LSN the next emitted record will carry."""
        return self._next

    def poll(self, up_to_lsn: int) -> list[WalRecord]:
        """Newly committed records with ``next_lsn <= lsn <= up_to_lsn``.

        ``up_to_lsn`` must be the writer's :attr:`durable_lsn` (or any
        lower bound of it): frames beyond it may exist on disk without
        being fsynced yet and are never emitted.  Returns an empty list
        when nothing new is readable; raises :class:`TailGapError` when
        the cursor fell below the retained log.
        """
        records: list[WalRecord] = []
        while self._next <= up_to_lsn:
            if self._path is None:
                self._select_segment()
            if not self._drain_segment(up_to_lsn, records):
                break
        return records

    # ------------------------------------------------------------------
    def _select_segment(self) -> None:
        """Position on the segment that holds ``_next``.

        Only called while ``_next`` is at or below the durable
        watermark, so the records it needs were written: raises
        :class:`TailGapError` when no top-level segment holds them —
        there is none (a compaction retired them all and nothing was
        written since) or every segment starts above the cursor.
        """
        segments = list_segments(self._dir)
        chosen = None
        for seg in segments:
            if _segment_first_lsn(seg) <= self._next:
                chosen = seg
            else:
                break
        if chosen is None:
            raise TailGapError(
                f"records at lsn {self._next} are no longer in the "
                f"top-level segments of {self._dir}"
            )
        self._path = chosen
        self._offset = len(SEGMENT_MAGIC)

    def _drain_segment(
        self, up_to_lsn: int, records: list[WalRecord]
    ) -> bool:
        """Consume complete frames from the current position.

        Returns True when the caller should keep looping (we rotated
        into a fresh segment), False when no more committed frames are
        readable right now.
        """
        try:
            with open(self._path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            raise TailGapError(
                f"segment {self._path.name} was retired under the "
                f"reader (cursor at lsn {self._next})"
            ) from None
        base = self._offset
        for _offset, body_start, body in _iter_frames(data, 0):
            rtype, lsn = _BODY_HEADER.unpack_from(body, 0)
            if lsn > up_to_lsn:
                # On disk but not yet acknowledged durable; leave the
                # offset here and re-read once the watermark advances.
                return False
            self._offset = base + body_start + len(body)
            if lsn < self._next:
                continue
            if lsn != self._next:
                raise TailGapError(
                    f"LSN gap in {self._path.name}: expected "
                    f"{self._next}, found {lsn}"
                )
            records.append(
                WalRecord(
                    lsn=lsn, rtype=rtype, payload=body[_BODY_HEADER.size:]
                )
            )
            self._next = lsn + 1
        # No further complete frame here.  The writer rotates by
        # sealing the current segment and opening one named after the
        # next record's LSN, so a successor segment for ``_next`` means
        # the current one is exhausted for good.
        successor = segment_path(self._dir, self._next)
        if successor != self._path and successor.is_file():
            self._path = successor
            self._offset = len(SEGMENT_MAGIC)
            return True
        return False
