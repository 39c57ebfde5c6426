"""The per-record replication path, frozen as the equivalence reference.

Before a RECORDS group carried the WAL's own frames, the sender read
the committed suffix into :class:`~repro.durable.records.WalRecord` s
(reading, parsing and CRC-checking every frame), re-encoded them as
``count | (type | LSN | length | payload)*``, and the standby decoded
that and appended each record to its own log one by one — trusting
that frames are a function of ``(type, LSN, payload)`` to make its log
the primary's.  This module keeps that path: :class:`PerRecordTailReader`,
:func:`encode_records` / :func:`decode_records`, and :func:`store`
(one ``append`` per record).  The frame-shipping path must leave the
standby's log byte-identical to what this one writes, and its applied
state bitwise equal.
"""

import struct
from pathlib import Path

from repro.durable.records import WalRecord
from repro.durable.wal import (
    _BODY_HEADER,
    SEGMENT_MAGIC,
    _iter_frames,
    _segment_first_lsn,
    list_segments,
    segment_path,
)

_COUNT = struct.Struct("<I")
_REC_HEADER = struct.Struct("<BQI")


class ReferenceGapError(Exception):
    """The cursor fell below the retained log (the old ``TailGapError``)."""


class PerRecordTailReader:
    """The record-materialising tail reader: ``poll`` returns the
    committed records above the cursor, up to the watermark."""

    def __init__(self, directory, *, after_lsn: int = 0) -> None:
        self._dir = Path(directory)
        self._next = after_lsn + 1
        self._path = None
        self._offset = 0

    @property
    def next_lsn(self) -> int:
        return self._next

    def poll(self, up_to_lsn: int) -> list[WalRecord]:
        records: list[WalRecord] = []
        while self._next <= up_to_lsn:
            if self._path is None:
                self._select_segment()
            if not self._drain_segment(up_to_lsn, records):
                break
        return records

    def _select_segment(self) -> None:
        chosen = None
        for seg in list_segments(self._dir):
            if _segment_first_lsn(seg) <= self._next:
                chosen = seg
            else:
                break
        if chosen is None:
            raise ReferenceGapError(f"lsn {self._next} is not retained")
        self._path = chosen
        self._offset = len(SEGMENT_MAGIC)

    def _drain_segment(self, up_to_lsn: int, records: list) -> bool:
        try:
            with open(self._path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            raise ReferenceGapError(f"{self._path.name} was retired") from None
        base = self._offset
        for _offset, body_start, body in _iter_frames(data, 0):
            rtype, lsn = _BODY_HEADER.unpack_from(body, 0)
            if lsn > up_to_lsn:
                return False
            self._offset = base + body_start + len(body)
            if lsn < self._next:
                continue
            if lsn != self._next:
                raise ReferenceGapError(f"expected {self._next}, found {lsn}")
            records.append(
                WalRecord(lsn=lsn, rtype=rtype, payload=body[_BODY_HEADER.size:])
            )
            self._next = lsn + 1
        successor = segment_path(self._dir, self._next)
        if successor != self._path and successor.is_file():
            self._path = successor
            self._offset = len(SEGMENT_MAGIC)
            return True
        return False


def encode_records(records: list[WalRecord]) -> bytes:
    """One format-1 RECORDS group: count, then (type | LSN | length | payload)*."""
    parts = [_COUNT.pack(len(records))]
    for record in records:
        payload = bytes(record.payload)
        parts.append(_REC_HEADER.pack(record.rtype, record.lsn, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_records(payload: bytes) -> list[WalRecord]:
    """Inverse of :func:`encode_records`; validates framing exactly."""
    if len(payload) < _COUNT.size:
        raise ValueError("RECORDS group too short for its count")
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    records: list[WalRecord] = []
    for _ in range(count):
        if offset + _REC_HEADER.size > len(payload):
            raise ValueError("RECORDS group truncated mid-header")
        rtype, lsn, length = _REC_HEADER.unpack_from(payload, offset)
        offset += _REC_HEADER.size
        if offset + length > len(payload):
            raise ValueError("RECORDS group truncated mid-payload")
        records.append(
            WalRecord(lsn=lsn, rtype=rtype, payload=payload[offset:offset + length])
        )
        offset += length
    if offset != len(payload):
        raise ValueError(f"RECORDS group has {len(payload) - offset} trailing byte(s)")
    return records


def store(wal, records: list[WalRecord]) -> list[WalRecord]:
    """The old standby's store step: skip what the log holds, refuse a
    gap, append each fresh record; returns the fresh ones."""
    fresh = []
    for record in records:
        if record.lsn <= wal.last_lsn:
            continue
        if record.lsn != wal.next_lsn:
            raise ValueError(f"stream gap: expected {wal.next_lsn}, got {record.lsn}")
        assert wal.append(record.rtype, record.payload) == record.lsn
        fresh.append(record)
    return fresh
