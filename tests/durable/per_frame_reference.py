"""The per-frame WAL writer's on-disk layout, frozen as a reference.

Before group commit had one write path, the synchronous writer framed
and wrote each record on its own.  This module keeps that writer's
output as a pure function of the appended records: the group writer
must produce exactly these segment names and bytes in every mode and
under every fsync policy, wherever its groups happen to end.

The rule it freezes: a segment starts with the 8-byte magic and is
named after its first LSN; a frame goes into the current segment
unless that would push the segment past ``max_segment_bytes`` *and*
the segment already holds a frame, in which case it opens the next.
"""

import struct
import zlib

MAGIC = b"RPWAL001"
_FRAME_HEADER = struct.Struct("<II")  # body length, CRC-32
_BODY_HEADER = struct.Struct("<BQ")  # record type, LSN


def frame(rtype: int, lsn: int, payload: bytes) -> bytes:
    """One record's frame: header, then body = type | LSN | payload."""
    body = _BODY_HEADER.pack(rtype, lsn) + payload
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def segments(records, max_segment_bytes: int, start_lsn: int = 1) -> dict:
    """``{segment file name: bytes}`` for ``(rtype, payload)`` records
    appended in order from ``start_lsn`` by one writer."""
    out: dict[str, bytearray] = {}
    current = None
    for lsn, (rtype, payload) in enumerate(records, start=start_lsn):
        data = frame(rtype, lsn, payload)
        if (
            current is not None
            and len(current) + len(data) > max_segment_bytes
            and len(current) > len(MAGIC)
        ):
            current = None
        if current is None:
            current = out.setdefault(f"wal-{lsn:020d}.seg", bytearray(MAGIC))
        current += data
    return {name: bytes(data) for name, data in out.items()}
