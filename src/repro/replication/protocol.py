"""Wire protocol of the WAL-shipping replication stream.

Replication reuses the shared frame format (u32 length | u8 type |
payload, see :mod:`repro.net.framing`) with its own disjoint type
range: durable record types own 1..31, worker control frames own
32..49, replication frames start at 50.

Stream shape (sender = primary, dialing; standby = listening):

1. sender → ``HELLO`` (JSON: format version, primary identity);
2. standby → ``CURSOR`` (u64: its durable-ack watermark — the LSN of
   the last record it holds on its own disk);
3. sender → ``RECORDS`` groups (each a batch of committed WAL records
   above the cursor), answered one-for-one by standby → ``ACK`` (u64:
   the standby's new durable watermark).  The ack is sent only after
   the standby's *own* WAL has committed the group, which is what makes
   the cursor crash-safe on both ends;
4. when the cursor predates the primary's compaction floor the suffix
   no longer exists; the sender ships a covering ``CHECKPOINT`` (the
   newest checkpoint file's bytes, whose header carries its LSN) first
   and resumes ``RECORDS`` above it.

Read-side clients (:class:`~repro.replication.client.ReplicaReadClient`)
use ``READ_REQ``/``READ_RESP`` (truth snapshots; a request carries the
version of the reader's last reply, and an empty ``READ_RESP`` means
that version still holds), ``STATUS_REQ``/
``STATUS_RESP`` (watermarks, campaigns, spent budget) and
``PROMOTE_REQ``/``PROMOTE_RESP`` on the same listener.  A
``PROMOTE_REQ`` may carry a JSON body with a monotone fencing
``epoch``; the standby persists the highest epoch it has accepted and
refuses anything stale, which is what makes a partitioned watchdog's
late promote harmless.  Watchdogs vote among themselves with
``WD_VOTE_REQ``/``WD_VOTE_RESP`` and announce success with
``WD_PROMOTED``.  Liveness and shutdown reuse the worker protocol's
``PING``/``PONG``/``SHUTDOWN``.
"""

from __future__ import annotations

import json
import struct

from repro.durable.records import WalRecord
from repro.workers.protocol import ProtocolError

#: Protocol format version carried in HELLO.
REPLICATION_FORMAT = 1

# Frame types (50..69 reserved for replication).
HELLO = 50
CURSOR = 51
RECORDS = 52
ACK = 53
CHECKPOINT = 54
READ_REQ = 55
READ_RESP = 56
STATUS_REQ = 57
STATUS_RESP = 58
PROMOTE_REQ = 59
PROMOTE_RESP = 60
REPL_ERROR = 61
#: Watchdog peer protocol (quorum-fenced promotion): a watchdog asks
#: its peers for votes before promoting, and announces a completed
#: promotion so stragglers stand down.
WD_VOTE_REQ = 62
WD_VOTE_RESP = 63
WD_PROMOTED = 64

_LSN = struct.Struct("<Q")
_COUNT = struct.Struct("<I")
#: Per-record header inside a RECORDS group: type, LSN, payload length.
_REC_HEADER = struct.Struct("<BQI")


def encode_json(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> dict:
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(body, dict):
        raise ProtocolError("JSON payload must be an object")
    return body


def encode_lsn(lsn: int) -> bytes:
    if lsn < 0:
        raise ProtocolError(f"lsn must be >= 0, got {lsn}")
    return _LSN.pack(lsn)


def decode_lsn(payload: bytes) -> int:
    if len(payload) != _LSN.size:
        raise ProtocolError(
            f"lsn payload must be {_LSN.size} bytes, got {len(payload)}"
        )
    return _LSN.unpack(payload)[0]


def encode_records(records: list[WalRecord]) -> bytes:
    """One RECORDS group: count, then (type | LSN | length | payload)*."""
    parts = [_COUNT.pack(len(records))]
    for record in records:
        payload = bytes(record.payload)
        parts.append(
            _REC_HEADER.pack(record.rtype, record.lsn, len(payload))
        )
        parts.append(payload)
    return b"".join(parts)


def decode_records(payload: bytes) -> list[WalRecord]:
    """Inverse of :func:`encode_records`; validates framing exactly."""
    if len(payload) < _COUNT.size:
        raise ProtocolError("RECORDS group too short for its count")
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    records: list[WalRecord] = []
    for _ in range(count):
        if offset + _REC_HEADER.size > len(payload):
            raise ProtocolError("RECORDS group truncated mid-header")
        rtype, lsn, length = _REC_HEADER.unpack_from(payload, offset)
        offset += _REC_HEADER.size
        if offset + length > len(payload):
            raise ProtocolError("RECORDS group truncated mid-payload")
        records.append(
            WalRecord(
                lsn=lsn,
                rtype=rtype,
                payload=payload[offset:offset + length],
            )
        )
        offset += length
    if offset != len(payload):
        raise ProtocolError(
            f"RECORDS group has {len(payload) - offset} trailing byte(s)"
        )
    return records

