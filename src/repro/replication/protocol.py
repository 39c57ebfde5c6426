"""Wire protocol of the WAL-shipping replication stream.

Replication reuses the shared frame format (u32 length | u8 type |
payload, see :mod:`repro.net.framing`) with its own disjoint type
range: durable record types own 1..31, worker control frames own
32..49, replication frames start at 50.

Stream shape (sender = primary, dialing; standby = listening):

1. sender → ``HELLO`` (JSON: format version, primary identity); a
   standby refuses any format but its own (:data:`REPLICATION_FORMAT`)
   by name;
2. standby → ``CURSOR`` (u64: its durable-ack watermark — the LSN of
   the last record it holds on its own disk);
3. sender → ``RECORDS`` groups, answered one-for-one by standby →
   ``ACK`` (u64: the standby's new durable watermark).  A group's
   payload is a run of committed WAL frames above the cursor, exactly
   as the primary's segment file holds them (``u32`` body length |
   ``u32`` CRC-32 | ``u8`` type | ``u64`` LSN | payload, see
   :mod:`repro.durable.wal`): the sender ``sendfile``s the bytes
   without reading them, and the standby checks every frame's bounds,
   CRC, type and LSN (:func:`verify_records`) and stores the frames
   unchanged.  The ack is sent only after the standby's *own* WAL has
   committed the group, which is what makes the cursor crash-safe on
   both ends;
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

from repro.durable.wal import WalCorruptionError, WalFrame, split_frames
from repro.workers.protocol import ProtocolError

#: Protocol format version carried in HELLO: 2 ships RECORDS groups as
#: the WAL's own frames (format 1 re-encoded each record).
REPLICATION_FORMAT = 2

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


def verify_records(payload: bytes, after_lsn: int) -> list[WalFrame]:
    """The frames of one RECORDS group above ``after_lsn``, verified.

    ``payload`` is whole WAL frames back to back, as the primary's
    segment holds them.  Each frame's length bounds, CRC and record type
    are checked (:func:`~repro.durable.wal.split_frames`) and the LSNs
    must run on one by one.  Frames at or below ``after_lsn`` — history
    a reconnect replays — are dropped, and the first frame above it must
    be ``after_lsn + 1``.  Any defect raises :class:`ProtocolError`
    naming it, before the caller has stored or applied anything.
    """
    try:
        frames = split_frames(payload)
    except WalCorruptionError as exc:
        raise ProtocolError(f"RECORDS group refused: {exc}") from exc
    for before, frame in zip(frames, frames[1:]):
        if frame.lsn != before.lsn + 1:
            raise ProtocolError(
                f"RECORDS group refused: lsn {frame.lsn} follows "
                f"lsn {before.lsn}"
            )
    fresh = [frame for frame in frames if frame.lsn > after_lsn]
    if fresh and fresh[0].lsn != after_lsn + 1:
        raise ProtocolError(
            f"stream gap: expected lsn {after_lsn + 1}, got {fresh[0].lsn}"
        )
    return fresh
