"""Wire protocol between the ingest process and its shard workers.

Everything that crosses the process boundary is a *frame*::

    u32  length of everything after this field (little-endian)
    u8   frame type
    ...  payload

Frames travel over TCP (:class:`~repro.net.transport.SocketConnection`
writes them, the shared :class:`~repro.net.framing.FrameReader` reads
them back off the byte stream); the explicit length prefix is what keeps
a stream of them self-describing.

The data plane reuses :mod:`repro.durable.records` wholesale: a claim
batch crosses as its write-ahead-log record under the ``BATCH`` record
type (:func:`~repro.durable.records.batch_encoder` writes it,
:func:`~repro.durable.records.decode_batch` reads it), and campaign
lifecycle / service configuration cross as the same JSON control
records (``CONFIG`` / ``REGISTER`` / ``UNREGISTER`` / ``REFRESH``) the
write-ahead log stores.  Worker-only
control frames (snapshot and state RPCs, the readiness handshake,
shutdown) use a disjoint type range so the two namespaces can never
collide.

RPC payloads that carry aggregator state — arbitrary nested dicts with
NumPy arrays at the leaves — are raw frames (:func:`pack_state` /
:func:`unpack_state`): a ``u32`` length, a JSON manifest in which each
array is ``{"__nd__": [dtype_str, shape, offset]}``, then the arrays'
contiguous little-endian bytes — the one state encoding, which a
checkpoint file frames with a version and a CRC
(:mod:`repro.durable.checkpoint`).
"""

from __future__ import annotations

import struct

from repro.durable import checkpoint
from repro.durable.records import RecordError

# ---------------------------------------------------------------------------
# Frame types.  1..31 is reserved for repro.durable.records record types
# (CONFIG/REGISTER/UNREGISTER/BATCH/REFRESH cross the wire unchanged);
# worker-only control frames start at 32.

#: Snapshot RPC: request one campaign's truths/weights/counters.
SNAPSHOT_REQ = 32
#: Snapshot RPC response (``pack_state`` payload).
SNAPSHOT_RESP = 33
#: State RPC: request one campaign aggregator's full ``state_dict``.
STATE_REQ = 34
#: State RPC response (``pack_state`` payload).
STATE_RESP = 35
#: Restore a previously captured ``state_dict`` into a worker aggregator.
LOAD_STATE = 36
#: Barrier: ask the worker to acknowledge once all prior frames are done.
SYNC_REQ = 37
#: Barrier acknowledgement.
SYNC_RESP = 38
#: Worker -> parent: startup handshake completed.
READY = 40
#: Worker -> parent: the worker failed; payload carries the traceback.
ERROR = 41
#: Parent -> worker: drain and exit cleanly.
SHUTDOWN = 42
#: Liveness probe (any peer -> shard host); answered with PONG.
PING = 43
#: Liveness probe response.
PONG = 44
#: Stats RPC: request the worker's metric-registry snapshot.
STATS_REQ = 45
#: Stats RPC response (JSON ``RegistrySnapshot.to_dict()`` payload).
STATS_RESP = 46

_HEADER = struct.Struct("<IB")


class ProtocolError(RecordError):
    """A frame failed to encode or decode."""


def encode_frame(rtype: int, payload: bytes) -> bytes:
    """One length-prefixed frame as bytes."""
    return frame_header(rtype, len(payload)) + payload


def frame_header(rtype: int, payload_len: int) -> bytes:
    """The length prefix and type byte of a frame whose ``payload_len``
    payload bytes follow it on the stream."""
    if not 0 < rtype < 256:
        raise ProtocolError(f"frame type must fit a u8, got {rtype}")
    return _HEADER.pack(payload_len + 1, rtype)


# ---------------------------------------------------------------------------
# State payloads: nested dicts with NumPy arrays at the leaves, as a
# JSON manifest plus raw array bytes (the durable tier owns the codec).
# A STATE_RESP body and a LOAD_STATE payload are the same envelope,
# ``{"campaign_id", "state"}``, so a captured response replays verbatim.


def pack_state(payload: dict) -> bytes:
    """Encode a dict-with-arrays payload (snapshot / state RPCs)."""
    try:
        return checkpoint.pack_payload(payload)
    except checkpoint.CheckpointError as exc:
        raise ProtocolError(str(exc)) from exc


def unpack_state(blob: bytes) -> dict:
    """Inverse of :func:`pack_state`."""
    try:
        return checkpoint.unpack_payload(blob)
    except checkpoint.CheckpointError as exc:
        raise ProtocolError(f"malformed state payload: {exc}") from exc


def state_campaign(blob: bytes) -> str:
    """Campaign id of a state envelope, read off the manifest alone."""
    try:
        return checkpoint.payload_manifest(blob)[0]["campaign_id"]
    except (checkpoint.CheckpointError, KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed state payload: {exc}") from exc
