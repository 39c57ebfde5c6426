"""Serialisable record formats for the durable ingestion subsystem.

Everything the write-ahead log persists is one of a small set of typed
records.  The hot-path record — an accepted micro-batch — is encoded as
:class:`WorkItem`, a compact columnar binary layout (no JSON, no
pickle); the control records (campaign registration, a commit group's
ledger charges, user-table growth, service configuration) are UTF-8
JSON.

:class:`WorkItem` doubles as the service's serialisable work-item
format: it is exactly one shard work item — ``(campaign_id,
user_slots, object_slots, values)`` — so the same encoding can carry
items across a process or RPC boundary (the ROADMAP's multi-process
shard evolution) as well as onto disk.

Binary layout of a :class:`WorkItem` (all little-endian)::

    u16  campaign-id byte length
    ...  campaign id (UTF-8)
    u8   flags (bit 0: slot columns are i32; bit 1: u16)
    u32  claim count n
    n *  i64/i32/u16 user slots
    n *  i64/i32/u16 object slots
    n *  f64 values

Slot columns are written in the narrowest of u16/i32/i64 that fits
(u16 almost always does — slots index bounded user tables and object
universes), which cuts the log to 12 bytes per claim; values are
always f64 so replayed aggregation is bit-for-bit identical.  Wider
encodings remain readable, so logs written by older versions replay
unchanged.

A BATCH payload has one encoder and one decoder.  :func:`batch_encoder`
is what the write-ahead log (``DurabilityManager.log_batch``) and the
shard fabric (``RemoteAggregator.ingest``) both call, so a batch's log
record and its frame are the same bytes; :func:`decode_batch` is what
every reader that aggregates a batch calls: the shard host, crash
recovery and a standby's replay.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass

import numpy as np

from repro.truthdiscovery.streaming import ClaimBatch

# ---------------------------------------------------------------------------
# Record types.  Values are stable on-disk identifiers — never renumber.

#: Service configuration + ledger caps, written once per attach (JSON).
CONFIG = 1
#: Campaign registration spec (JSON).
REGISTER = 2
#: Campaign removal (JSON).
UNREGISTER = 3
#: New user-slot assignments for a campaign (JSON).
USERS = 4
#: One accepted micro-batch (binary :class:`WorkItem`).
BATCH = 5
#: Admitted privacy-budget charges (JSON): one record per commit group,
#: see :func:`encode_charge_group`.  Format 2 wrote one
#: ``{"user_id", "epsilon", "delta", "label"}`` body per charge; both
#: decode through :func:`charge_entries`.
CHARGE = 6
#: A read-forced aggregator refresh (JSON); replayed so the streaming
#: backend folds staged claims at the same points it did live.
REFRESH = 7

RECORD_TYPES = (CONFIG, REGISTER, UNREGISTER, USERS, BATCH, CHARGE, REFRESH)

_JSON_TYPES = frozenset(
    (CONFIG, REGISTER, UNREGISTER, USERS, CHARGE, REFRESH)
)

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: WorkItem flag: slot columns encoded as i32.
_FLAG_NARROW_SLOTS = 0x01
#: WorkItem flag: slot columns encoded as u16 (takes precedence).
_FLAG_U16_SLOTS = 0x02
_SLOT_U16, _SLOT_I32, _SLOT_I64 = (np.dtype(t) for t in ("<u2", "<i4", "<i8"))
_VALUE = np.dtype("<f8")


class RecordError(ValueError):
    """A record payload failed to encode or decode."""


@dataclass(frozen=True)
class WorkItem:
    """One serialisable shard work item: a campaign's claim columns."""

    campaign_id: str
    user_slots: np.ndarray
    object_slots: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        user_slots = np.asarray(self.user_slots, dtype=np.int64)
        object_slots = np.asarray(self.object_slots, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if not (user_slots.shape == object_slots.shape == values.shape):
            raise ValueError("work-item columns must share a shape")
        if user_slots.ndim != 1:
            raise ValueError("work-item columns must be 1-D")
        if user_slots.size == 0:
            raise ValueError("work item must carry at least one claim")
        object.__setattr__(self, "user_slots", user_slots)
        object.__setattr__(self, "object_slots", object_slots)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.size

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Columnar binary encoding (see the module docstring)."""
        cid = self.campaign_id.encode("utf-8")
        if len(cid) > 0xFFFF:
            raise RecordError(
                f"campaign id of {len(cid)} bytes exceeds the 64KiB limit"
            )
        # Slots are non-negative small integers in practice; narrow
        # them to the smallest width that fits (u16 covers bounded
        # user tables and object universes) — every logged index byte
        # is a byte written, CRC'd, and fsynced on the hot path.
        high = max(
            self.user_slots.max(initial=0),
            self.object_slots.max(initial=0),
        )
        low = min(
            self.user_slots.min(initial=0),
            self.object_slots.min(initial=0),
        )
        if 0 <= low and high < 2**16:
            flags = _FLAG_U16_SLOTS
            slot_dtype = "<u2"
        elif -(2**31) <= low and high < 2**31:
            flags = _FLAG_NARROW_SLOTS
            slot_dtype = "<i4"
        else:
            flags = 0
            slot_dtype = "<i8"
        parts = [
            _U16.pack(len(cid)),
            cid,
            _U8.pack(flags),
            _U32.pack(self.size),
            np.ascontiguousarray(
                self.user_slots.astype(slot_dtype, copy=False)
            ).tobytes(),
            np.ascontiguousarray(
                self.object_slots.astype(slot_dtype, copy=False)
            ).tobytes(),
            np.ascontiguousarray(self.values, dtype="<f8").tobytes(),
        ]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "WorkItem":
        """Decode :meth:`to_bytes` output.

        The value column is a read-only view into ``payload`` (no copy
        on the recovery path); callers that need to mutate it must
        copy.
        """
        cid, slot_dtype, n, offset = _batch_layout(payload)
        width = slot_dtype.itemsize
        return cls(
            campaign_id=cid,
            user_slots=np.frombuffer(payload, slot_dtype, n, offset),
            object_slots=np.frombuffer(
                payload, slot_dtype, n, offset + n * width
            ),
            values=np.frombuffer(payload, _VALUE, n, offset + 2 * n * width),
        )


def _batch_layout(payload) -> tuple[str, np.dtype, int, int]:
    """``(campaign_id, slot_dtype, n, offset)`` of a BATCH payload: its
    header parsed and its length checked against the ``n`` claims it
    declares; the slot columns start at ``offset``."""
    try:
        (cid_len,) = _U16.unpack_from(payload, 0)
        offset = _U16.size + cid_len
        cid = str(payload[_U16.size:offset], "utf-8")
        (flags,) = _U8.unpack_from(payload, offset)
        (n,) = _U32.unpack_from(payload, offset + _U8.size)
    except (struct.error, UnicodeDecodeError) as exc:
        raise RecordError(f"malformed work item: {exc}") from exc
    offset += _U8.size + _U32.size
    if flags & _FLAG_U16_SLOTS:
        slot_dtype = _SLOT_U16
    elif flags & _FLAG_NARROW_SLOTS:
        slot_dtype = _SLOT_I32
    else:
        slot_dtype = _SLOT_I64
    expected = offset + n * (2 * slot_dtype.itemsize + _VALUE.itemsize)
    if len(payload) != expected:
        raise RecordError(
            f"work item of {n} claims needs {expected} bytes, "
            f"got {len(payload)}"
        )
    return cid, slot_dtype, n, offset


def campaign_id_prefix(campaign_id: str) -> bytes:
    """The length-prefixed campaign-id header of a :class:`WorkItem`.

    Computed once per campaign (at registration) so the per-batch
    encoder never re-encodes or re-measures the id on the hot path.
    """
    cid = campaign_id.encode("utf-8")
    if len(cid) > 0xFFFF:
        raise RecordError(
            f"campaign id of {len(cid)} bytes exceeds the 64KiB limit"
        )
    return _U16.pack(len(cid)) + cid


def encode_batch_parts(
    cid_prefix: bytes,
    user_slots: np.ndarray,
    object_slots: np.ndarray,
    values: np.ndarray,
) -> tuple:
    """Hot-path :class:`WorkItem` encoding for pre-validated columns.

    Returns the record payload as a tuple of buffers — concatenated
    they are byte-identical to ``WorkItem(...).to_bytes()`` for slots
    that fit u16 — skipping the dataclass construction, the column
    re-checks, the per-batch width detection, and (because the value
    column is handed over as a memoryview, not serialised) every
    payload copy: the write-ahead log CRCs and writes the buffers
    directly.  Callers must guarantee what the ingest pipeline already
    enforces: aligned 1-D columns, at least one claim, slots in
    ``[0, 65535]`` (true whenever the campaign's user capacity and
    object universe are at most 65536, checked once at registration),
    and that the columns are not mutated after the call — the service
    pipeline never touches a batch again once it is logged and
    aggregated.
    """
    header = b"".join(
        (cid_prefix, _U8.pack(_FLAG_U16_SLOTS), _U32.pack(values.size))
    )
    return (
        header,
        memoryview(user_slots.astype("<u2", copy=False)).cast("B"),
        memoryview(object_slots.astype("<u2", copy=False)).cast("B"),
        memoryview(np.ascontiguousarray(values, dtype="<f8")).cast("B"),
    )


def batch_encoder(campaign_id: str, num_users: int, num_objects: int):
    """The BATCH encoder of one campaign: ``encode(user_slots,
    object_slots, values)`` returns the record payload as a tuple of
    buffers.

    When the campaign's user capacity and object universe are both at
    most 65 536, every slot fits u16, so each batch takes
    :func:`encode_batch_parts` under the campaign-id prefix computed
    here, once.  A larger campaign's batches go through
    :meth:`WorkItem.to_bytes`, which picks the slot width per batch.
    The write-ahead log writes the parts as they are; the fabric joins
    them once, for its journal and the wire.
    """
    if num_users <= 0x10000 and num_objects <= 0x10000:
        return functools.partial(
            encode_batch_parts, campaign_id_prefix(campaign_id)
        )

    def encode(user_slots, object_slots, values) -> tuple:
        return (
            WorkItem(campaign_id, user_slots, object_slots, values).to_bytes(),
        )

    return encode


def decode_batch(payload) -> tuple[str, ClaimBatch]:
    """``(campaign_id, batch)`` of a BATCH payload: the one decoder.

    One header parse, then each slot column widened into a fresh
    ``int64`` array and the value column copied once, so the batch owns
    writable columns that do not alias ``payload`` (a frame, or a read
    of the log) and stays valid whatever happens to it.  One
    ``isfinite`` pass checks the values; the layout already makes the
    columns aligned and 1-D, so the batch is built unchecked, and the
    estimator still range-checks the slots.  ``payload`` is any bytes-
    like object; a malformed one raises :class:`RecordError`.
    """
    cid, slot_dtype, n, offset = _batch_layout(payload)
    if n == 0:
        raise RecordError("work item must carry at least one claim")
    width = slot_dtype.itemsize
    users = np.frombuffer(payload, slot_dtype, n, offset).astype(np.int64)
    offset += n * width
    objects = np.frombuffer(payload, slot_dtype, n, offset).astype(np.int64)
    offset += n * width
    values = np.frombuffer(payload, _VALUE, n, offset).astype(np.float64)
    if not np.isfinite(values).all():
        raise RecordError("batch values must be finite")
    return cid, ClaimBatch.unchecked(users, objects, values)


@dataclass(frozen=True)
class WalRecord:
    """One decoded write-ahead-log entry.

    ``payload`` is bytes, or a byte view into the frame it came in (a
    replica applies its primary's frames without copying them).
    """

    lsn: int
    rtype: int
    payload: bytes

    def decode(self):
        """Typed view of the payload: a :class:`WorkItem` or a dict."""
        if self.rtype == BATCH:
            return WorkItem.from_bytes(self.payload)
        if self.rtype in _JSON_TYPES:
            try:
                return json.loads(str(self.payload, "utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise RecordError(
                    f"malformed JSON record (type {self.rtype}): {exc}"
                ) from exc
        raise RecordError(f"unknown record type {self.rtype}")


def encode_json_payload(obj: dict) -> bytes:
    """Compact UTF-8 JSON encoding for control records."""
    try:
        return json.dumps(
            obj, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise RecordError(
            f"record payload is not JSON-serialisable: {exc}"
        ) from exc


#: Types every one of whose values JSON encodes (``int`` is not one:
#: past 4 300 digits ``str(int)`` refuses).
_JSON_SAFE = frozenset((str, float, bool, type(None)))


def check_charge(user_id, epsilon, delta, label) -> None:
    """Raise :class:`RecordError` unless a CHARGE record can carry
    this charge: each value must be one :func:`encode_json_payload`
    encodes.  Run at admission, so a charge the log could not write
    is refused while its caller can still undo the submission.
    """
    for value in (user_id, epsilon, delta, label):
        check_json_value(value)


def check_json_value(value) -> None:
    """Raise :class:`RecordError` unless :func:`encode_json_payload`
    encodes ``value``.  Admission runs it on a new user's id, where the
    user gets a slot, so an id no USERS record could carry is refused
    before anything is reserved for it."""
    if type(value) not in _JSON_SAFE:
        try:
            json.dumps(value, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise RecordError(
                f"record payload is not JSON-serialisable: {exc}"
            ) from exc


def encode_charge_group(charges) -> bytes:
    """The CHARGE body of ``(user_id, epsilon, delta, label)`` charges,
    in admission order, written as columns::

        {"row": [...], "rows": [[label, epsilon, delta], ...],
         "user_ids": [...]}

    ``rows`` holds the group's distinct ``(label, epsilon, delta)`` in
    order of first use, and charge ``i`` is ``user_ids[i]`` charged
    ``rows[row[i]]``.  Values must have passed :func:`check_charge`.
    """
    rows: dict = {}
    row = []
    for _user_id, epsilon, delta, label in charges:
        key = (label, epsilon, delta)
        index = rows.get(key)
        if index is None:
            index = rows[key] = len(rows)
        row.append(index)
    return encode_json_payload(
        {
            "row": row,
            "rows": [list(key) for key in rows],
            "user_ids": [charge[0] for charge in charges],
        }
    )


def charge_entries(body: dict) -> list[tuple]:
    """A decoded CHARGE body as ``(user_id, epsilon, delta, label)``
    tuples in admission order: a group body, or a format-2 one-charge
    body."""
    if "user_ids" not in body:
        return [
            (body["user_id"], body["epsilon"], body["delta"], body["label"])
        ]
    rows = body["rows"]
    return [
        (user_id, rows[index][1], rows[index][2], rows[index][0])
        for user_id, index in zip(body["user_ids"], body["row"])
    ]
