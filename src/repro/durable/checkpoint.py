"""Atomic checkpoint storage for the durable ingestion subsystem.

A checkpoint captures everything needed to rebuild the service without
replaying the whole log: per-campaign aggregator state, user tables and
claim counters, the privacy-budget ledger, and the LSN up to which the
write-ahead log is covered.

State has one encoding, :func:`pack_payload`: a ``u32`` manifest
length, a JSON manifest in which every NumPy array is a
``{"__nd__": [dtype_str, shape, offset]}`` placeholder, then the
arrays' raw little-endian bytes.  RPCs, replica reads and checkpoint
files all carry it.  A blob on a wire lives for one RPC within one
build; a file must outlive the build that wrote it and catch a torn
write or bit rot, so a file adds only a header: magic, format version
(2; format 1 was an npz zip), covered LSN, body length, and a CRC-32
over those and the body, as the WAL's frames have.  A replication
resync ships the file's bytes and the standby stores them unchanged.

Writes go to a temporary name, are fsynced and atomically renamed into
place, then the directory is fsynced: a crash mid-write leaves at most
a ``*.tmp`` orphan, never a half checkpoint under the real name.
Loading walks checkpoints newest-first and skips unreadable files
(torn, rotted, or format 1) with a warning, so a bad checkpoint never
blocks recovery — it falls back to the previous one plus a longer log
replay.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.durable.fsync import atomic_write
from repro.utils.logging import get_logger

_LOGGER = get_logger("durable.checkpoint")

CHECKPOINT_PREFIX = "ckpt-"
CHECKPOINT_SUFFIX = ".ckpt"
#: Format 1's files: listed, so pruning retires them, but never decoded.
LEGACY_SUFFIX = ".npz"
FILE_MAGIC = b"RPCKPT\r\n"
FILE_FORMAT = 2
#: magic, format, covered LSN, body length, CRC-32 of the rest and body.
_FILE_HEADER = struct.Struct("<8sIQQI")
_CRC_AT = _FILE_HEADER.size - 4
_ARRAY_KEY = "__nd__"
_U32 = struct.Struct("<I")
#: What a wire blob may carry (bool, (u)int8-64, float16-64) as
#: little-endian ``dtype.str``; anything else is refused both ways.
_WIRE_DTYPES = {
    dtype.str: dtype
    for dtype in (np.dtype(code).newbyteorder("<") for code in "?bBhHiIqQefd")
}
_WIRE_MAX_NDIM = 8
#: Manifests are UTF-8 text, parsed by one decoder: ``json.loads`` would
#: sniff a bytes encoding and re-check its arguments on every call.
_MANIFEST_DECODER = json.JSONDecoder()


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or decoded."""


#: Leaves both walks hand back as they are — no call, no path string
#: per element of a 2 000-id user table.  By exact type: ``np.float64``
#: is a ``float`` subclass and still goes through ``.item()``.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def _hoist_arrays(obj, place, path: str):
    """Replace ndarrays in ``obj`` with ``{"__nd__": place(array, path)}``."""
    if isinstance(obj, np.ndarray):
        return {_ARRAY_KEY: place(obj, path)}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        if _ARRAY_KEY in obj:
            raise CheckpointError(
                f"payload dict at {path!r} uses the reserved key "
                f"{_ARRAY_KEY!r}"
            )
        return {
            str(k): v if type(v) in _JSON_SCALARS
            else _hoist_arrays(v, place, f"{path}.{k}")
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [
            v if type(v) in _JSON_SCALARS
            else _hoist_arrays(v, place, f"{path}[{i}]")
            for i, v in enumerate(obj)
        ]
    return obj


def _lower_arrays(obj, fetch):
    """Inverse of :func:`_hoist_arrays`: placeholders become ``fetch(ref)``.

    In place, on a manifest just parsed (its containers are plain
    ``dict`` and ``list``, and nothing else holds them).
    """
    if type(obj) is dict:
        if len(obj) == 1 and _ARRAY_KEY in obj:
            return fetch(obj[_ARRAY_KEY])
        items = obj.items()
    elif type(obj) is list:
        items = enumerate(obj)
    else:
        return obj
    for k, v in items:
        if type(v) is dict or type(v) is list:
            obj[k] = _lower_arrays(v, fetch)
    return obj


def pack_payload(payload) -> bytes:
    """Encode a dict-with-arrays payload as one raw wire blob::

        u32   manifest length (little-endian)
        ...   UTF-8 JSON manifest (``sort_keys``); every array replaced
              by {"__nd__": [dtype_str, shape, offset]}
        ...   body: each array's C-contiguous little-endian bytes at
              ``offset`` from the body start, back to back

    Binary, bit-exact, pickle-free.  :func:`repro.workers.protocol.
    pack_state`, the replica read and checkpoint files (behind
    :func:`encode_file`'s header) all delegate here.
    """
    chunks: list[bytes] = []
    size = 0

    def place(array: np.ndarray, path: str) -> list:
        nonlocal size
        dtype = array.dtype.newbyteorder("<")
        if dtype.str not in _WIRE_DTYPES or array.ndim > _WIRE_MAX_NDIM:
            raise CheckpointError(
                f"no wire encoding for {array.dtype} {array.ndim}-d: {path!r}"
            )
        ref = [dtype.str, list(array.shape), size]
        chunks.append(array.astype(dtype, copy=False).tobytes())
        size += len(chunks[-1])
        return ref

    manifest = _hoist_arrays(payload, place, "payload")
    try:
        manifest_json = json.dumps(manifest, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"payload is not JSON-serialisable outside its arrays: {exc}"
        ) from exc
    return b"".join((_U32.pack(len(manifest_json)), manifest_json, *chunks))


def payload_manifest(blob: bytes) -> tuple:
    """``(manifest, body)`` of a wire blob; no array is materialised.

    The manifest is the payload with its placeholders left in place —
    enough to read an envelope field such as a campaign id.
    """
    view = memoryview(blob)
    if len(view) < _U32.size:
        raise CheckpointError(f"{len(view)}-byte blob has no length header")
    end = _U32.size + _U32.unpack_from(view)[0]
    if end > len(view):
        raise CheckpointError(f"manifest overruns a {len(view)}-byte blob")
    try:
        manifest = _MANIFEST_DECODER.decode(str(view[_U32.size:end], "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"malformed manifest: {exc}") from exc
    return manifest, view[end:]


def unpack_payload(blob: bytes):
    """Inverse of :func:`pack_payload`.

    Every length a manifest declares is checked against the blob
    *before* anything is allocated for it, so a hostile blob cannot
    make the decoder allocate more than the blob's own size.  Arrays
    come back writable and owning their memory.
    """
    manifest, body = payload_manifest(blob)
    size = len(body)
    used = 0

    def fetch(ref) -> np.ndarray:
        nonlocal used
        dtype_str, shape, offset = ref
        dtype = _WIRE_DTYPES.get(dtype_str)
        if (
            dtype is None
            or type(shape) is not list
            or len(shape) > _WIRE_MAX_NDIM
            or type(offset) is not int
            or offset < 0
        ):
            raise ValueError(f"bad array reference {ref!r}")
        count = 1
        for n in shape:
            if type(n) is not int or n < 0:
                raise ValueError(f"bad array reference {ref!r}")
            count *= n
        nbytes = count * dtype.itemsize
        used += nbytes
        if used > size or offset + nbytes > size:
            raise ValueError(f"{ref!r} overruns a {size}-byte body")
        array = np.frombuffer(body, dtype, count, offset)
        return (array if len(shape) == 1 else array.reshape(shape)).copy()

    try:
        payload = _lower_arrays(manifest, fetch)
    except (TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"malformed payload blob: {exc}") from exc
    if used != size:
        raise CheckpointError(f"{size - used} unreferenced body byte(s)")
    return payload


def encode_file(lsn: int, payload) -> bytes:
    """The bytes of one checkpoint file covering ``lsn``."""
    body = pack_payload(payload)
    head = _FILE_HEADER.pack(FILE_MAGIC, FILE_FORMAT, lsn, len(body), 0)
    crc = zlib.crc32(body, zlib.crc32(head[:_CRC_AT]))
    return b"".join((head[:_CRC_AT], _U32.pack(crc), body))


def verify_file(data) -> int:
    """The covered LSN of checkpoint file bytes whose magic, format,
    length and CRC all check out; :class:`CheckpointError` otherwise.
    Nothing is decoded or allocated."""
    if len(data) < _FILE_HEADER.size:
        raise CheckpointError(f"{len(data)}-byte file has no header")
    magic, version, lsn, length, crc = _FILE_HEADER.unpack_from(data)
    body = memoryview(data)[_FILE_HEADER.size:]
    if magic.startswith(b"PK\x03\x04"):  # a zip: what format 1 wrote
        problem = "checkpoint format 1 (npz), which this build no longer reads"
    elif magic != FILE_MAGIC:
        problem = f"bad magic {magic!r}"
    elif version != FILE_FORMAT:
        problem = f"checkpoint format {version}; this build reads {FILE_FORMAT}"
    elif length != len(body):
        problem = f"header declares a {length}-byte body, file has {len(body)}"
    elif zlib.crc32(body, zlib.crc32(data[:_CRC_AT])) != crc:
        problem = "CRC mismatch"
    else:
        return lsn
    raise CheckpointError(problem)


def file_manifest(data) -> dict:
    """The :func:`payload_manifest` of checkpoint file bytes, arrays
    left as placeholders: enough to read the payload's version."""
    return payload_manifest(memoryview(data)[_FILE_HEADER.size:])[0]


@dataclass(frozen=True)
class Checkpoint:
    """One loaded checkpoint: covered LSN plus the state payload."""

    lsn: int
    payload: dict


class CheckpointStore:
    """Reads and writes the checkpoints of one durability directory.

    Parameters
    ----------
    directory:
        Where checkpoint files live (shared with the WAL segments).
    keep:
        Completed checkpoints to retain; older ones are pruned after
        each successful save.  At least 1.
    """

    def __init__(
        self, directory: Union[str, Path], *, keep: int = 3
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self._dir = Path(directory)
        self._keep = keep

    def paths(self) -> list[Path]:
        """Checkpoint files of either format, oldest first (at one LSN,
        format 1 first)."""
        if not self._dir.is_dir():
            return []
        return sorted(
            (p for p in self._dir.iterdir() if p.name.startswith(CHECKPOINT_PREFIX)
             and p.suffix in (CHECKPOINT_SUFFIX, LEGACY_SUFFIX)),
            key=lambda p: (p.stem, p.suffix == CHECKPOINT_SUFFIX),
        )

    # ------------------------------------------------------------------
    def save(self, lsn: int, payload: dict) -> Path:
        """Persist one checkpoint atomically; prune old ones."""
        return self.write(lsn, encode_file(lsn, payload))

    def write(self, lsn: int, data) -> Path:
        """Store checkpoint file bytes covering ``lsn`` atomically and
        unchanged; prune old ones."""
        self._dir.mkdir(parents=True, exist_ok=True)
        path = self._dir / f"{CHECKPOINT_PREFIX}{lsn:020d}{CHECKPOINT_SUFFIX}"
        atomic_write(path, data)
        self._prune()
        _LOGGER.debug("checkpoint saved at lsn %d (%s)", lsn, path.name)
        return path

    def read(self, path: Path) -> tuple[int, bytes]:
        """``(covered LSN, bytes)`` of one checkpoint file that passes
        :func:`verify_file` (raises :class:`CheckpointError`)."""
        try:
            data = path.read_bytes()
            return verify_file(data), data
        except (OSError, CheckpointError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint {path.name}: {exc}"
            ) from exc

    def load(self, path: Path) -> Checkpoint:
        """Decode one checkpoint file (raises :class:`CheckpointError`)."""
        lsn, data = self.read(path)
        body = memoryview(data)[_FILE_HEADER.size:]
        return Checkpoint(lsn=lsn, payload=unpack_payload(body))

    def read_latest(self) -> Optional[tuple[int, bytes]]:
        """:meth:`read` of the newest checkpoint that passes it, or None."""
        return self._newest(self.read)

    def load_latest(self) -> Optional[Checkpoint]:
        """Newest readable checkpoint, or None.

        Unreadable files (torn by a crash, bit rot, format 1) are
        skipped with a warning; recovery then replays a longer WAL
        suffix instead.
        """
        return self._newest(self.load)

    # ------------------------------------------------------------------
    def _newest(self, open_file):
        for path in reversed(self.paths()):
            try:
                return open_file(path)
            except CheckpointError as exc:
                _LOGGER.warning("skipping %s: %s", path.name, exc)
        return None

    def _prune(self) -> None:
        paths = self.paths()
        for stale in paths[: max(len(paths) - self._keep, 0)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - race with manual cleanup
                pass
