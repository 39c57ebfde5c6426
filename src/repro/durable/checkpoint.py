"""Atomic checkpoint storage for the durable ingestion subsystem.

A checkpoint captures everything needed to rebuild the service without
replaying the whole log: per-campaign aggregator state, user tables and
claim counters, the privacy-budget ledger, and the LSN up to which the
write-ahead log is covered.

Storage format: one ``.npz`` file per checkpoint, written to a
temporary name and atomically renamed into place (a crash mid-write
leaves at most a ``*.tmp`` orphan, never a half checkpoint under the
real name).  The checkpoint payload is an arbitrary JSON-able dict in
which NumPy arrays may appear anywhere; arrays are hoisted out into
binary npz entries and replaced by ``{"__nd__": key}`` placeholders in
the JSON manifest, so bulk state (the streaming CRH cell statistics)
stays binary and bit-exact while the structure stays readable.

The same tree walk feeds a second, *wire* encoding
(:func:`pack_payload` / :func:`unpack_payload`: worker state/snapshot
RPCs, the replica read, the replication resync blob) that is
deliberately not byte-compatible with the files: a ``u32`` manifest
length, the manifest with ``{"__nd__": [dtype_str, shape, offset]}``
placeholders, then each array's raw bytes.  A file is written rarely
and must keep loading across releases, and zip's per-entry CRC is what
catches a torn or rotted one; a blob lives for one RPC between two
processes of one build, so it carries no version and no CRC and costs
a memcpy per array where an in-memory npz cost a zip archive per read.

Loading walks checkpoints newest-first and silently skips unreadable
files, so a torn checkpoint can never block recovery — it just falls
back to the previous one plus a longer log replay.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.durable.wal import _fsync_dir
from repro.utils.logging import get_logger

_LOGGER = get_logger("durable.checkpoint")

CHECKPOINT_PREFIX = "ckpt-"
CHECKPOINT_SUFFIX = ".npz"
_ARRAY_KEY = "__nd__"
_MANIFEST_KEY = "manifest"
_U32 = struct.Struct("<I")
#: What a wire blob may carry (bool, (u)int8-64, float16-64) as
#: little-endian ``dtype.str``; anything else is refused both ways.
_WIRE_DTYPES = frozenset(
    np.dtype(code).newbyteorder("<").str for code in "?bBhHiIqQefd"
)
_WIRE_MAX_NDIM = 8


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
    """Inverse of :func:`_hoist_arrays`: placeholders become ``fetch(ref)``."""
    if isinstance(obj, dict):
        if len(obj) == 1 and _ARRAY_KEY in obj:
            return fetch(obj[_ARRAY_KEY])
        return {
            k: v if type(v) in _JSON_SCALARS else _lower_arrays(v, fetch)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [
            v if type(v) in _JSON_SCALARS else _lower_arrays(v, fetch)
            for v in obj
        ]
    return obj


def pack_payload(payload) -> bytes:
    """Encode a dict-with-arrays payload as one raw wire blob::

        u32   manifest length (little-endian)
        ...   UTF-8 JSON manifest (``sort_keys``); every array replaced
              by {"__nd__": [dtype_str, shape, offset]}
        ...   body: each array's C-contiguous little-endian bytes at
              ``offset`` from the body start, back to back

    Binary, bit-exact, pickle-free; not the on-disk npz (see the module
    docstring).  :func:`repro.workers.protocol.pack_state`, the replica
    read and the replication resync blob all delegate here.
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
            f"payload is not JSON-encodable outside its arrays: {exc}"
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
        manifest = json.loads(bytes(view[_U32.size:end]))
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
    used = 0

    def fetch(ref) -> np.ndarray:
        nonlocal used
        dtype_str, shape, offset = ref
        if (
            dtype_str not in _WIRE_DTYPES
            or type(shape) is not list
            or len(shape) > _WIRE_MAX_NDIM
            or any(type(n) is not int or n < 0 for n in (*shape, offset))
        ):
            raise ValueError(f"bad array reference {ref!r}")
        dtype = np.dtype(dtype_str)
        count = math.prod(shape)
        used += count * dtype.itemsize
        if max(used, offset + count * dtype.itemsize) > len(body):
            raise ValueError(f"{ref!r} overruns a {len(body)}-byte body")
        return np.frombuffer(body, dtype, count, offset).reshape(shape).copy()

    try:
        payload = _lower_arrays(manifest, fetch)
    except (TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"malformed payload blob: {exc}") from exc
    if used != len(body):
        raise CheckpointError(f"{len(body) - used} unreferenced body byte(s)")
    return payload


@dataclass(frozen=True)
class Checkpoint:
    """One loaded checkpoint: covered LSN plus the state payload."""

    lsn: int
    payload: dict
    path: Optional[Path] = None


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

    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._dir

    def paths(self) -> list[Path]:
        """Checkpoint files, oldest first."""
        if not self._dir.is_dir():
            return []
        return sorted(
            p
            for p in self._dir.iterdir()
            if p.name.startswith(CHECKPOINT_PREFIX)
            and p.name.endswith(CHECKPOINT_SUFFIX)
        )

    # ------------------------------------------------------------------
    def save(self, lsn: int, payload: dict) -> Path:
        """Persist one checkpoint atomically; prune old ones."""
        if lsn < 0:
            raise ValueError(f"lsn must be >= 0, got {lsn}")
        self._dir.mkdir(parents=True, exist_ok=True)
        arrays: dict[str, np.ndarray] = {}

        def place(array: np.ndarray, path: str) -> str:
            key = f"a{len(arrays)}"
            arrays[key] = array
            return key

        manifest = _hoist_arrays(payload, place, "payload")
        try:
            manifest_json = json.dumps(
                {"lsn": lsn, "payload": manifest}, sort_keys=True
            )
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint payload is not JSON-serialisable: {exc}"
            ) from exc
        path = self._dir / f"{CHECKPOINT_PREFIX}{lsn:020d}{CHECKPOINT_SUFFIX}"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            np.savez(fh, **{_MANIFEST_KEY: np.array(manifest_json)}, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # The rename itself must survive power loss, or the crash
        # silently rolls back to the previous checkpoint.
        _fsync_dir(self._dir)
        self._prune()
        _LOGGER.debug("checkpoint saved at lsn %d (%s)", lsn, path.name)
        return path

    def load(self, path: Path) -> Checkpoint:
        """Decode one checkpoint file (raises :class:`CheckpointError`)."""
        try:
            with np.load(path, allow_pickle=False) as npz:
                manifest = json.loads(str(npz[_MANIFEST_KEY][()]))
                payload = _lower_arrays(manifest["payload"], npz.__getitem__)
                lsn = int(manifest["lsn"])
        except (
            OSError,
            KeyError,
            ValueError,
            zipfile.BadZipFile,
            json.JSONDecodeError,
        ) as exc:
            raise CheckpointError(
                f"unreadable checkpoint {path.name}: {exc}"
            ) from exc
        return Checkpoint(lsn=lsn, payload=payload, path=path)

    def load_latest(self) -> Optional[Checkpoint]:
        """Newest readable checkpoint, or None.

        Unreadable files (torn by a crash, bit rot) are skipped with a
        warning; recovery then replays a longer WAL suffix instead.
        """
        for path in reversed(self.paths()):
            try:
                return self.load(path)
            except CheckpointError as exc:
                _LOGGER.warning("skipping %s: %s", path.name, exc)
        return None

    # ------------------------------------------------------------------
    def _prune(self) -> None:
        paths = self.paths()
        for stale in paths[: max(len(paths) - self._keep, 0)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - race with manual cleanup
                pass
