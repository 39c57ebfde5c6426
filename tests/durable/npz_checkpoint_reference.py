"""The frozen reference for checkpoint files in format 1 (npz).

Until a checkpoint file became a CRC-framed wire blob,
``CheckpointStore.save`` wrote one ``np.savez`` zip: a ``manifest``
entry holding ``{"lsn": ..., "payload": ...}`` as sorted-key JSON, with
every array replaced by ``{"__nd__": "a<N>"}`` naming an ``a<N>`` npz
entry.  :func:`save` and :func:`load` are that writer and reader, kept
so tests can check that the current format decodes every payload to the
same tree, and can lay down legacy files.
"""

import json

import numpy as np

_ARRAY_KEY = "__nd__"


def _hoist(obj, arrays: dict):
    if isinstance(obj, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = obj
        return {_ARRAY_KEY: key}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _hoist(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hoist(v, arrays) for v in obj]
    return obj


def _lower(obj, fetch):
    if isinstance(obj, dict):
        if len(obj) == 1 and _ARRAY_KEY in obj:
            return fetch(obj[_ARRAY_KEY])
        return {k: _lower(v, fetch) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_lower(v, fetch) for v in obj]
    return obj


def save(path, lsn: int, payload) -> None:
    """Write ``payload`` covering ``lsn`` to ``path`` as format 1 did."""
    arrays: dict = {}
    manifest = _hoist(payload, arrays)
    text = json.dumps({"lsn": lsn, "payload": manifest}, sort_keys=True)
    with open(path, "wb") as fh:
        np.savez(fh, manifest=np.array(text), **arrays)


def load(path) -> tuple:
    """``(lsn, payload)`` of a format-1 file."""
    with np.load(path, allow_pickle=False) as npz:
        manifest = json.loads(str(npz["manifest"][()]))
        payload = _lower(manifest["payload"], npz.__getitem__)
    return int(manifest["lsn"]), payload
