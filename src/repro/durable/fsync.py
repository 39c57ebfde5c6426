"""Directory fsync and atomic file replacement, shared by the log, its
compaction, checkpoints and a standby's fence.

Its own module so that :mod:`repro.durable.checkpoint`, which every
shard host imports for the state encoding, does not
load the whole write-ahead log for it.
"""

from __future__ import annotations

import os
from pathlib import Path


def fsync_dir(directory: Path) -> None:
    """Make a create/rename in ``directory`` itself durable.

    File data reaches the disk via fdatasync, but a freshly created
    file's *directory entry* needs its own fsync or power loss can
    leave the data unreachable.  Best-effort: platforms that cannot
    fsync a directory just skip it.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` by ``data``: temp write, fsync, ``os.replace``,
    then a directory fsync, so a crash leaves the old file or the new
    one, never a torn one, and the rename survives power loss."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)
