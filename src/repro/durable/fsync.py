"""Directory fsync, shared by the log, its compaction and checkpoints.

Its own module so that :mod:`repro.durable.checkpoint`, which every
shard host and pipe worker imports for the state encoding, does not
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
