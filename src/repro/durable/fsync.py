"""The durable layer's one seam to the disk.

Every call under :mod:`repro.durable` and :mod:`repro.replication`
that writes, syncs, renames, removes, truncates or makes a directory is
a function here (a tier-1 test refuses any other), and callers reach
each as a module attribute (``disk.rename(...)``), so a test that
replaces one sees every call: ``tests/durable/seam.py`` crashes a run
after any of them.  The ordering rules the callers keep are in
``docs/operations.md``, "Crash safety".

Its own module so that :mod:`repro.durable.checkpoint`, which every
shard host imports for the state encoding, does not load the whole
write-ahead log for it.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

#: Most buffers one ``os.writev`` call may take.
_IOV_MAX = os.sysconf("SC_IOV_MAX")

#: Commit a segment's bytes: fdatasync skips the metadata flush where
#: the platform has it; the file length replay needs is data anyway.
datasync = getattr(os, "fdatasync", os.fsync)


def write_all(fd: int, buffers: list, size: int) -> None:
    """Write ``buffers`` (``size`` bytes in all) to ``fd``: one
    ``os.writev`` per ``_IOV_MAX`` buffers, and no per-buffer Python
    work unless a call writes less than all (then it resumes there)."""
    while True:
        written = os.writev(
            fd, buffers if len(buffers) <= _IOV_MAX else buffers[:_IOV_MAX]
        )
        size -= written
        if size <= 0:
            return
        for index, buf in enumerate(buffers):
            length = memoryview(buf).nbytes
            if written < length:
                break
            written -= length
        buffers = [memoryview(buf).cast("B")[written:], *buffers[index + 1:]]


def open_segment(path: Path):
    """Create (or empty) a log segment for writing: an unbuffered file
    that only :func:`write_all` and :data:`datasync` touch."""
    return open(path, "wb", buffering=0)


def write_synced(path: Path, chunks) -> None:
    """Create or replace the contents of ``path`` with ``chunks``, then
    flush, fsync and close it."""
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        os.fsync(fh.fileno())


def rename(source: Path, target: Path) -> None:
    """Rename ``source`` to ``target``, replacing a file there."""
    os.replace(source, target)


def remove(path: Path) -> None:
    """Remove a file, or a directory and everything under it."""
    if Path(path).is_dir():
        shutil.rmtree(path)
    else:
        os.unlink(path)


def truncate(path: Path, size: int) -> None:
    """Cut the file at ``path`` to ``size`` bytes and fsync it."""
    with open(path, "rb+") as fh:
        fh.truncate(size)
        os.fsync(fh.fileno())


def mkdir(path: Path) -> None:
    """Create ``path`` and its missing parents (no parent fsync)."""
    Path(path).mkdir(parents=True, exist_ok=True)


def fsync_dir(directory: Path) -> None:
    """Make a create/rename/removal in ``directory`` itself durable.

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


def atomic_write(path: Path, data) -> None:
    """Replace ``path`` by ``data``: a synced temp file, a rename, then
    a directory fsync, so a crash leaves the old file or the new one,
    never a torn one, and the rename survives power loss."""
    tmp = path.with_suffix(".tmp")
    write_synced(tmp, (data,))
    rename(tmp, path)
    fsync_dir(path.parent)
