"""Launching and owning standby processes from the primary side.

:func:`launch_standby` starts ``repro standby`` with the same launch
contract as ``repro serve-shard`` (the child prints ``PORT <n>`` once
its listener is bound); :class:`StandbyPool` owns N of them — the
backing of ``Topology.replicated(standbys=n)``.  It is not a
:class:`~repro.workers.pool.ShardPool`: a standby takes no CONFIG
frame, answers no READY and owns no shards, so it shares only the
process helpers (:func:`~repro.net.fabric.spawn_cli` to launch,
:func:`~repro.utils.process.reap` to shut down).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.net.fabric import HostProcess, spawn_cli
from repro.replication.client import ReplicaReadClient
from repro.utils.logging import get_logger
from repro.utils.process import reap

_LOGGER = get_logger("replication.pool")


def standby_directory(primary_dir: Union[str, Path], index: int) -> Path:
    """Default on-disk home of standby ``index``: ``<dir>.standby<i>``."""
    primary_dir = Path(primary_dir)
    return primary_dir.with_name(f"{primary_dir.name}.standby{index}")


def launch_standby(
    directory: Union[str, Path],
    *,
    host: str = "127.0.0.1",
    fsync: str = "batch",
    start_timeout: float = 120.0,
) -> tuple[HostProcess, int]:
    """Start ``repro standby`` and learn its ephemeral port."""
    process, port = spawn_cli(
        [
            "standby",
            "--dir", str(directory),
            "--host", host,
            "--port", "0",
            "--fsync", fsync,
        ],
        port_timeout=start_timeout,
    )
    _LOGGER.debug(
        "standby up: dir %s, pid %d, port %d", directory, process.pid, port
    )
    return process, port


class StandbyHandle:
    """One launched standby: its process, address, and control client."""

    def __init__(
        self, index: int, directory: Path, process: HostProcess, port: int
    ) -> None:
        self.index = index
        self.directory = directory
        self.process = process
        self.address = ("127.0.0.1", port)

    def client(self, *, timeout: float = 30.0) -> ReplicaReadClient:
        return ReplicaReadClient(self.address, timeout=timeout)

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL this standby — the chaos drill's process fault.

        No flush, no goodbye: the standby's own WAL generation plus
        the ack-after-fsync contract are what make this survivable
        (a restarted standby resumes from its durable cursor).
        """
        _LOGGER.warning(
            "chaos: SIGKILL standby %d (pid %d)",
            self.index,
            self.process.pid,
        )
        self.process.kill()
        self.process.join(5.0)


class StandbyPool:
    """N standby processes replicating one primary directory.

    Parameters
    ----------
    count:
        Standbys to launch.
    primary_dir:
        The primary's durability directory (standby directories default
        to ``<primary_dir>.standby<i>``).
    directories:
        Explicit standby directories overriding the default naming.
    fsync:
        Commit policy of each standby's own WAL generation.
    """

    def __init__(
        self,
        count: int,
        primary_dir: Union[str, Path],
        *,
        directories: Optional[Sequence[Union[str, Path]]] = None,
        fsync: str = "batch",
        start_timeout: float = 120.0,
    ) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if directories is not None and len(directories) != count:
            raise ValueError(
                f"{len(directories)} directories for {count} standbys"
            )
        dirs = (
            [Path(d) for d in directories]
            if directories is not None
            else [standby_directory(primary_dir, i) for i in range(count)]
        )
        self.handles: list[StandbyHandle] = []
        self._closed = False
        try:
            for index, directory in enumerate(dirs):
                process, port = launch_standby(
                    directory,
                    fsync=fsync,
                    start_timeout=start_timeout,
                )
                self.handles.append(
                    StandbyHandle(index, directory, process, port)
                )
        except BaseException:
            self.close()
            raise

    @property
    def addresses(self) -> list[tuple]:
        return [handle.address for handle in self.handles]

    def check(self) -> None:
        """Raise if any standby process died."""
        for handle in self.handles:
            if not handle.is_alive():
                raise RuntimeError(
                    f"standby {handle.index} (pid {handle.process.pid}) "
                    f"exited with code {handle.process.exitcode}"
                )

    def close(self, *, timeout: float = 10.0) -> None:
        """Shut every standby down cleanly (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self.handles:
            if handle.is_alive():
                try:
                    with handle.client(timeout=2.0) as client:
                        client.shutdown()
                except (OSError, EOFError, TimeoutError):
                    pass
        for handle in self.handles:
            reap(handle.process, timeout)
