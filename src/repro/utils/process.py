"""The one shutdown ladder for child processes.

Dependency-free on purpose: its callers include code that must not
import the socket stack to say goodbye to a child — a pipe worker's
parent, an in-process service's ``close()``.
"""

from __future__ import annotations


def reap(process, timeout: float = 10.0) -> None:
    """Join, then terminate, then kill.

    ``process`` is anything with the ``multiprocessing.Process``
    surface (a real one, or :class:`~repro.net.fabric.HostProcess`).
    A child already asked to exit (or already dead) costs one ``join``;
    one that ignores the request is escalated on, each rung waiting
    ``timeout`` seconds.  ``close()`` is not a rung: on a real
    ``multiprocessing.Process`` it makes ``pid`` / ``exitcode`` raise,
    and handles are read after shutdown.
    """
    process.join(timeout)
    if process.is_alive():
        process.terminate()
        process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join(timeout)
