"""Repo-level pytest configuration.

Registers the ``slow`` marker and gates it behind ``--runslow`` (or
``REPRO_RUN_SLOW=1``) so the tier-1 suite stays fast: heavy service /
throughput tests opt in with ``@pytest.mark.slow`` and are skipped by
default.  Fails any test that leaves a replication sender running.
"""

from __future__ import annotations

import os
import threading

import pytest


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked 'slow' (heavy service/throughput tests)",
    )


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: heavy test, skipped unless --runslow or REPRO_RUN_SLOW=1",
    )


def pytest_collection_modifyitems(config, items) -> None:
    if config.getoption("--runslow") or os.environ.get("REPRO_RUN_SLOW") == "1":
        return
    skip_slow = pytest.mark.skip(
        reason="slow test: pass --runslow (or set REPRO_RUN_SLOW=1)"
    )
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


def _senders() -> set:
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("repl-sender-")
    }


@pytest.fixture(autouse=True)
def no_leaked_replication_sender():
    """A ``ReplicationSender`` a test does not close (through its
    ``DurabilityManager``) keeps redialling its stopped standby until
    the interpreter exits; fail the test that left one behind."""
    before = _senders()
    yield
    leaked = []
    for thread in _senders() - before:
        thread.join(timeout=1.0)  # one that is closing gets to finish
        if thread.is_alive():
            leaked.append(thread.name)
    assert not leaked, f"replication sender thread(s) left running: {leaked}"
