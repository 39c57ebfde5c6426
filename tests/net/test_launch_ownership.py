"""A launched child always has an owner that reaps it.

Places that used to start something and then fail before anything
owned it: the socket launch (``serve-shard`` up, dial fails — a shard
host nobody ever dialled never exits on its own), the watchdog fleet of
``Topology.replicated(auto_failover=True)`` (member k fails to launch,
members 0..k-1 keep heartbeating a primary that never came up), the
sender and the service-built log behind that fleet, and a worker pool
started before its durability directory turned out to be unusable.
"""

import os
import signal
import threading

import pytest

import repro.durable.manager as manager_mod
import repro.net.fabric as fabric
import repro.replication.watchdog as watchdog_mod
import repro.workers.pool as pool_mod
from repro.net.fabric import SocketLauncher
from repro.service import IngestService, ServiceConfig, Topology
from repro.workers import ShardPool


@pytest.fixture
def launches(monkeypatch):
    """Every process ``spawn_cli`` starts for the fabric, in order."""
    started = []
    real_spawn = fabric.spawn_cli

    def spawn(argv, **kwargs):
        process, port = real_spawn(argv, **kwargs)
        started.append(process)
        return process, port

    monkeypatch.setattr(fabric, "spawn_cli", spawn)
    return started


def fail_next_connect(monkeypatch):
    real_connect = fabric.connect
    pending = [ConnectionError("injected: dial refused")]

    def connect(address, **kwargs):
        if pending:
            raise pending.pop()
        return real_connect(address, **kwargs)

    monkeypatch.setattr(fabric, "connect", connect)


def spy_on(monkeypatch, module, name):
    """Every instance of ``module.name`` built while the test runs."""
    built = []
    real = getattr(module, name)

    class Spy(real):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(module, name, Spy)
    return built


def assert_reaped(process):
    assert not process.is_alive()
    with pytest.raises(ProcessLookupError):
        os.kill(process.pid, 0)


class TestSocketLaunch:
    def test_failed_dial_at_startup_leaves_no_orphan(
        self, launches, monkeypatch
    ):
        fail_next_connect(monkeypatch)
        with pytest.raises(ConnectionError, match="injected"):
            ShardPool(2, 2, {"obs": False}, SocketLauncher())
        assert len(launches) == 1
        assert_reaped(launches[0])

    def test_failed_dial_during_respawn_leaves_no_orphan(
        self, launches, monkeypatch
    ):
        with IngestService(
            ServiceConfig(num_shards=1), topology=Topology.fabric(1)
        ) as service:
            pool = service.worker_pool
            (handle,) = pool.handles
            original = handle.process
            os.kill(original.pid, signal.SIGKILL)
            original.join(10.0)
            fail_next_connect(monkeypatch)
            pool.check()  # failover: attempt 1 cannot dial, attempt 2 can
            assert pool.supervisor.restarts == 1
            assert pool.supervisor.respawn_retries == 1
            first, undialled, replacement = launches
            assert first is original
            assert_reaped(undialled)
            assert handle.process is replacement
            assert replacement.is_alive()
            pool.sync()


class TestWatchdogFleetLaunch:
    def test_failed_member_launch_reaps_the_earlier_members(
        self, tmp_path, monkeypatch
    ):
        started = []
        real_launch = watchdog_mod.launch_watchdog

        def launch(*args, index, **kwargs):
            if index == 2:
                raise OSError("injected: cannot launch watchdog 2")
            started.append(real_launch(*args, index=index, **kwargs))
            return started[-1]

        monkeypatch.setattr(watchdog_mod, "launch_watchdog", launch)
        with pytest.raises(OSError, match="watchdog 2"):
            IngestService(
                ServiceConfig(num_shards=1),
                topology=Topology.replicated(
                    standbys=1,
                    durability=tmp_path / "wal",
                    auto_failover=True,
                    watchdogs=3,
                ),
            )
        assert len(started) == 2
        for process in started:
            assert_reaped(process)

    def test_failed_watchdog_launch_stops_the_sender_and_built_log(
        self, tmp_path, monkeypatch
    ):
        managers = spy_on(monkeypatch, manager_mod, "DurabilityManager")

        def launch(*args, **kwargs):
            raise OSError("injected: cannot launch watchdog")

        monkeypatch.setattr(watchdog_mod, "launch_watchdog", launch)
        threads_before = set(threading.enumerate())
        with pytest.raises(OSError, match="cannot launch watchdog"):
            IngestService(
                ServiceConfig(num_shards=1),
                topology=Topology.replicated(
                    standbys=1,
                    durability=tmp_path / "wal",
                    auto_failover=True,
                ),
            )
        (manager,) = managers
        assert manager.replication.stopped
        assert manager.wal.closed
        shipping = [
            thread
            for thread in set(threading.enumerate()) - threads_before
            if thread.name.startswith("repl-sender-")
        ]
        assert shipping == []


class TestDurabilityAfterPool:
    def test_unusable_durability_directory_leaves_no_worker(
        self, tmp_path, monkeypatch
    ):
        pools = spy_on(monkeypatch, pool_mod, "ShardPool")
        occupied = tmp_path / "a-file-not-a-directory"
        occupied.write_text("")
        with pytest.raises(FileExistsError):
            IngestService(
                ServiceConfig(num_shards=1),
                topology=Topology.workers(1, durability=occupied),
            )
        for pool in pools:
            for handle in pool.handles:
                assert_reaped(handle.process)
