"""``ShardPool`` over a fake launcher, and the shutdown ladder on stubs.

No child process is started here: the launcher serves a real
:class:`~repro.workers.worker.ShardRuntime` from a thread on a
``multiprocessing.Pipe`` and hands the pool a stub process object, so
the pool's own logic — launch order, ownership on failure, respawn,
close — is what is under test, not a transport.
"""

import multiprocessing
import threading

import pytest

from repro.net.fabric import spawn_cli
from repro.utils.process import reap
from repro.workers import ShardPool, WorkerCrashedError
from repro.workers import protocol as proto
from repro.workers.worker import ShardRuntime

CONFIG = {"obs": False}


class ThreadProcess:
    """The ``multiprocessing.Process`` surface over a serving thread."""

    def __init__(self, pid: int, conn, runtime: ShardRuntime) -> None:
        self.pid = pid
        self.exitcode = None
        self.joined = False
        self._dead = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, args=(conn, runtime), daemon=True
        )
        self._thread.start()

    def _serve(self, conn, runtime) -> None:
        def send(rtype, payload=b""):
            proto.send_frame(conn, rtype, payload)

        try:
            while not self._dead.is_set():
                if not conn.poll(0.02):
                    continue
                rtype, payload = proto.recv_frame(conn)
                if not runtime.on_frame(rtype, payload, send):
                    self.exitcode = 0
                    return
            self.exitcode = -9
        except (EOFError, OSError):
            self.exitcode = 1
        finally:
            conn.close()

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def join(self, timeout=None) -> None:
        self._thread.join(timeout)
        self.joined = not self._thread.is_alive()

    def terminate(self) -> None:
        self._dead.set()

    kill = terminate


class SpyConn:
    """A pipe end that logs when the pool starts waiting on it."""

    def __init__(self, conn, events: list, worker_id: int) -> None:
        self._conn = conn
        self._events = events
        self._worker_id = worker_id

    def send_bytes(self, data) -> None:
        self._conn.send_bytes(data)

    def poll(self, timeout=0.0) -> bool:
        self._events.append(("await", self._worker_id))
        return self._conn.poll(timeout)

    def recv_bytes(self) -> bytes:
        return self._conn.recv_bytes()

    def close(self) -> None:
        self._conn.close()


class FakeLauncher:
    def __init__(self, fail_at=None) -> None:
        self.fail_at = fail_at
        self.events: list = []
        self.processes: list[ThreadProcess] = []

    def __call__(self, worker_id, shard_range):
        if worker_id == self.fail_at:
            raise OSError(f"cannot launch child {worker_id}")
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = ThreadProcess(
            1000 + len(self.processes),
            child_conn,
            ShardRuntime(worker_id, shard_range),
        )
        self.processes.append(process)
        self.events.append(("launch", worker_id))
        return process, SpyConn(parent_conn, self.events, worker_id)

    def launched(self) -> list[int]:
        return [wid for kind, wid in self.events if kind == "launch"]


class TestShardPoolOverAFakeLauncher:
    def test_every_child_is_launched_before_the_first_ready_wait(self):
        launcher = FakeLauncher()
        with ShardPool(6, 3, CONFIG, launcher) as pool:
            assert pool.num_workers == 3
            assert pool.supervisor is None
            first_wait = launcher.events.index(("await", 0))
            assert launcher.events[:first_wait] == [
                ("launch", 0), ("launch", 1), ("launch", 2)
            ]
            assert [h.shard_range for h in pool.handles] == [
                (0, 2), (2, 4), (4, 6)
            ]
            pool.sync()

    def test_failed_launch_reaps_the_children_already_started(self):
        launcher = FakeLauncher(fail_at=2)
        with pytest.raises(OSError, match="cannot launch child 2"):
            ShardPool(6, 3, CONFIG, launcher)
        assert launcher.launched() == [0, 1]
        for process in launcher.processes:
            assert process.joined and not process.is_alive()
            assert process.exitcode == 0  # asked to exit, not abandoned

    def test_close_is_idempotent_and_safe_after_a_crash(self):
        launcher = FakeLauncher()
        pool = ShardPool(4, 2, CONFIG, launcher)
        victim = launcher.processes[0]
        victim.kill()
        victim.join(5.0)
        with pytest.raises(WorkerCrashedError):
            pool.check()
        pool.close()
        pool.close()
        assert all(p.joined for p in launcher.processes)
        assert launcher.processes[1].exitcode == 0

    def test_respawn_goes_through_the_same_launcher(self):
        launcher = FakeLauncher()
        with ShardPool(4, 2, CONFIG, launcher, supervise=True) as pool:
            handle = pool.handles[0]
            victim = handle.process
            victim.kill()
            victim.join(5.0)
            pool.check()  # supervised: absorbs the crash by respawning
            assert launcher.launched() == [0, 1, 0]
            assert handle.process is launcher.processes[2]
            assert victim.joined
            assert pool.supervisor.restarts == 1
            pool.sync()


class LadderStub:
    """A child that ignores the named rungs; logs every call.

    Signals make it exit, ``join`` observes the exit — ignoring
    ``"join"`` means it was never asked to exit in the first place.
    """

    def __init__(self, ignores=()) -> None:
        self._ignores = set(ignores)
        self._exiting = "join" not in self._ignores
        self._alive = True
        self.calls: list[str] = []

    def is_alive(self) -> bool:
        return self._alive

    def join(self, timeout=None) -> None:
        self.calls.append("join")
        if self._exiting:
            self._alive = False

    def terminate(self) -> None:
        self.calls.append("terminate")
        self._exiting = "terminate" not in self._ignores

    def kill(self) -> None:
        self.calls.append("kill")
        self._exiting = "kill" not in self._ignores


FULL_LADDER = ["join", "terminate", "join", "kill", "join"]


class TestShutdownLadder:
    @pytest.mark.parametrize(
        "ignores, expected",
        [
            ((), ["join"]),
            (("join",), ["join", "terminate", "join"]),
            (("join", "terminate"), FULL_LADDER),
            (("join", "terminate", "kill"), FULL_LADDER),
        ],
    )
    def test_escalates_one_rung_at_a_time(self, ignores, expected):
        stub = LadderStub(ignores)
        reap(stub, timeout=0.01)
        assert stub.calls == expected
        assert stub.is_alive() == ("kill" in ignores)

    def test_reaping_a_cli_child_closes_its_launch_pipe(self):
        process, _port = spawn_cli(
            ["serve-shard", "--port", "0"], port_timeout=60.0
        )
        pid = process.pid
        process.terminate()  # a serving host's polite stop
        reap(process)
        assert process.stdout.closed
        # Unlike multiprocessing.Process.close(), nothing is poisoned.
        assert process.exitcode == 0 and process.pid == pid
        process.close()  # idempotent
