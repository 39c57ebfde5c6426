"""What outlives what, with the launcher between a parent and its
children.

The launcher goes with its parent: it is waited for at a normal exit,
and exits on EOF within a second of a SIGKILL.  It never signals a
child, so the children behave as ``Popen`` children did: a dialled
shard host exits when its data plane closes, a standby keeps serving.
It writes nothing to stdout.
"""

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: A parent with a dialled shard host (a one-host ShardPool) and a
#: standby; prints their pids and the launcher's, then exits normally
#: (``exit``) or waits to be killed (``wait``).
PARENT = r"""
import json, sys, time
from repro.net import launcher
from repro.net.fabric import SocketLauncher
from repro.replication.pool import launch_standby
from repro.workers import ShardPool

pool = ShardPool(1, 1, {"obs": False}, SocketLauncher())
standby, port = launch_standby(sys.argv[1])
print(json.dumps({
    "launcher": launcher.launcher().pid,
    "host": pool.handles[0].process.pid,
    "standby": standby.pid,
    "standby_port": port,
}), flush=True)
if sys.argv[2] == "exit":
    pool.close()
    print("done", flush=True)
    sys.exit(0)
time.sleep(600)
"""


def exits_within(pid: int, timeout: float) -> bool:
    try:
        pidfd = os.pidfd_open(pid)
    except ProcessLookupError:
        return True
    try:
        return bool(select.select([pidfd], [], [], timeout)[0])
    finally:
        os.close(pidfd)


def serving(port: int) -> bool:
    try:
        socket.create_connection(("127.0.0.1", port), timeout=5).close()
    except OSError:
        return False
    return True


def stop(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def start_parent(tmp_path, mode):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    parent = subprocess.Popen(
        [sys.executable, "-c", PARENT, str(tmp_path / "sb"), mode],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    pids = json.loads(parent.stdout.readline())
    return parent, pids


def test_a_normal_exit_waits_for_the_launcher(tmp_path):
    parent, pids = start_parent(tmp_path, "exit")
    try:
        rest = parent.stdout.read()
        assert parent.wait(60) == 0
        # Gone, and reaped by the parent before its exit returned.
        with pytest.raises(ProcessLookupError):
            os.kill(pids["launcher"], 0)
        assert rest == "done\n"  # nothing from the launcher
        assert exits_within(pids["host"], 30)  # pool.close() stopped it
        assert serving(pids["standby_port"])  # it outlives its primary
    finally:
        stop(pids["standby"])
        parent.stdout.close()


def test_a_killed_parent_takes_the_launcher_but_not_the_standby(tmp_path):
    parent, pids = start_parent(tmp_path, "wait")
    try:
        killed = time.monotonic()
        parent.kill()
        parent.wait(30)
        assert exits_within(pids["launcher"], 1.0)
        assert time.monotonic() - killed < 1.5
        assert exits_within(pids["host"], 30)  # its data plane closed
        assert serving(pids["standby_port"])
        assert not exits_within(pids["standby"], 0)
    finally:
        stop(pids["standby"])
        stop(pids["host"])
        parent.stdout.close()


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


def test_a_fabric_benchmark_run_leaves_nothing_running():
    """``run.py`` spawns through the launcher; when it exits, its last
    line is its JSON result and nothing it started is alive."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
         "--quick", "--workload", "fabric_rpc", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,  # its session id is its pid
    )
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err[-2000:]
    assert json.loads(out.splitlines()[-1])["correct"] is True
    assert session_members(proc.pid) == []
