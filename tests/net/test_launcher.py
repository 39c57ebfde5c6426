"""Every CLI child is a fork of one warm launcher, owned as a ``Popen``
child was.

The child contract: ``exitcode`` reads ``-9`` after ``kill()`` and the
CLI's return code otherwise; ``join`` returns once the child is reaped;
a child whose launcher died first reads dead, and the next spawn starts
a new launcher; a child gets its parent's stdio, cwd and environment as
they are at spawn time, a fresh interpreter's signal dispositions and
random streams, and ends as ``python -m repro.cli`` would.
"""

import ast
import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.net import launcher as launcher_mod
from repro.net.fabric import spawn_cli
from repro.service import IngestService, Topology
from repro.utils.process import reap

SRC = Path(__file__).resolve().parents[2] / "src"


def assert_reaped(process):
    assert not process.is_alive()
    with pytest.raises(ProcessLookupError):
        os.kill(process.pid, 0)


def wait_exit(pid: int, timeout: float) -> bool:
    """Whether process ``pid`` (any process) exits within ``timeout``."""
    try:
        pidfd = os.pidfd_open(pid)
    except ProcessLookupError:
        return True
    try:
        return bool(select.select([pidfd], [], [], timeout)[0])
    finally:
        os.close(pidfd)


def serve_shard():
    process, _port = spawn_cli(
        ["serve-shard", "--port", "0"], port_timeout=60.0
    )
    return process


class TestExitCodes:
    def test_kill_reads_minus_nine_once_reaped(self):
        process = serve_shard()
        process.kill()
        process.join(30)
        assert process.exitcode == -signal.SIGKILL
        assert_reaped(process)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["list"], 0),
            (["metrics", "http://127.0.0.1:9/metrics"], 1),
            (["run", "no-such-experiment"], 2),
        ],
    )
    def test_the_cli_return_code_is_the_exit_code(self, argv, code):
        process, _ = spawn_cli(argv)
        process.join(60)
        assert process.exitcode == code
        assert_reaped(process)

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_a_signalled_host_ends_as_a_fresh_interpreter_does(
        self, signum
    ):
        """The launcher ignores SIGINT; its children must not."""
        fresh = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-shard", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=launcher_mod.child_environment(),
        )
        with fresh:
            assert fresh.stdout.readline().startswith(b"PORT ")
            fresh.send_signal(signum)
            fresh.wait(60)
        forked = serve_shard()
        os.kill(forked.pid, signum)
        forked.join(60)
        assert forked.exitcode == fresh.returncode
        assert_reaped(forked)


class TestLauncherLifetime:
    def test_a_child_reads_dead_after_its_launcher_died(self):
        process = serve_shard()
        first = launcher_mod.launcher()
        os.kill(first.pid, signal.SIGKILL)
        assert wait_exit(first.pid, 10.0)
        process.kill()  # through its pidfd: the launcher is not needed
        process.join(10.0)
        assert not process.is_alive()
        assert process.exitcode is None  # reported to whoever reaped it
        again = serve_shard()
        assert launcher_mod.launcher().pid != first.pid
        again.terminate()
        reap(again)
        assert again.exitcode == 0

    def test_a_child_gets_the_stdio_and_cwd_of_its_spawn(
        self, tmp_path, monkeypatch, capfd
    ):
        earlier = serve_shard()  # the launcher is up, started elsewhere
        earlier.kill()
        earlier.join(30)
        with IngestService(
            topology=Topology.in_process(durability=str(tmp_path / "wal"))
        ) as service:
            service.register_campaign("c", ["a"], max_users=2)
        capfd.readouterr()
        monkeypatch.chdir(tmp_path)
        recover, _ = spawn_cli(["recover", "wal"])  # relative to the cwd
        recover.join(60)
        unknown, _ = spawn_cli(["run", "no-such-experiment"])
        unknown.join(60)
        out, err = capfd.readouterr()
        assert recover.exitcode == 0 and "c" in out
        assert unknown.exitcode == 2 and "unknown experiment" in err


#: A launcher process driven by hand, whose children run a stand-in for
#: ``repro.cli.main``: it reports the child's state (block-buffered, so
#: only a flushing exit writes it), registers an ``atexit`` hook, and
#: returns ``argv[0]`` as its exit code.
CHILD_CONTRACT = r"""
import atexit, json, os, random, signal, socket, sys
import numpy as np
import repro.cli
from repro.net import launcher


def stand_in(argv):
    atexit.register(lambda: print("atexit", flush=True))
    print(json.dumps({
        "cwd": os.getcwd(),
        "argv0": sys.argv[0] == repro.cli.__file__,
        "marker": os.environ.get("CHILD_MARKER"),
        "signals": SIGNALS(),
        "random": random.random(),
        "numpy": float(np.random.random()),
        "cpus": sorted(os.sched_getaffinity(0)),
    }))
    return int(argv[0])


def SIGNALS():
    return {
        signal.Signals(s).name: repr(signal.getsignal(s))
        for s in signal.valid_signals() if s < signal.SIGRTMIN
    }


if sys.argv[1] == "fresh":
    print(json.dumps(SIGNALS()))
    sys.exit(0)
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
repro.cli.main = stand_in
ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
launcher_pid = os.fork()
if launcher_pid == 0:
    ours.close()
    sys.exit(launcher.main(theirs.fileno()))
theirs.close()
results = []
for code in (3, 0):
    read_end, write_end = os.pipe()
    env = dict(os.environ, CHILD_MARKER=str(code))
    launcher._send(ours, {"argv": [str(code)], "cwd": "/", "env": env},
                   [0, write_end, 2])
    os.close(write_end)
    reply, fds = launcher._receive(ours, 1)
    with os.fdopen(read_end) as stream:
        lines = stream.read().splitlines()
    report, _ = launcher._receive(ours, 1)
    results.append({"lines": lines, "exit": report["exit"]})
ours.close()
os.waitpid(launcher_pid, 0)
print(json.dumps(results))
"""


def test_a_child_starts_fresh_and_ends_as_the_cli_would(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = [sys.executable, "-c", CHILD_CONTRACT]
    fresh = subprocess.run(
        run + ["fresh"], env=env, capture_output=True, text=True, timeout=60
    )
    forked = subprocess.run(
        run + ["forked"], env=env, capture_output=True, text=True,
        timeout=120, cwd=tmp_path,
    )
    assert forked.returncode == 0, forked.stderr
    results = json.loads(forked.stdout.splitlines()[-1])
    assert [r["exit"] for r in results] == [3, 0]
    states = []
    for result in results:
        # Written at exit, before the atexit hook's own line.
        state_line, hook_line = result["lines"]
        assert hook_line == "atexit"
        states.append(json.loads(state_line))
    for code, state in zip((3, 0), states):
        assert state["cwd"] == "/" and state["argv0"]
        assert state["marker"] == str(code)
        assert state["signals"] == json.loads(fresh.stdout)
    assert states[0]["random"] != states[1]["random"]
    assert states[0]["numpy"] != states[1]["numpy"]
    # Started off the launcher's CPU, but free to run where it could.
    assert all(s["cpus"] == sorted(os.sched_getaffinity(0)) for s in states)


@pytest.mark.parametrize("allowed", [{0, 1, 2, 3}, {2}])
def test_a_fork_steps_off_its_cpu_and_back_to_its_set(monkeypatch, allowed):
    """Two calls: every allowed CPU but the one it is on, then the set it
    came with.  One allowed CPU leaves nothing to step to."""
    assert launcher_mod._current_cpu() in os.sched_getaffinity(0)
    calls = []
    monkeypatch.setattr(launcher_mod.os, "sched_getaffinity", lambda pid: set(allowed))
    monkeypatch.setattr(
        launcher_mod.os, "sched_setaffinity", lambda pid, cpus: calls.append(set(cpus))
    )
    monkeypatch.setattr(launcher_mod, "_current_cpu", lambda: 2)
    launcher_mod._leave_launcher_cpu()
    if len(allowed) == 1:
        assert calls == []
    else:
        assert calls == [allowed - {2}, allowed]


def test_a_child_keeps_a_narrowed_cpu_set(tmp_path):
    """A parent confined to one CPU (``taskset``) has children confined
    to it: the move off the launcher's CPU never widens the set."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    forked = subprocess.run(
        [sys.executable, "-c", CHILD_CONTRACT, "pinned"], env=env,
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert forked.returncode == 0, forked.stderr
    results = json.loads(forked.stdout.splitlines()[-1])
    assert [r["exit"] for r in results] == [3, 0]
    pinned = [min(os.sched_getaffinity(0))]
    assert [json.loads(r["lines"][0])["cpus"] for r in results] == [pinned] * 2


#: What under ``numpy.random`` draws nothing from the global stream:
#: the constructors, and ``seed`` (the launcher reseeds each child).
GLOBAL_RNG_SAFE = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
    "RandomState", "seed",
}


def test_no_module_draws_from_numpys_global_stream():
    """Children used to seed NumPy's global stream from the OS each; a
    fork shares the launcher's.  Nothing under ``src/`` draws from it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "random"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")
                and node.attr not in GLOBAL_RNG_SAFE
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert "from numpy.random import" not in path.read_text(), path
    assert offenders == []
