"""The process-wide launcher: every CLI child is a fork of one warm
process, not a fresh interpreter.

A ``python -m repro.cli serve-shard`` spends ~0.3 s importing NumPy and
``repro`` before it can print its ``PORT`` line, and every shard host,
standby and watchdog used to pay that on every spawn, respawn and
re-home.  The launcher pays it once: it is started lazily at the first
spawn (``python -m repro.net.launcher``), imports :data:`PRELOAD` and
:data:`ROLES`, and forks one child per request.  A child runs
``repro.cli.main(argv)`` exactly as ``python -m repro.cli argv`` would
— the parent's stdio, working directory and environment as they are at
spawn time, a fresh interpreter's signal dispositions and random
streams, a start away from the launcher's CPU (as an exec'd one is
placed), and a normal interpreter exit (its non-daemon threads joined,
its own ``atexit`` hooks, flushed stdio, the CLI's exit code) without
the heap teardown that would follow it.

The launcher is single-threaded and talks to its parent over one
``AF_UNIX`` ``SOCK_SEQPACKET`` pair:

* a **request** is a JSON message (argv, cwd, environment) carrying
  the child's stdin, stdout and stderr as passed fds;
* the **reply** names the child's pid and carries a pidfd for it,
  opened before the launcher can reap the child, so the parent's
  signals (``pidfd_send_signal``) can never reach a recycled pid;
* an **exit report** follows once the launcher has reaped the child:
  its return code, ``-signum`` for a signal, as ``Popen`` reports it.

It exits when the channel reaches EOF — its parent closed it at exit,
or died — and never signals a child: what a child does when its parent
goes is the child's own business, as it was under ``Popen`` (a dialled
shard host exits when its data plane closes; a standby keeps serving).

This module is both ends: :func:`main` is the launcher process, and
:func:`launcher` returns this process's handle on it, starting one when
there is none (or the last one died).
"""

from __future__ import annotations

import atexit
import gc
import importlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref
from array import array
from typing import NoReturn, Optional, Sequence

#: What the launcher imports once, so that no child imports it again:
#: NumPy and the CLI, which every child runs, before the first fork; the
#: entry module of every role a child plays once the launcher has been
#: idle for :data:`ROLES_AFTER_IDLE_S` after it (or before the second
#: fork, whichever comes first).  So the first child pays what a fresh
#: interpreter would — its own role's imports, without a second import
#: beside it on the CPU — and every later child pays no import at all.
PRELOAD = ("numpy", "repro.cli")
ROLES = (
    "repro.net.host",
    "repro.replication.standby",
    "repro.replication.watchdog",
)
ROLES_AFTER_IDLE_S = 0.25

#: Largest message either end reads (a request carries the environment).
_MAX_MESSAGE = 1 << 18


def _send(sock: socket.socket, message: dict, fds: Sequence[int] = ()) -> None:
    socket.send_fds(sock, [json.dumps(message).encode()], list(fds))


def _receive(sock: socket.socket, max_fds: int) -> tuple[Optional[dict], list]:
    """One message and its fds (close-on-exec); ``None`` at EOF."""
    data, ancdata, _flags, _addr = sock.recvmsg(
        _MAX_MESSAGE, socket.CMSG_SPACE(max_fds * 4), socket.MSG_CMSG_CLOEXEC
    )
    fds = array("i")
    for level, kind, payload in ancdata:
        if level == socket.SOL_SOCKET and kind == socket.SCM_RIGHTS:
            fds.frombytes(payload[: len(payload) - len(payload) % 4])
    if not data:
        for fd in fds:
            os.close(fd)
        return None, []
    return json.loads(data), list(fds)


# ----------------------------------------------------------------------
# The launcher process
# ----------------------------------------------------------------------
def main(fd: int) -> int:
    """Serve spawn requests on the channel ``fd``; a forked child runs
    the CLI and exits (:func:`_run_child`), never returning here."""
    fresh_sigint = signal.getsignal(signal.SIGINT)
    # A terminal's Ctrl-C reaches the whole process group: the parent
    # decides what it means, and the launcher goes when its channel does.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _import(PRELOAD, parse=True)
    argv = _serve(socket.socket(fileno=fd))
    if argv is None:
        return 0
    signal.signal(signal.SIGINT, fresh_sigint)
    _run_child(argv)


def _run_child(argv: list) -> NoReturn:
    """Run ``repro.cli.main(argv)`` and exit as the interpreter would
    after it, minus the teardown.

    A normal exit joins the non-daemon threads, runs the ``atexit``
    hooks and flushes stdout and stderr, in that order, and then
    finalises the heap.  In a fork of the launcher that heap is the
    launcher's, shared copy-on-write: finalising it is most of the
    exit, and frees nothing the kernel would not.  So this takes the
    three steps and then ``os._exit``.  The exit code is the
    interpreter's: a ``SystemExit`` code maps as ``sys.exit`` maps it,
    another exception prints its traceback and exits 1, and an
    uncaught ``KeyboardInterrupt`` ends the process by SIGINT.
    """
    from repro.cli import main as cli_main

    interrupted = False
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    except BaseException as exc:  # the top level, as the interpreter's own
        sys.excepthook(type(exc), exc, exc.__traceback__)
        interrupted = isinstance(exc, KeyboardInterrupt)
        code = 1
    if code is None:
        status = 0
    elif isinstance(code, int):
        status = code & 0xFF
    else:
        print(code, file=sys.stderr)
        status = 1
    _join_non_daemon_threads()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except Exception:
            status = 120  # what the interpreter exits with then
    if interrupted:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        status = 128 + signal.SIGINT  # as the interpreter, if still here
    os._exit(status)


def _join_non_daemon_threads() -> None:
    """Wait for every non-daemon thread, as the interpreter's exit
    does (one may start another while it is waited for)."""
    while True:
        pending = [
            thread for thread in threading.enumerate()
            if not thread.daemon and thread is not threading.current_thread()
        ]
        if not pending:
            return
        for thread in pending:
            thread.join()


def _import(names, parse: bool = False) -> None:
    for name in names:
        importlib.import_module(name)
    if parse:
        # argparse compiles its regexes at first use: once here, not in
        # every child (``repro.cli.main`` on a shard host's argv, in a
        # fork: 2 406 calls without this parse, 1 478 with it).
        sys.modules["repro.cli"].build_parser().parse_args(["list"])
    # Children never collect what the launcher imported: no fork walks
    # (and copies) those pages to find it all alive.
    gc.freeze()


def _serve(conn: socket.socket) -> Optional[list]:
    """The launcher's loop: ``None`` at EOF, or — in a forked child,
    with every launcher fd closed — the argv the child runs."""
    conn.setblocking(False)
    poller = select.poll()
    poller.register(conn, select.POLLIN)
    children: dict[int, tuple[int, int]] = {}  # pidfd -> (serial, pid)
    outbox: list[tuple[dict, list]] = []
    serial = 0
    roles_pending = True
    while True:
        ready = poller.poll(
            ROLES_AFTER_IDLE_S * 1e3 if roles_pending and serial else None
        )
        if not ready and roles_pending:
            roles_pending = False
            _import(ROLES)
        for fd, events in ready:
            if fd in children:
                child, pid = children.pop(fd)
                poller.unregister(fd)
                _, status = os.waitpid(pid, 0)
                os.close(fd)
                outbox.append(({
                    "serial": child,
                    "exit": os.waitstatus_to_exitcode(status),
                }, []))
                continue
            if not events & (select.POLLIN | select.POLLHUP | select.POLLERR):
                continue
            try:
                request, fds = _receive(conn, 3)
            except BlockingIOError:
                continue
            except ConnectionError:
                request = None
            if request is None:
                return None
            if roles_pending and serial:
                roles_pending = False
                _import(ROLES)
            serial += 1
            try:
                pid = os.fork()
            except OSError as exc:
                pid = None
                outbox.append(({"serial": serial, "error": str(exc)}, []))
            if pid == 0:
                _become_child(request, fds, conn, children)
                return request["argv"]
            if pid is not None:
                _leave_launcher_cpu(pid)
            for received in fds:
                os.close(received)
            if pid is not None:
                pidfd = os.pidfd_open(pid)
                children[pidfd] = (serial, pid)
                poller.register(pidfd, select.POLLIN)
                outbox.append(({"serial": serial, "pid": pid}, [pidfd]))
        # Replies and reports queue here: a launcher blocked on a full
        # channel could neither fork nor reap.
        while outbox:
            try:
                _send(conn, *outbox[0])
            except BlockingIOError:
                break
            outbox.pop(0)
        poller.modify(
            conn, select.POLLIN | (select.POLLOUT if outbox else 0)
        )


def _become_child(request: dict, fds: list, conn, children: dict) -> None:
    """Turn a fresh fork of the launcher into what ``python -m repro.cli``
    would have started: the requested stdio, cwd, environment and argv,
    and none of the launcher's fds."""
    conn.close()
    for pidfd in children:
        os.close(pidfd)
    for target, fd in enumerate(fds):
        os.dup2(fd, target)
    for fd in fds:
        os.close(fd)
    # stdout was built over the launcher's /dev/null; a fresh
    # interpreter line-buffers it on a terminal.
    sys.stdout.reconfigure(line_buffering=os.isatty(1))
    os.chdir(request["cwd"])
    # By difference, not clear() + update(): each key written is a
    # putenv and, in a fresh fork, pages copied; most are already equal.
    env = request["env"]
    for key in [key for key in os.environ if key not in env]:
        del os.environ[key]
    for key, value in env.items():
        if os.environ.get(key) != value:
            os.environ[key] = value
    import numpy
    import repro.cli

    sys.argv = [repro.cli.__file__, *request["argv"]]
    sys.path[0] = request["cwd"]
    # ``random`` reseeds itself in a fork; NumPy's global stream would
    # repeat the launcher's in every child.  Nothing here draws from it,
    # but a fresh interpreter would not share it either.
    numpy.random.seed()


def _leave_launcher_cpu(pid: int = 0) -> None:
    """Start the fresh fork ``pid`` (0: this process) off the CPU it
    was forked on (this one's), keeping the CPU set it inherited.

    The launcher runs where the parent that just woke it runs, and a
    fork starts beside it; an exec'd interpreter is instead placed on
    an idle CPU.  A shard host and the client that dials it, started on
    one CPU, tend to stay there: each wakes the other as it blocks, and
    the scheduler keeps such a pair together, so the two take turns on
    one CPU while another idles (``fabric_rpc`` ran at 1.0 CPU-second
    per second that way on a 2-vCPU VM, 1.17 with its host apart).
    One move away, with the inherited set restored at once, leaves the
    placement to the scheduler as an exec would.

    The launcher moves the child right after the fork, while it is
    still queued behind the launcher: a child that moved itself first
    waited for the launcher to block, then for the move.
    """
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return
    try:
        os.sched_setaffinity(pid, allowed - {_current_cpu()})
        os.sched_setaffinity(pid, allowed)
    except (OSError, ValueError, IndexError):
        pass  # a child already gone, or no CPU number to read


def _current_cpu() -> int:
    """The CPU this task last ran on (field 39 of its ``stat``).

    Read with ``os.read``, not a file object: just after a fork, building
    a text stream writes to some 60 more pages the two processes share,
    each a copied page (~0.3 ms on a 2-vCPU VM).
    """
    fd = os.open("/proc/self/stat", os.O_RDONLY)
    try:
        stat = os.read(fd, 4096)
    finally:
        os.close(fd)
    return int(stat.rsplit(b")", 1)[1].split()[36])


# ----------------------------------------------------------------------
# The parent's end
# ----------------------------------------------------------------------
def child_environment() -> dict:
    """This process's environment, with this checkout importable."""
    import repro

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


class Launcher:
    """This process's handle on one launcher process.

    One lock serialises the channel: a spawn holds it from request to
    reply, and a wait for an exit report holds it while it reads.
    Whoever reads an exit report hands it to its
    :class:`~repro.net.fabric.HostProcess`.
    """

    def __init__(self) -> None:
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            self._popen = subprocess.Popen(
                [sys.executable, "-m", "repro.net.launcher",
                 str(theirs.fileno())],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),),
                env=child_environment(),
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._sock = ours
        self._lock = threading.Lock()
        #: serial -> the HostProcess awaiting that child's exit report.
        self._processes: weakref.WeakValueDictionary = (
            weakref.WeakValueDictionary()
        )
        self._open = True

    @property
    def pid(self) -> int:
        return self._popen.pid

    def running(self) -> bool:
        return self._open and self._popen.poll() is None

    def spawn(self, argv: Sequence[str], stdout: int = 1):
        """Fork ``repro.cli argv`` with this process's stdin and stderr
        and ``stdout``; returns its :class:`~repro.net.fabric.HostProcess`."""
        from repro.net.fabric import HostProcess

        request = {
            "argv": list(argv),
            "cwd": os.getcwd(),
            "env": child_environment(),
        }
        with self._lock:
            try:
                _send(self._sock, request, [0, stdout, 2])
                reply, fds = self._read()
                while "exit" in reply:
                    reply, fds = self._read()
            except ConnectionError as exc:
                self._lost()
                raise ChildProcessError(
                    f"launcher pid {self.pid} is gone: {exc}"
                ) from exc
            if "error" in reply:
                raise OSError(f"launcher could not fork: {reply['error']}")
            process = HostProcess(self, reply["pid"], fds[0])
            self._processes[reply["serial"]] = process
        return process

    def await_report(self, process, timeout: Optional[float]) -> None:
        """Read the channel until ``process``'s exit report arrived, the
        launcher is gone, or ``timeout`` seconds passed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while process.returncode is None and self._open:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return
                if not select.select([self._sock], [], [], remaining)[0]:
                    return
                try:
                    self._read()
                except ConnectionError:
                    self._lost()

    def _read(self) -> tuple[dict, list]:
        """One message; exit reports are delivered on the way."""
        message, fds = _receive(self._sock, 1)
        if message is None:
            raise ConnectionResetError("launcher channel closed")
        if "exit" in message:
            process = self._processes.pop(message["serial"], None)
            if process is not None:
                process.returncode = message["exit"]
        return message, fds

    def _lost(self) -> None:
        """The launcher died: no report will come for its children."""
        self._open = False
        self._sock.close()
        self._popen.wait()
        for process in list(self._processes.values()):
            process.orphaned = True
        self._processes.clear()

    def close(self, timeout: float = 10.0) -> None:
        """Send EOF and wait for the launcher to exit.  Takes no lock: a
        thread blocked reading the channel wakes to the EOF."""
        self._open = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed
        try:
            self._popen.wait(timeout)
        except subprocess.TimeoutExpired:
            self._popen.kill()
            self._popen.wait()
        self._sock.close()


_current: Optional[Launcher] = None
_current_lock = threading.Lock()
_hooks_installed = False
_exiting = False
#: Launchers a fork of this process inherited: never used, never
#: garbage-collected (their ``Popen`` is not this process's child).
_inherited: list = []


def launcher() -> Launcher:
    """This process's launcher, started on first use (or after the last
    one died)."""
    global _current, _hooks_installed
    with _current_lock:
        if _exiting:
            raise RuntimeError("interpreter is exiting; no new children")
        if _current is not None and not _current.running():
            _current.close()
            _current = None
        if _current is None:
            if not _hooks_installed:
                _hooks_installed = True
                atexit.register(_shutdown)
                os.register_at_fork(after_in_child=_forget)
            _current = Launcher()
        return _current


def _shutdown() -> None:
    """At exit: close the channel and wait for the launcher to go."""
    global _current, _exiting
    with _current_lock:
        _exiting = True
        current, _current = _current, None
    if current is not None:
        current.close()


def _forget() -> None:
    """In a fork of this process (the service starts none; a caller's
    own ``os.fork``, or a library's): drop the inherited channel, so
    the launcher sees EOF when its own parent goes."""
    global _current, _current_lock
    _current_lock = threading.Lock()
    if _current is not None:
        _current._sock.close()
        _inherited.append(_current)
        _current = None


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
