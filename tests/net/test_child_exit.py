"""A launcher child ends as ``python -m repro.cli`` would, without the
interpreter's teardown.

``launcher._run_child`` runs the CLI and then does by hand what a normal
exit does before it finalises the heap: join the non-daemon threads,
run the ``atexit`` hooks, flush stdio, and exit with the code the
interpreter would have used.  Each case runs a stand-in for
``repro.cli.main`` both ways, in a fresh interpreter (``sys.exit(main())``)
and through ``_run_child``, and the two must agree on the exit code,
on stdout byte for byte, and on stderr's last line (a traceback's
frames differ).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Writes block-buffered stdout (only a flushing exit writes it), starts
#: a non-daemon thread that writes after the CLI returned (only a join
#: waits for it), and registers an ``atexit`` hook that writes last.
STAND_IN = r"""
import atexit, sys, threading, time


def stand_in(argv):
    atexit.register(lambda: print("atexit"))
    print("body")
    threading.Thread(target=lambda: (time.sleep(0.2), print("thread"))).start()
    case = argv[0]
    if case == "three":
        return 3
    if case == "wraps":
        return 259
    if case == "text":
        sys.exit("bye")
    if case == "error":
        raise ValueError("boom")
    if case == "interrupt":
        raise KeyboardInterrupt
"""

FRESH = STAND_IN + "\nsys.exit(stand_in(sys.argv[1:]))\n"
FORKED = STAND_IN + """
import repro.cli
from repro.net import launcher
repro.cli.main = stand_in
launcher._run_child(sys.argv[1:])
raise AssertionError("_run_child returned")
"""


def run(script, case):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script, case],
        env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "case, code",
    [
        ("none", 0),
        ("three", 3),
        ("wraps", 3),  # 259 & 0xFF, as the OS keeps it
        ("text", 1),
        ("error", 1),
        ("interrupt", -2),  # killed by SIGINT, as a fresh interpreter
    ],
)
def test_a_child_exits_as_the_interpreter_would(case, code):
    fresh, forked = run(FRESH, case), run(FORKED, case)
    assert fresh.returncode == code
    assert forked.returncode == code
    assert forked.stdout == fresh.stdout == "body\nthread\natexit\n"
    assert forked.stderr.splitlines()[-1:] == fresh.stderr.splitlines()[-1:]
