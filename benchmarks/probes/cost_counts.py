"""What a workload's work costs, counted: a vector per claim that repeats.

A time moves with the machine; a count of the work done does not.  This
probe runs one end-to-end workload of ``benchmarks/e2e/workloads.py``,
imported unchanged, once: its set-ups and its timed window
(``post=False``: no recovery, failover or replica-read phase).  Per claim
of the window it prints:

- ``calls.<module>``: Python calls into each ``repro`` module, counted
  by ``sys.setprofile`` on the main thread (a generator's resumption is
  a call), and ``calls.repro``, their sum;
- ``c_calls.repro``: C functions called from ``repro`` code (builtins,
  NumPy's C entry points, socket and file methods);
- ``io.syscr`` / ``io.syscw`` / ``io.rchar`` / ``io.wchar``: read- and
  write-type syscalls and the bytes they moved, for the whole process
  (every thread), from ``/proc/self/io``;
- ``counts.<name>``: the integer counters the workload reports (WAL
  records and bytes, frames, bytes shipped), divided the same way.

    python benchmarks/probes/cost_counts.py --workload W [--quick] [--seed N]

``--quick`` runs the workload's smoke sizes (one set-up) on 0.25 s of
work; the default is its full sizes on 1 s.  On the in-process
workloads the vector repeats exactly for a seed, run after run: the
benchmark's own speed samples run outside ``repro`` and make no
read or write syscall.  ``device_paced_durable`` is the exception: an
open loop takes what its clock delivers.  A spawning workload's
children are not counted; what the parent sends them is, as frames and
bytes.  The counts slow the run several-fold, so they say nothing of
time.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
REPRO = str(ROOT / "src" / "repro") + "/"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import catalog  # noqa: E402
import workloads  # noqa: E402

IO_FIELDS = ("syscr", "syscw", "rchar", "wchar")


def proc_io() -> dict:
    """This process's ``/proc/self/io`` counters."""
    fields = dict(
        line.split(": ") for line in Path("/proc/self/io").read_text().splitlines()
    )
    return {name: int(fields[name]) for name in IO_FIELDS}


class CallCounter:
    """A ``sys.setprofile`` hook: Python calls per ``repro`` module, and
    C calls made from ``repro`` code."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.c_calls = 0
        self._modules: dict = {}

    def _module(self, filename: str):
        try:
            return self._modules[filename]
        except KeyError:
            module = None
            if filename.startswith(REPRO):
                path = Path(filename[len(REPRO):]).with_suffix("")
                module = ".".join(("repro", *path.parts))
                module = module.removesuffix(".__init__")
            self._modules[filename] = module
            return module

    def __call__(self, frame, event, _arg) -> None:
        if event == "call":
            module = self._module(frame.f_code.co_filename)
            if module is not None:
                self.calls[module] += 1
        elif event == "c_call":
            if self._module(frame.f_code.co_filename) is not None:
                self.c_calls += 1


def count(name: str, *, seed: int, quick: bool) -> tuple[dict, int]:
    """One run of workload ``name``: its cost vector, in totals, and the
    claims of its window."""
    counter = CallCounter()
    with tempfile.TemporaryDirectory() as tmp:
        ctx = workloads.Context(
            seed=seed, seconds=0.25 if quick else 1.0, work_dir=Path(tmp),
            quick=quick, post=False,
        )
        before = proc_io()
        sys.setprofile(counter)
        try:
            result = workloads.run(name, ctx)
        finally:
            sys.setprofile(None)
        after = proc_io()
    totals = {f"calls.{m}": n for m, n in sorted(counter.calls.items())}
    totals["calls.repro"] = sum(counter.calls.values())
    totals["c_calls.repro"] = counter.c_calls
    totals.update(
        (f"io.{field}", after[field] - before[field]) for field in IO_FIELDS
    )
    totals.update(
        (f"counts.{key}", value) for key, value in sorted(result.counts.items())
        if isinstance(value, int) and not isinstance(value, bool)
    )
    return totals, result.info["window_claims"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=catalog.workload_names()
    )
    parser.add_argument(
        "--quick", action="store_true", help="smoke sizes on 0.25 s of work"
    )
    parser.add_argument("--seed", type=int, default=2020)
    args = parser.parse_args(argv)
    totals, claims = count(args.workload, seed=args.seed, quick=args.quick)
    print(f"# {args.workload}, seed {args.seed}: counts per claim of "
          f"{claims} window claims (set-ups included)")
    for name, total in totals.items():
        print(f"{name} {total / claims:.9g} /claim")
    return 0


if __name__ == "__main__":
    sys.exit(main())
