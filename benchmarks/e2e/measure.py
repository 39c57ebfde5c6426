"""Measurement helpers: percentiles, machine-speed gauge, CPU/RSS
accounting, open-loop pacing, environment fingerprint.  No dependency on
``repro``."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def supported_percentile(n: int, want: float = 99.9) -> float:
    """Highest percentile <= ``want`` with at least ten samples beyond it.

    Returns 0.0 when even the median has fewer than ten samples beyond.
    """
    best = 0.0
    for q in PERCENTILES:
        # Integer per-mille arithmetic: 100.0 - 99.9 is not exactly 0.1.
        if q <= want and n * (1000 - round(q * 10)) // 1000 >= 10:
            best = q
    return best


def percentile_ms(samples_s, want: float) -> tuple[float, float, int]:
    """``(value_ms, percentile_used, n)`` for second-valued samples.

    The percentile used is ``want`` when the sample supports it,
    otherwise the highest supported one below it; value 0.0 when none.
    """
    arr = np.asarray(samples_s, dtype=float)
    q = supported_percentile(arr.size, want)
    if q == 0.0:
        return 0.0, 0.0, int(arr.size)
    return float(np.percentile(arr, q) * 1e3), q, int(arr.size)


# ----------------------------------------------------------------------
#: A second of *reference time* is a second on a machine that runs
#: :meth:`SpeedGauge.kernel` in exactly this long (about what this box
#: does when nothing else is on its host).
REFERENCE_KERNEL_S = 1.0e-3


class SpeedGauge:
    """How fast the machine runs right now, sampled beside timed work.

    The sandbox's speed wanders by tens of percent on every time scale
    from milliseconds to minutes (the same pure-Python loop: 12 ms in
    one 8 s stretch, 21 ms in the next), and every timing moves with
    it.  The gauge runs a fixed kernel between slices of the measured
    work; ``REFERENCE_KERNEL_S`` over its mean duration is the factor
    that turns seconds observed here into reference seconds.  The kernel
    is a frozen miniature of what the program does per batch: resolve
    string ids through dicts, build columns, three weighted-mean sweeps.
    Kernels unlike the program (a bare loop, one NumPy call) followed
    the workloads' slow-downs half as well.  A change to the program
    cannot move the kernel, so a speed-up still shows one for one.
    """

    USERS, OBJECTS, SUBMISSIONS, CLAIMS = 2000, 64, 512, 8

    def __init__(self, every_s: float = 0.025, clock=time.perf_counter,
                 cpu_clock=time.thread_time) -> None:
        self.every_s = every_s
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._last = -1e18
        self._user_slot = {f"u{i}": i for i in range(self.USERS)}
        self._object_slot = {f"o{i}": i for i in range(self.OBJECTS)}
        self._submissions = [
            (
                f"u{k * 7919 % self.USERS}",
                [f"o{(k * 31 + j * 17) % self.OBJECTS}" for j in range(self.CLAIMS)],
                [((k * 13 + j * 5) % 97) / 97.0 for j in range(self.CLAIMS)],
            )
            for k in range(8 * self.SUBMISSIONS)
        ]
        self._position = 0
        self._truths = np.zeros(self.OBJECTS)
        #: CPU seconds of the sampling thread per kernel run.  Not wall
        #: clock: waiting for the interpreter lock while one of the
        #: program's own threads holds it is the program's doing, not
        #: the machine's.  A stall of the whole virtual CPU does show
        #: (the guest cannot tell it from running).
        self.kernel_s: list[float] = []

    def kernel(self) -> None:
        users, objects, values = [], [], []
        lo = self._position
        self._position = (lo + self.SUBMISSIONS) % len(self._submissions)
        for user_id, object_ids, claimed in self._submissions[lo:lo + self.SUBMISSIONS]:
            slot = self._user_slot[user_id]
            for object_id, value in zip(object_ids, claimed):
                users.append(slot)
                objects.append(self._object_slot[object_id])
                values.append(value)
        u, o, v = np.asarray(users), np.asarray(objects), np.asarray(values)
        truths = self._truths
        for _ in range(3):
            error = np.bincount(u, weights=(v - truths[o]) ** 2, minlength=self.USERS) + 1e-9
            weight = -np.log(error / error.sum())
            mass = np.bincount(o, weights=weight[u], minlength=self.OBJECTS)
            total = np.bincount(o, weights=weight[u] * v, minlength=self.OBJECTS)
            truths = total / np.maximum(mass, 1e-9)
        self._truths = truths

    def sample(self, repeats: int = 1) -> tuple[float, float]:
        """Run the kernel ``repeats`` times; ``(wall, cpu)`` seconds spent."""
        start = self._clock()
        cpu_start = cpu = self._cpu_clock()
        for _ in range(repeats):
            self.kernel()
            after = self._cpu_clock()
            self.kernel_s.append(after - cpu)
            cpu = after
        self._last = self._clock()
        return self._last - start, cpu - cpu_start

    def sample_if_due(self) -> tuple[float, float]:
        """One sample when ``every_s`` has passed since the last."""
        if self._clock() - self._last < self.every_s:
            return 0.0, 0.0
        return self.sample()

    @contextlib.contextmanager
    def sampling_in_background(self):
        """Sample from another thread while the caller's block runs.

        For work that mostly waits on another process (spawning a shard
        host): the samples are then taken during the wait itself, which
        followed a one-second spawn far better than samples before and
        after it.  Not for in-process work, which would fight the
        sampler for the interpreter lock.
        """
        stop = threading.Event()

        def loop() -> None:
            while not stop.is_set():
                self.sample()
                stop.wait(0.004)

        thread = threading.Thread(target=loop, name="speed-gauge", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    @property
    def factor(self) -> float:
        """Reference seconds per second observed while sampling."""
        if not self.kernel_s:
            return 1.0
        return REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s)


# ----------------------------------------------------------------------
def _proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of a live process (0.0 once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_peak_rss_mb(pid: int) -> float:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_seconds(child_pids=()) -> float:
    """CPU seconds so far of this process and the given live children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + sum(_proc_cpu_s(pid) for pid in child_pids)


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS watermark at its current RSS.

    Without it a run would report the peak of whatever ran before it in
    the same process (an earlier workload, an earlier repetition).
    Where the kernel refuses, the watermark stays process-wide.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident set of this process (since the last reset) plus
    that of each live child."""
    own = _proc_peak_rss_mb(os.getpid()) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_peak_rss_mb(pid) for pid in child_pids)


# ----------------------------------------------------------------------
class OpenLoopPacer:
    """Due-time bookkeeping for a single-threaded open-loop driver.

    ``due[i]`` is when submission ``i`` is scheduled, in seconds from
    :meth:`start`.  Cycles begin on a fixed tick (a front end's flush
    interval; an overrunning cycle starts the next at once): the driver
    takes every submission now due (at most ``max_batch``), sends them,
    and stamps them all acknowledged.  Latency counts from the *due*
    time, so a stall shows up on every submission it delayed; how late
    the generator itself ran is kept separately.  The loop gives up
    ``drain_s`` after the last due time, and whatever was never taken
    is the end backlog.
    """

    def __init__(self, due, *, tick_s: float, max_batch: int, drain_s: float,
                 clock=time.perf_counter, sleep=time.sleep) -> None:
        self.due = np.asarray(due, dtype=float)
        self.tick_s = tick_s
        self.max_batch = max_batch
        self.deadline = float(self.due[-1]) + drain_s
        self._clock = clock
        self._sleep = sleep
        self._t0 = 0.0
        self._next_tick = 0.0
        self.taken = 0
        self.ack = np.full(self.due.size, np.nan)
        self.sent = np.full(self.due.size, np.nan)

    def start(self) -> None:
        self._t0 = self._clock()
        self._next_tick = 0.0

    def now(self) -> float:
        return self._clock() - self._t0

    def next_batch(self):
        """``(lo, hi)`` of the submissions to send now; None when done.

        Sleeps to the next tick, and past it to the next due time when
        nothing is due yet.
        """
        n = self.due.size
        while self.taken < n:
            now = self.now()
            if now < self._next_tick:
                self._sleep(self._next_tick - now)
                continue
            if now > self.deadline:
                return None
            hi = int(np.searchsorted(self.due, now, side="right"))
            if hi > self.taken:
                lo = self.taken
                hi = min(hi, lo + self.max_batch)
                self.sent[lo:hi] = now
                self.taken = hi
                self._next_tick = max(self._next_tick + self.tick_s, now)
                return lo, hi
            self._sleep(max(self.due[self.taken] - now, 0.0))
        return None

    def acknowledge(self, lo: int, hi: int) -> None:
        self.ack[lo:hi] = self.now()

    @property
    def backlog_end(self) -> int:
        """Submissions never taken before the loop gave up."""
        return int(self.due.size - self.taken)

    def latencies_s(self) -> np.ndarray:
        """Ack minus due, for the acknowledged submissions."""
        done = ~np.isnan(self.ack)
        return self.ack[done] - self.due[done]

    def lateness_s(self) -> np.ndarray:
        """Send minus due: how late the generator ran."""
        done = ~np.isnan(self.sent)
        return self.sent[done] - self.due[done]


# ----------------------------------------------------------------------
def _filesystem_type(path: Path) -> str:
    path = path.resolve()
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        if (str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
            best, fstype = mount, parts[2]
    return fstype


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(root: Path, work_dir: Path, seed: int) -> dict:
    """Where and on what this report was measured."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "git_commit": _git_commit(root),
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_model": _cpu_model(),
        "wal_filesystem": _filesystem_type(work_dir),
        "load_1min_at_start": load1,
        "noisy": load1 > nproc / 2,
        "seed": seed,
    }


def quartile_spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3-q1)/median)`` as the driver computes them."""
    values = [float(v) for v in values]
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / abs(med) if med else 0.0)
