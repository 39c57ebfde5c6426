"""``benchmarks/probes/cost_counts.py``: a workload's cost vector repeats.

The probe counts a workload's work (Python calls into ``repro`` by
module, C calls from ``repro`` code, read and write syscalls and bytes,
the workload's own counters) per claim.  Two ``--quick`` runs of the
in-process ``bulk_durable`` must print the same vector: every entry
equal, except the bytes read, which the workload's own read of
``/proc/self/status`` (for its peak RSS) moves by a byte or two when a
counter there, such as the context switches, gains a digit.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PROBE = ROOT / "benchmarks" / "probes" / "cost_counts.py"


def vector(tmp_path):
    # No PYTHONPATH: the probe finds the checkout's src/ by itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(PROBE), "--workload", "bulk_durable", "--quick"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.splitlines()
    claims = int(re.search(r"of (\d+) window claims", header).group(1))
    values = {}
    for row in rows:
        name, value, unit = row.split()
        assert unit == "/claim"
        values[name] = float(value) * claims
    return values


def test_two_quick_runs_count_the_same(tmp_path):
    first, second = vector(tmp_path), vector(tmp_path)
    assert list(first) == list(second)
    assert abs(first.pop("io.rchar") - second.pop("io.rchar")) <= 16
    assert first == second
    # The vector is not vacuous: the log's own layer, its syscalls, and
    # the counters all show up.
    assert first["calls.repro.durable.wal"] > 0
    assert first["c_calls.repro"] > first["calls.repro"] > 0
    assert first["io.syscw"] > 0 and first["counts.durable.wal.records"] > 0
    assert list(tmp_path.iterdir()) == []  # the log went to a temp dir
