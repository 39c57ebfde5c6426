"""What it costs to start a child: spawn to ``PORT`` for each role.

Every shard host and standby the service starts goes through
``repro.net.fabric.spawn_cli`` and is usable once it prints its ``PORT
<n>`` line.  This probe times that, in wall ms from the call to the
announced port, for ``serve-shard`` and ``standby``:

- ``<role>_cold``: the first spawn in a fresh process (it pays for
  whatever a first spawn starts);
- ``<role>_warm``: the median of the later spawns in that process;
- ``<role>_child_rss``: VmRSS of the last child, once it announced;
- ``launcher_rss``: VmRSS of the process the children are forked from,
  when there is one (``repro.net.launcher``).

Each role runs in its own fresh process, so both cold rows are a
first spawn.  Each child is stopped (SIGTERM, then reaped) before the
next spawn.

    python benchmarks/probes/spawn_cost.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
ROLES = ("serve_shard", "standby")


def vm_rss_mb(pid: int):
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return None


def measure_role(role: str, spawns: int) -> dict:
    """Spawn ``role`` ``spawns`` times in this process; its timings."""
    sys.path.insert(0, str(SRC))
    from repro.net.fabric import spawn_cli
    from repro.utils.process import reap

    times, child_rss = [], None
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(spawns):
            argv = ["serve-shard", "--port", "0"]
            if role == "standby":
                argv = ["standby", "--dir", f"{tmp}/sb{i}", "--port", "0"]
            start = time.perf_counter()
            process, _port = spawn_cli(argv, port_timeout=120.0)
            times.append((time.perf_counter() - start) * 1e3)
            child_rss = vm_rss_mb(process.pid)
            process.terminate()
            reap(process)
    launcher = sys.modules.get("repro.net.launcher")
    current = getattr(launcher, "_current", None)
    return {
        "cold": times[0],
        "warm": statistics.median(times[1:]),
        "child_rss": child_rss,
        "launcher_rss": None if current is None else vm_rss_mb(current.pid),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="4 spawns a role (~2 s)"
    )
    parser.add_argument("--role", choices=ROLES, help=argparse.SUPPRESS)
    parser.add_argument("--spawns", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role is not None:
        print(json.dumps(measure_role(args.role, args.spawns)))
        return 0
    spawns = 4 if args.quick else 11
    print(f"# spawn -> PORT wall ms; cold = first spawn in a fresh "
          f"process, warm = median of the next {spawns - 1}")
    rows, launcher_rss = {}, []
    for role in ROLES:
        proc = subprocess.run(
            [sys.executable, __file__, "--role", role,
             "--spawns", str(spawns)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        rows[f"{role}_cold"] = (result["cold"], "ms")
        rows[f"{role}_warm"] = (result["warm"], "ms")
        rows[f"{role}_child_rss"] = (result["child_rss"], "MB")
        if result["launcher_rss"] is not None:
            launcher_rss.append(result["launcher_rss"])
    if launcher_rss:
        rows["launcher_rss"] = (max(launcher_rss), "MB")
    for name, (value, unit) in rows.items():
        print(f"{name} {value:.1f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
