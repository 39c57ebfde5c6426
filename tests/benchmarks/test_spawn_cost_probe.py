"""``benchmarks/probes/spawn_cost.py`` runs from a bare checkout.

Nothing else in tier-1 runs the probe, and it drives ``spawn_cli`` for
two roles, so a change to the launch path would otherwise break it
silently.  ``--quick`` takes about two seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PROBE = ROOT / "benchmarks" / "probes" / "spawn_cost.py"


def test_quick_probe_prints_every_row(tmp_path):
    # No PYTHONPATH: the probe finds the checkout's src/ by itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(PROBE), "--quick"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {
        line.split()[0]: line.split()[1:]
        for line in proc.stdout.splitlines() if not line.startswith("#")
    }
    assert list(rows) == [
        "serve_shard_cold", "serve_shard_warm", "serve_shard_child_rss",
        "standby_cold", "standby_warm", "standby_child_rss", "launcher_rss",
    ]
    for value, unit in rows.values():
        assert float(value) > 0 and unit in ("ms", "MB")
    assert list(tmp_path.iterdir()) == []  # the standbys' dirs were temp
