"""``benchmarks/probes/charge_cost.py`` runs from a bare checkout.

Nothing else in tier-1 runs the probe, and it drives both submit doors
through a ledger, so an API change there would otherwise break it
silently.  ``--quick`` takes about a second.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PROBE = ROOT / "benchmarks" / "probes" / "charge_cost.py"


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
        "uncosted_chunk", "costed_chunk", "costed_chunk_durable",
        "costed_submit",
    ]
    for value, unit in rows.values():
        assert float(value) > 0 and unit.startswith("us/")
    assert list(tmp_path.iterdir()) == []  # the log went to a temp dir
