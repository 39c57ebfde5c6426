"""``benchmarks/probes/submit_cost.py`` runs from a bare checkout.

Nothing else in tier-1 runs the probe, and it reads the write-ahead
log's record counter, so an API change there would otherwise break it
silently.  ``--quick`` takes well under a second a side.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PROBE = ROOT / "benchmarks" / "probes" / "submit_cost.py"


@pytest.mark.parametrize("durable", [False, True])
def test_quick_probe_prints_both_halves(tmp_path, durable):
    # No PYTHONPATH: the probe finds the checkout's src/ by itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(PROBE), "--quick"]
        + (["--durable"] if durable else []),
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
    assert list(rows) == ["submit", "pump", "wal"][:3 if durable else 2]
    assert float(rows["submit"][0]) > 0 and float(rows["pump"][0]) > 0
    if durable:
        # One CHARGE record for the pump's charges and one BATCH record
        # per full 1 024-claim batch: 1 024 submissions of 8 claims
        # over 4 campaigns.
        assert rows["wal"][0] == "9"
    assert list(tmp_path.iterdir()) == []  # the log went to a temp dir
