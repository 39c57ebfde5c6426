"""``benchmarks/probes/fold_crossover.py`` runs from a bare checkout.

Nothing else in tier-1 imports the probe, and it reaches into the
streaming estimators' private fold, so an API change there would
otherwise break it silently.  ``--quick`` takes about a second.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PROBE = ROOT / "benchmarks" / "probes" / "fold_crossover.py"


def test_quick_probe_prints_every_shape(tmp_path):
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
    rows = [line.split() for line in proc.stdout.splitlines()]
    for shape in ("200x48", "400x64", "2000x64"):
        timed = [row for row in rows if row[0] == shape and row[1] != "dense"]
        assert [row[1] for row in timed] == ["0.10", "0.33", "1.00"]
        assert all(float(us) > 0 for row in timed for us in row[3:])
        assert any(row[:2] == [shape, "dense"] for row in rows)
