"""``benchmarks/probes/primary_read.py`` runs from a bare checkout.

Nothing else in tier-1 runs the probe, and it wraps
``StreamingEstimator.ingest`` by name, so a rename there would otherwise
break it silently.  ``--quick`` takes a few seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PROBE = ROOT / "benchmarks" / "probes" / "primary_read.py"


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
    rows = {
        line.split()[0]: [float(x) for x in line.split()[1:]]
        for line in proc.stdout.splitlines() if not line.startswith("#")
    }
    assert list(rows) == [
        "read_mix.crh", "read_mix.gtm", "read_mix.catd", "device",
    ]
    for dirty, fold, rest, clean in rows.values():
        # A dirty read folds (the fold is timed inside it); a clean one
        # does not, so it costs less than the fold alone.
        assert 0 < fold < dirty and clean < dirty
        assert rest > 0 and clean > 0
    assert list(tmp_path.iterdir()) == []
