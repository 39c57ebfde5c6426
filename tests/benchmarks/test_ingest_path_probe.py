"""``benchmarks/probes/ingest_path.py`` runs from a bare checkout.

Nothing else in tier-1 imports the probe, and it reaches into the
shard, the aggregator and the estimator by private names, so an API
change there would otherwise break it silently.  ``--quick`` takes
about half a second.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PROBE = ROOT / "benchmarks" / "probes" / "ingest_path.py"
STAGES = ["admit", "batch", "log-encode", "merge", "fold"]


def test_quick_probe_prints_every_stage(tmp_path):
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
        line.split()[0]: line.split()[1:4]
        for line in proc.stdout.splitlines() if not line.startswith("#")
    }
    assert [s for s in rows if s in STAGES] == STAGES
    assert all(float(rows[s][0]) > 0 for s in STAGES)
    # Admitted once, merged once: the batcher emits views, copying no
    # claim of a chunk that is a whole batch.
    copies = {s: float(rows[s][1]) for s in STAGES}
    assert copies == {
        "admit": 1.0, "batch": 0.0, "log-encode": 0.0, "merge": 1.0,
        "fold": 0.0,
    }
    assert float(rows["total"][1]) == 2.0
