"""``benchmarks/chaos_drill.py`` runs from a bare checkout.

The drill lives outside ``src/`` and nothing else in tier-1 imports it;
the host-loss scenario (two shard hosts, seconds) is cheap enough to
run here, so a broken drill shows up before CI does.  The scenarios
that kill a primary take ~10 s each and are marked slow.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DRILL = ROOT / "benchmarks" / "chaos_drill.py"


def run_drill(tmp_path, *args):
    # No PYTHONPATH: the drill finds the checkout's src/ by itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(DRILL), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_host_loss_drill_rehomes_bitwise(tmp_path):
    stdout = run_drill(
        tmp_path, "--scenarios", "host-loss", "--seeds", "11",
        "--claims", "1500", "--output", "-",
    )
    assert stdout.splitlines()[-1] == (
        "invariants: rehome_budget_matches=True, "
        "rehome_truths_match_bitwise=True, wal_replay_matches=True"
    )
    assert list(tmp_path.iterdir()) == []  # "-" writes no report


@pytest.mark.slow
@pytest.mark.parametrize(
    "scenario, seed, flags",
    [
        (
            "promotion", 101,
            ("auto_promoted", "truths_match_bitwise",
             "budget_spent_matches", "stale_promote_refused"),
        ),
        (
            "partition", 7,
            ("auto_promoted", "truths_match_bitwise",
             "budget_spent_matches", "stale_promote_refused",
             "no_double_promotion"),
        ),
    ],
)
def test_kill_the_primary_drill_heals(tmp_path, scenario, seed, flags):
    output = tmp_path / "report.json"
    run_drill(
        tmp_path, "--scenarios", scenario, "--seeds", str(seed),
        "--claims", "4000", "--output", str(output),
    )
    report = json.loads(output.read_text())
    assert report["invariants"] == {flag: True for flag in flags}
