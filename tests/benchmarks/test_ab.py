"""``benchmarks/ab.py``: the claim rule, judged on canned reports.

Two copies of one set of reports read ``no claim`` on every row; a
change that is 15% faster on every pair reads ``CLAIM`` on the metrics
it moved, and the reverse slowdown reads ``no claim``; so does the gain
when the change's runs failed a correctness check the parent's passed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
AB = ROOT / "benchmarks" / "ab.py"
sys.path.insert(0, str(AB.parent))

import ab  # noqa: E402

PARENT_CPU = [0.117, 0.119, 0.116, 0.121, 0.118, 0.120, 0.117, 0.119, 0.122, 0.118]


def report(cpu_us: float, read_ms: float, failed: int = 0) -> dict:
    """A one-repetition ``run.py`` report of ``fabric_rpc``."""
    return {"workloads": {"fabric_rpc": {"reps": [{
        "failed": failed,
        "end_to_end": {"cpu_us_per_claim": cpu_us, "read_p50_ms": read_ms,
                       "ingest_claims_per_s": 1.0 / cpu_us * 1e6},
        "ungated": {"net.frames_sent": 5376.0},
    }]}}}


def write_study(root: Path, scale: float, failed_seed: int | None = None) -> Path:
    """Ten pairs: B's CPU figure is A's times ``scale``; reads equal;
    B's run of ``failed_seed`` failed one correctness check."""
    for side, factor in (("A", 1.0), ("B", scale)):
        directory = root / "reports" / side
        directory.mkdir(parents=True)
        for seed, cpu in enumerate(PARENT_CPU, start=4601):
            failed = int(side == "B" and seed == failed_seed)
            (directory / f"{seed}.json").write_text(
                json.dumps(report(cpu * factor, 0.40 + 0.001 * (seed % 3), failed))
            )
    return root


def run_judge(root: Path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(AB), "--judge", str(root)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    rows = {
        line.split()[0]: "no claim" if line.endswith("no claim") else "CLAIM"
        for line in proc.stdout.splitlines()[1:]
        if line.endswith(("CLAIM", "no claim"))
    }
    return proc.returncode, rows, proc.stdout


def test_identical_reports_read_no_claim(tmp_path):
    code, rows, _ = run_judge(write_study(tmp_path, 1.0))
    assert code == 0
    assert rows and set(rows.values()) == {"no claim"}
    assert "fabric_rpc.cpu_us_per_claim" in rows
    assert "fabric_rpc.net.frames_sent" in rows
    assert "fabric_rpc.checks_failed" in rows


def test_a_planted_fifteen_percent_gain_reads_claim(tmp_path):
    code, rows, _ = run_judge(write_study(tmp_path, 0.85))
    assert code == 0
    assert rows["fabric_rpc.cpu_us_per_claim"] == "CLAIM"
    # Higher is better for throughput: the same runs claim it too.
    assert rows["fabric_rpc.ingest_claims_per_s"] == "CLAIM"
    assert rows["fabric_rpc.read_p50_ms"] == "no claim"


def test_a_planted_fifteen_percent_slowdown_claims_nothing(tmp_path):
    code, rows, _ = run_judge(write_study(tmp_path, 1.15))
    assert code == 0
    assert set(rows.values()) == {"no claim"}


def test_a_gain_with_a_failed_check_claims_nothing(tmp_path):
    """The 15% gain again, with one of the change's runs failing one
    correctness check: no row claims, and the table says why."""
    code, rows, out = run_judge(write_study(tmp_path, 0.85, failed_seed=4605))
    assert code == 1
    assert rows["fabric_rpc.cpu_us_per_claim"] == "no claim"
    assert set(rows.values()) == {"no claim"}
    assert "the change failed 1 correctness check(s) over 10 pair(s), the parent 0" in out


def test_a_check_failed_on_both_sides_does_not_refuse(tmp_path):
    for side in "AB":
        directory = tmp_path / "reports" / side
        directory.mkdir(parents=True)
        for seed, cpu in enumerate(PARENT_CPU, start=4601):
            failed = int(seed == 4603)
            scale = 0.85 if side == "B" else 1.0
            (directory / f"{seed}.json").write_text(
                json.dumps(report(cpu * scale, 0.40, failed))
            )
    code, rows, _ = run_judge(tmp_path)
    assert code == 0
    assert rows["fabric_rpc.cpu_us_per_claim"] == "CLAIM"


class TestRule:
    def test_nine_of_ten_pairs_and_a_gap_past_the_iqr(self):
        change = [value * 0.9 for value in PARENT_CPU]
        change[3] = PARENT_CPU[3] * 1.01  # one pair lost
        row = ab.verdict(PARENT_CPU, change, "lower")
        assert row["wins"] == 9 and row["verdict"] == "CLAIM"
        change[5] = PARENT_CPU[5] * 1.01  # two lost: 8/10
        assert ab.verdict(PARENT_CPU, change, "lower")["verdict"] == "no claim"

    def test_a_gap_inside_the_parent_iqr_is_no_claim(self):
        # Every pair won by a hair: the medians sit within the spread.
        change = [value - 1e-4 for value in PARENT_CPU]
        row = ab.verdict(PARENT_CPU, change, "lower")
        assert row["wins"] == 10
        assert row["parent_iqr"] > 1e-4
        assert row["verdict"] == "no claim"

    def test_three_pairs_need_all_three(self):
        assert ab.verdict([3.0, 3.1, 3.2], [2.0, 2.1, 3.3], "lower")["verdict"] == "no claim"
        assert ab.verdict([3.0, 3.1, 3.2], [2.0, 2.1, 2.2], "lower")["verdict"] == "CLAIM"

    def test_uneven_sides_are_refused(self):
        with pytest.raises(ValueError):
            ab.verdict([1.0, 2.0], [1.0], "lower")


def test_probe_lines_become_figures():
    text = ("# a comment 12\n"
            "submit 2.75 us/submission\n"
            "pump 5.29 us/submission\n"
            "stage     us/chunk  copies\n"
            "admit 3.10 1.00\n"
            "admit 4.20 1.00\n")
    assert ab.probe_metrics(text) == {
        "submit": 2.75, "pump": 5.29, "admit": 3.10, "admit#2": 4.20,
    }


def test_a_probe_study_extracts_alternates_and_keeps_every_report(tmp_path):
    """Both sides extracted at equal-length paths, one run a side per
    pair, every report kept, one table row per probe figure."""
    inside = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
        capture_output=True, text=True,
    )
    if inside.returncode:
        pytest.skip("not a git checkout")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    study = tmp_path / "study"
    proc = subprocess.run(
        [sys.executable, str(AB), "--parent", "HEAD", "--probe", "submit_cost",
         "--probe-args=--quick", "--pairs", "2", "--seeds", "1", "2",
         "--out", str(study)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "A first" in proc.stderr and "B first" in proc.stderr
    assert len(str(study / "A")) == len(str(study / "B"))
    assert (study / "A" / "src" / "repro").is_dir()
    for side in "AB":
        kept = sorted(p.name for p in (study / "reports" / side).iterdir())
        assert kept == ["1.txt", "2.txt"]
    rows = [line.split()[0] for line in proc.stdout.splitlines()
            if line.startswith(("submit", "pump"))]
    assert rows == ["pump", "submit"]
