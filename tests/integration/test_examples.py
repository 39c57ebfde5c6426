"""Smoke tests: every example script must run end-to-end.

Examples are the first code users copy; a broken example is a broken
library.  Each script exposes ``main()``, which we import by path and
execute with stdout captured, asserting on its key output lines.
"""

import importlib.util
import re
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_examples_directory_complete():
    scripts = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))
    assert scripts == [
        "air_quality_monitoring",
        "compact_recover",
        "crowd_labeling",
        "crowdsensing_protocol",
        "distributed_service",
        "durable_service",
        "high_throughput_service",
        "indoor_floorplan",
        "multiprocess_workers",
        "privacy_budget_planner",
        "quickstart",
        "replicated_service",
        "streaming_monitoring",
    ]


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "average |added noise|" in out
    assert "utility loss is" in out


def test_indoor_floorplan(capsys):
    out = run_example("indoor_floorplan", capsys)
    assert "247 walkers, 129 segments" in out
    assert "median error" in out


def test_air_quality_monitoring(capsys):
    out = run_example("air_quality_monitoring", capsys)
    assert "ground-truth MAE by aggregator" in out
    assert "adversarial" in out


def test_high_throughput_service(capsys):
    out = run_example("high_throughput_service", capsys)
    assert "claims rejected over budget" in out
    assert "worst-case composed guarantee" in out
    assert "bulk path:" in out and "claims/s" in out
    assert "micro-batch latency" in out


def test_durable_service(capsys):
    out = run_example("durable_service", capsys)
    assert "crash: service process killed mid-stream" in out
    assert "truths bit-for-bit identical to the doomed service: True" in out
    assert "recovered privacy spend" in out
    assert "RMSE vs ground truth" in out


def test_compact_recover(capsys):
    out = run_example("compact_recover", capsys)
    assert "group commits on the pump thread" in out
    assert "reclaimed" in out
    assert "truths bit-for-bit identical after compaction: True" in out
    assert (
        "truths bit-for-bit identical after torn compaction: True" in out
    )


def test_multiprocess_workers(capsys):
    out = run_example("multiprocess_workers", capsys)
    assert "truths identical across modes" in out
    assert "caught: WorkerHandle(" in out
    assert "bit-for-bit" in out


def test_distributed_service(capsys):
    out = run_example("distributed_service", capsys)
    assert "truths identical bit-for-bit (sockets vs in-process)" in out
    assert "truths identical bit-for-bit (after failover + replay)" in out
    assert "truths identical bit-for-bit (after online rebalancing)" in out
    assert "supervisor: 1 restart(s)" in out
    captures, captured, in_force, journaled = (
        int(group.replace(",", ""))
        for group in re.search(
            r"(\d+) capture\(s\): ([\d,]+) B of state captured "
            r"\(([\d,]+) B in force\) for ([\d,]+) B journaled",
            out,
        ).groups()
    )
    # Too short a stream for the cadence (a 50 000-claim floor): the
    # one capture is the failover's and still in force; captures no
    # longer in force (none here) cost at most a quarter of the stream
    # they insured.
    assert captures == 1
    assert 0 < captured == in_force
    assert 4 * (captured - in_force) <= journaled


def test_replicated_service(capsys):
    out = run_example("replicated_service", capsys)
    assert "truths bitwise equal to primary" in out
    assert "truths bitwise equal to the crashed primary's recovered state" in out
    assert "spent budget preserved across the promotion" in out


def test_crowdsensing_protocol(capsys):
    out = run_example("crowdsensing_protocol", capsys)
    assert "0 user-to-user" in out
    assert "per-user guarantee" in out


def test_privacy_budget_planner(capsys):
    out = run_example("privacy_budget_planner", capsys)
    assert "noise-level window" in out
    assert "empirical check" in out


def test_crowd_labeling(capsys):
    out = run_example("crowd_labeling", capsys)
    assert "randomized response" in out
    assert "private-preference RR" in out


def test_streaming_monitoring(capsys):
    out = run_example("streaming_monitoring", capsys)
    assert "incident!" in out
    assert "final MAE" in out
