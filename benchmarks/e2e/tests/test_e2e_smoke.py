"""``run.py --quick`` end to end: every check on, no bounds applied."""

from __future__ import annotations

import json

import pytest

import catalog
import run


def _result_lines(capsys) -> list[dict]:
    out = capsys.readouterr().out.strip().splitlines()
    return [json.loads(line) for line in out if line.startswith("{")]


def _assert_correct(line: dict, declared: list[dict]) -> None:
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 1
    assert set(line["metrics"]) == {spec["name"] for spec in declared}
    units = {spec["name"]: spec["unit"] for spec in declared}
    assert all(body["unit"] == units[name] for name, body in line["metrics"].items())


@pytest.mark.parametrize("workload", ["device_submit", "bulk_durable", "read_mix"])
def test_quick_in_process_workload(workload, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    assert run.main(["--workload", workload, "--quick", "--output", str(report_path)]) == 0
    (line,) = _result_lines(capsys)
    _assert_correct(line, catalog.end_to_end())
    # A one-second run may have too few reads for a median (reported 0).
    assert all(body["value"] > 0 for name, body in line["metrics"].items() if name != "read_p50_ms")
    report = json.loads(report_path.read_text())
    assert {"git_commit", "nproc", "wal_filesystem", "noisy", "seed"} <= set(report["fingerprint"])
    (rep,) = report["workloads"][workload]["reps"]
    assert rep["ungated"]["error_share"] == 0.0
    assert not (run.HERE / ".work" / f"run-{run.os.getpid()}").exists()


def test_quick_traced_run_reports_every_declared_layer_metric(capsys, tmp_path):
    report_path = tmp_path / "traced.json"
    code = run.main(
        ["--workload", "bulk_durable", "--quick", "--trace", "1", "--output", str(report_path)]
    )
    assert code == 0
    (line,) = _result_lines(capsys)
    _assert_correct(line, catalog.per_layer())
    metrics = line["metrics"]
    assert metrics["durable.wal.append.calls"]["value"] > 0
    assert metrics["durable.recovery.recover.calls"]["value"] == 1
    assert metrics["net.frames_sent"]["value"] == 0
    assert 0 <= metrics["bench.residual_fraction"]["value"] < 0.5
    spans = json.loads((tmp_path / "traced.json.spans.bulk_durable.json").read_text())
    assert set(spans["spans"]) == {"name", "start", "end", "parent", "thread"}
    assert "bench.window" in spans["names"]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["fabric_rpc", "replicated_bulk", "device_paced_durable"])
def test_quick_multi_process_and_paced_workloads(workload, capsys):
    assert run.main(["--workload", workload, "--quick"]) == 0
    (line,) = _result_lines(capsys)
    _assert_correct(line, catalog.end_to_end())
