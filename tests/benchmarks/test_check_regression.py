"""Unit tests for the CI chaos-drill regression gate."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).resolve().parent.parent.parent
    / "benchmarks"
    / "check_regression.py"
)
_spec = importlib.util.spec_from_file_location(
    "check_regression", _MODULE_PATH
)
check_regression = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_regression", check_regression)
_spec.loader.exec_module(check_regression)


def chaos_report(
    *,
    detection=2.4,
    promotion=1.0,
    wall=4.6,
    auto_promoted=True,
    bitwise=True,
    budget=True,
):
    return {
        "kind": "chaos",
        "seeds": [101, 202],
        "watchdog": {
            "detection_seconds_max": detection,
            "promotion_seconds_max": promotion,
            "failover_wall_seconds_max": wall,
        },
        "invariants": {
            "auto_promoted": auto_promoted,
            "truths_match_bitwise": bitwise,
            "budget_spent_matches": budget,
        },
    }


def failures(results):
    return [c.metric.path for c in results if c.ok is False]


class TestCompare:
    def test_bitwise_flag_false_fails_regardless_of_tolerance(self):
        results = check_regression.check_regression(
            chaos_report(),
            chaos_report(bitwise=False),
            kind="chaos",
            tolerance=0.99,
        )
        assert failures(results) == ["invariants.truths_match_bitwise"]

    def test_missing_sections_are_skipped(self):
        base = chaos_report()
        del base["watchdog"]
        results = check_regression.check_regression(
            base, chaos_report(), kind="chaos"
        )
        skipped = [c.metric.path for c in results if c.ok is None]
        assert "watchdog.detection_seconds_max" in skipped
        # chaos_report() has no host-loss section on either side.
        assert "rehome.rehome_seconds_max" in skipped
        assert not failures(results)

    def test_no_common_metric_is_an_error(self):
        with pytest.raises(ValueError):
            check_regression.check_regression(
                {"x": 1}, {"y": 2}, kind="chaos"
            )

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            check_regression.check_regression(
                chaos_report(), chaos_report(), kind="chaos",
                tolerance=1.5,
            )


class TestChaosKind:
    def test_identical_reports_pass(self):
        report = chaos_report()
        results = check_regression.check_regression(
            report, chaos_report(), kind="chaos"
        )
        assert failures(results) == []

    def test_detection_gates_on_absolute_ceiling(self):
        # Healthy drills sit near 2.4s; the bound is
        # max(baseline*(1+tol), 10s floor), so jitter up to the floor
        # passes and a watchdog past its SLO fails.
        results = check_regression.check_regression(
            chaos_report(), chaos_report(detection=9.0), kind="chaos"
        )
        assert failures(results) == []
        results = check_regression.check_regression(
            chaos_report(), chaos_report(detection=11.0), kind="chaos"
        )
        assert failures(results) == ["watchdog.detection_seconds_max"]

    def test_promotion_ceiling(self):
        results = check_regression.check_regression(
            chaos_report(), chaos_report(promotion=16.0), kind="chaos"
        )
        assert failures(results) == ["watchdog.promotion_seconds_max"]

    def test_invariant_flags_are_hard(self):
        for kwargs, path in (
            ({"auto_promoted": False}, "invariants.auto_promoted"),
            ({"bitwise": False}, "invariants.truths_match_bitwise"),
            ({"budget": False}, "invariants.budget_spent_matches"),
        ):
            results = check_regression.check_regression(
                chaos_report(), chaos_report(**kwargs), kind="chaos"
            )
            assert failures(results) == [path]


class TestCli:
    def write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", chaos_report())
        fresh = self.write(tmp_path, "fresh.json", chaos_report())
        code = check_regression.main(
            ["--kind", "chaos", "--baseline", base, "--fresh", fresh]
        )
        assert code == 0
        assert "no regression" in capsys.readouterr().out

    def test_exit_nonzero_on_doctored_detection(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", chaos_report())
        fresh = self.write(
            tmp_path, "fresh.json", chaos_report(detection=100.0)
        )
        code = check_regression.main(
            ["--kind", "chaos", "--baseline", base, "--fresh", fresh]
        )
        assert code == 1
        out = capsys.readouterr()
        assert "FAIL" in out.out
        assert "regressed" in out.err

    def test_exit_two_on_unreadable_input(self, tmp_path):
        base = self.write(tmp_path, "base.json", chaos_report())
        code = check_regression.main(
            [
                "--kind", "chaos",
                "--baseline", base,
                "--fresh", str(tmp_path / "missing.json"),
            ]
        )
        assert code == 2

    def test_committed_smoke_baselines_self_compare(self):
        """The baseline CI diffs against must pass against itself."""
        path = str(
            _MODULE_PATH.parent.parent / "results" / "BENCH_chaos_smoke.json"
        )
        assert check_regression.main(
            ["--kind", "chaos", "--baseline", path, "--fresh", path]
        ) == 0
