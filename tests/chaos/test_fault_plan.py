"""Unit tests for the chaos layer: plans, the switchboard, hook sites.

The property tests in ``tests/properties/test_chaos_properties.py``
pin the determinism contract; these cover the plan's validation and
bookkeeping, the process-wide switchboard semantics, and that the WAL
and transport hook sites actually translate a firing point into the
documented failure (a sticky WalError chained to the injected
OSError, a torn tail on disk, a refused dial).
"""

import pytest

from repro.chaos import (
    DEFAULT_RATES,
    FAULT_POINTS,
    FaultPlan,
    InjectedFault,
)
from repro.chaos import points as chaos_points
from repro.durable import WalError, WriteAheadLog, read_wal
from repro.durable.records import BATCH


# ---------------------------------------------------------------- plan
class TestFaultPlan:
    def test_unknown_point_in_rates_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan(1, rates={"wal.write": 0.5, "nope": 0.1})

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(1, rates={"net.send": 1.5})

    def test_bad_delay_range_rejected(self):
        with pytest.raises(ValueError, match="delay_range"):
            FaultPlan(1, delay_range=(0.5, 0.1))

    def test_fire_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan(1).fire("wal.nope")

    def test_default_rates_keep_storage_faults_opt_in(self):
        # WAL corruption and SIGKILL must never fire unless a drill
        # explicitly asks: they are not survivable-by-default faults.
        for point in ("wal.write", "wal.fsync", "wal.torn_tail",
                      "proc.kill"):
            assert DEFAULT_RATES[point] == 0.0
        plan = FaultPlan(3)
        assert all(
            plan.fire("wal.write") is None for _ in range(200)
        )

    def test_fired_fault_carries_point_index_action(self):
        plan = FaultPlan(5, rates={"net.send": 1.0})
        first = plan.fire("net.send")
        second = plan.fire("net.send")
        assert first == InjectedFault("net.send", 0, "reset", 0.0)
        assert second.index == 1
        assert plan.counts() == {"net.send": 2}
        assert plan.queries() == {"net.send": 2}

    def test_delay_faults_draw_seconds_in_range(self):
        plan = FaultPlan(
            7, rates={"net.delay": 1.0}, delay_range=(0.02, 0.04),
            max_per_point=None,
        )
        for _ in range(50):
            fault = plan.fire("net.delay")
            assert fault.action == "delay"
            assert 0.02 <= fault.seconds <= 0.04

    def test_non_delay_faults_have_zero_seconds(self):
        plan = FaultPlan(7, rates={"wal.fsync": 1.0})
        assert plan.fire("wal.fsync").seconds == 0.0

    def test_max_per_point_caps_fires_not_queries(self):
        plan = FaultPlan(
            9, rates={"proc.stall": 1.0}, max_per_point=3
        )
        fires = [plan.fire("proc.stall") for _ in range(10)]
        assert sum(f is not None for f in fires) == 3
        assert plan.queries() == {"proc.stall": 10}
        assert plan.counts() == {"proc.stall": 3}

    def test_describe_is_json_friendly_and_ordered(self):
        plan = FaultPlan(11, rates={"net.send": 1.0})
        plan.fire("net.send")
        desc = plan.describe()
        assert desc["seed"] == 11
        assert desc["rates"]["net.send"] == 1.0
        assert "wal.write" not in desc["rates"]  # zero rates elided
        assert desc["injected"] == [
            {"point": "net.send", "index": 0, "action": "reset",
             "seconds": 0.0}
        ]

    def test_every_point_has_a_default_rate(self):
        assert set(DEFAULT_RATES) == set(FAULT_POINTS)


# ---------------------------------------------------------- switchboard
class TestSwitchboard:
    def teardown_method(self):
        chaos_points.uninstall()

    def test_fire_is_noop_when_nothing_installed(self):
        assert chaos_points.active() is None
        assert chaos_points.fire("net.send") is None
        assert chaos_points.injected_counts() == {}

    def test_install_requires_a_plan(self):
        with pytest.raises(TypeError):
            chaos_points.install(object())

    def test_install_routes_fire_to_the_plan(self):
        plan = FaultPlan(13, rates={"net.send": 1.0})
        chaos_points.install(plan)
        assert chaos_points.active() is plan
        assert chaos_points.fire("net.send") is not None
        assert chaos_points.injected_counts() == {"net.send": 1}
        chaos_points.uninstall()
        assert chaos_points.fire("net.send") is None

    def test_installed_scope_restores_previous_plan(self):
        outer = FaultPlan(1)
        chaos_points.install(outer)
        inner = FaultPlan(2, rates={"net.send": 1.0})
        with chaos_points.installed(inner) as plan:
            assert plan is inner
            assert chaos_points.active() is inner
        assert chaos_points.active() is outer

    def test_installed_scope_uninstalls_when_none_before(self):
        with chaos_points.installed(FaultPlan(2)):
            assert chaos_points.active() is not None
        assert chaos_points.active() is None


# ----------------------------------------------------------- hook sites
def assert_chaos_cause(excinfo, match: str) -> None:
    """The WalError is chained to the injected OSError."""
    cause = excinfo.value.__cause__
    assert isinstance(cause, OSError) and match in str(cause)


class TestWalHooks:
    def test_injected_write_error_surfaces_as_oserror(self, tmp_path):
        # The fault fires at the group write, so the append only stages
        # and the drain at sync() fails.  The failure is sticky: with
        # chaos off again the log still refuses appends, the first close
        # raises, and nothing of the failed group reached the disk.
        plan = FaultPlan(17, rates={"wal.write": 1.0})
        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.append(BATCH, b"payload")
        with chaos_points.installed(plan):
            with pytest.raises(WalError) as excinfo:
                wal.sync()
        assert_chaos_cause(excinfo, "chaos")
        with pytest.raises(WalError, match="group commit failed"):
            wal.append(BATCH, b"payload")
        with pytest.raises(WalError, match="group commit failed"):
            wal.close()
        wal.close()
        assert wal.durable_lsn == 0
        assert read_wal(tmp_path).records == []

    def test_injected_fsync_error_surfaces_as_oserror(self, tmp_path):
        # Under fsync="always" the append is a group of one drained
        # inline, so it raises itself; the watermark never covers it.
        plan = FaultPlan(19, rates={"wal.fsync": 1.0})
        wal = WriteAheadLog(tmp_path, fsync="always")
        with chaos_points.installed(plan):
            with pytest.raises(WalError) as excinfo:
                wal.append(BATCH, b"payload")
        assert_chaos_cause(excinfo, "chaos")
        assert wal.durable_lsn == 0
        with pytest.raises(WalError, match="group commit failed"):
            wal.close()

    def test_torn_tail_is_truncated_by_recovery(self, tmp_path):
        # Healthy prefix, then a torn group: the drain writes a real
        # writev prefix that stops inside the frame (that is the fault),
        # every later call refuses, and the next reader repairs the
        # partial frame away, leaving exactly the durable prefix.
        wal = WriteAheadLog(tmp_path, fsync="never")
        for i in range(3):
            wal.append(BATCH, b"ok%d" % i)
        wal.sync()
        wal.append(BATCH, b"never-lands")
        plan = FaultPlan(23, rates={"wal.torn_tail": 1.0})
        with chaos_points.installed(plan):
            with pytest.raises(WalError) as excinfo:
                wal.sync()
        assert_chaos_cause(excinfo, "torn")
        assert wal.durable_lsn == 3
        with pytest.raises(WalError, match="group commit failed"):
            wal.close()
        scan = read_wal(tmp_path)
        assert scan.torn_tail
        payloads = [r.payload for r in scan.records]
        assert payloads == [b"ok0", b"ok1", b"ok2"]


class TestTransportHooks:
    def test_injected_dial_refusal_exhausts_retries(self):
        from repro.net.transport import connect

        plan = FaultPlan(29, rates={"net.connect": 1.0})
        with chaos_points.installed(plan):
            with pytest.raises(ConnectionError, match="chaos"):
                # The injected refusal fires before any real dial, so
                # no listener is needed; the short deadline bounds the
                # retry loop.
                connect(("127.0.0.1", 1), timeout=0.3)
        assert plan.counts()["net.connect"] >= 1
