"""Self-tests of the benchmark harness (no workload runs here)."""

from __future__ import annotations

import importlib
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import catalog
import compare
import measure
import reference
import traffic
from spans import Tracer

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ---------------------------------------------------------------- percentiles
@pytest.mark.parametrize(
    "n, expected",
    [(19, 0.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert measure.supported_percentile(n) == expected


def test_percentile_falls_back_below_the_wanted_one():
    samples = np.arange(1, 201) / 1000.0  # 200 samples: p90 at most
    value, used, n = measure.percentile_ms(samples, 99.0)
    assert (used, n) == (90.0, 200)
    assert value == pytest.approx(np.percentile(samples, 90.0) * 1e3)
    assert measure.percentile_ms(samples[:5], 50.0) == (0.0, 0.0, 5)


# ---------------------------------------------------------------------- spans
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_spans():
    fake = FakeClock()
    tracer = Tracer(clock=fake)

    def leaf():
        fake.advance(2.0)

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        fake.advance(1.0)
        leaf()
        leaf()
        fake.advance(0.5)

    middle = tracer.wrap("middle", middle)
    with tracer.span("root"):
        fake.advance(0.25)
        middle()
        fake.advance(0.25)
    times = tracer.self_times()["root"]
    assert times["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert times["middle"] == {"calls": 1, "total_s": 5.5, "self_s": 1.5}
    assert times["root"] == {"calls": 1, "total_s": 6.0, "self_s": 0.5}
    # Self times add up to the root's wall: nothing counted twice.
    assert sum(t["self_s"] for t in times.values()) == 6.0


def test_recursive_site_and_pause():
    fake = FakeClock()
    tracer = Tracer(clock=fake)

    def fit(depth):
        fake.advance(1.0)
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("fit", fit)
    with tracer.span("root"):
        traced(2)
        with tracer.paused():
            traced(5)  # six seconds nobody records
    times = tracer.self_times()["root"]
    assert times["fit"]["calls"] == 3
    assert times["fit"]["self_s"] == 3.0
    assert times["root"]["self_s"] == 6.0


def test_spans_of_other_threads_keep_their_own_stack():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", inner)
    go = threading.Event()

    def worker():
        go.wait(5.0)
        outer()

    thread = threading.Thread(target=worker, name="shipper")
    thread.start()
    with tracer.span("root"):
        go.set()
        thread.join(5.0)
        inner()
    assert not thread.is_alive()
    by_root = tracer.self_times()
    # The worker's spans hang under its own outermost span, not under
    # the main thread's root that happened to be open.
    assert by_root["outer"]["inner"]["calls"] == 1
    assert by_root["root"]["inner"]["calls"] == 1
    assert "outer" not in by_root["root"]


def test_dump_lists_every_span(tmp_path):
    tracer = Tracer()
    call = tracer.wrap("site", lambda: None)
    with tracer.span("root"):
        call()
    path = tmp_path / "spans.json"
    assert tracer.dump(path, "unit") == 2
    dumped = json.loads(path.read_text())
    assert dumped["workload"] == "unit"
    spans = dumped["spans"]
    assert [dumped["names"][i] for i in spans["name"]] == ["root", "site"]
    assert spans["parent"] == [-1, 0]
    assert set(spans) == {"name", "start", "end", "parent", "thread"}


def _site_attributes():
    for _, module, cls_name, attr in catalog.SPAN_SITES + [catalog.JOURNAL_SITE]:
        cls = getattr(importlib.import_module(module), cls_name)
        yield cls, attr


def test_counted_sites_keep_calls_and_sums_in_one_scope():
    tracer = Tracer()
    send = tracer.wrap("send", lambda payload: None, measure=lambda args: len(args[0]))
    record = tracer.count_calls("record", lambda: None)
    thread = threading.Thread(target=lambda: (send(b"abc"), record()))
    thread.start()
    thread.join(5.0)
    send(b"de")
    with tracer.paused():
        send(b"never counted")
        record()
    assert tracer.counted("send") == (2, 5.0)
    assert tracer.counted("record") == (1, 0.0)
    assert tracer.counted("absent") == (0, 0.0)


def test_wrappers_are_fully_uninstalled():
    before = [(cls, attr, cls.__dict__.get(attr)) for cls, attr in _site_attributes()]
    tracer = Tracer()
    tracer.install(catalog.SPAN_SITES, count_only=[catalog.JOURNAL_SITE])
    try:
        for cls, attr in _site_attributes():
            assert hasattr(getattr(cls, attr), "__wrapped__"), (cls, attr)
    finally:
        tracer.uninstall()
    for cls, attr, original in before:
        # Inherited attributes are inherited again, own ones identical.
        assert cls.__dict__.get(attr) is original, (cls, attr)


# ------------------------------------------------------------------ open loop
def _pacer(due, fake, **kwargs):
    pacer = measure.OpenLoopPacer(due, clock=fake, sleep=fake.advance, **kwargs)
    pacer.start()
    return pacer


def test_open_loop_times_from_due_and_reports_lateness():
    fake = FakeClock()
    pacer = _pacer(np.arange(10) * 0.1, fake, tick_s=0.2, max_batch=100, drain_s=0.5)
    assert pacer.next_batch() == (0, 1)  # only submission 0 is due at t=0
    fake.advance(0.35)  # the system stalls for 350 ms, past the 0.2 tick
    pacer.acknowledge(0, 1)
    assert pacer.next_batch() == (1, 4)  # 0.1, 0.2, 0.3 became due meanwhile
    fake.advance(0.05)
    pacer.acknowledge(1, 4)
    assert pacer.latencies_s() == pytest.approx([0.35, 0.30, 0.20, 0.10])
    # Sent at 0.35: submission 1 went out 250 ms after it was due.
    assert pacer.lateness_s() == pytest.approx([0.0, 0.25, 0.15, 0.05])
    # The late cycle started at once; the next waits for the 0.4 tick.
    assert pacer.next_batch() == (4, 5)
    assert fake.now == pytest.approx(0.4)


def test_open_loop_waits_for_the_next_due_time_when_idle():
    fake = FakeClock()
    pacer = _pacer([0.0, 0.5], fake, tick_s=0.1, max_batch=10, drain_s=0.5)
    assert pacer.next_batch() == (0, 1)
    pacer.acknowledge(0, 1)
    assert pacer.next_batch() == (1, 2)
    assert fake.now == pytest.approx(0.5)
    assert pacer.next_batch() is None and pacer.backlog_end == 0


def test_open_loop_backlog_when_the_system_cannot_keep_up():
    fake = FakeClock()
    pacer = _pacer(np.arange(100) * 0.01, fake, tick_s=0.05, max_batch=5, drain_s=0.1)
    while (batch := pacer.next_batch()) is not None:
        fake.advance(0.1)  # 5 per 100 ms against 10 offered
        pacer.acknowledge(*batch)
    assert pacer.backlog_end > 0
    assert pacer.backlog_end == 100 - pacer.taken
    assert len(pacer.latencies_s()) == pacer.taken


# ---------------------------------------------------------------- speed gauge
def test_gauge_turns_observed_seconds_into_reference_seconds():
    fake = FakeClock()
    gauge = measure.SpeedGauge(every_s=0.025, clock=fake, cpu_clock=fake)
    # The kernel "takes" twice the reference duration: a half-speed machine.
    gauge.kernel = lambda: fake.advance(2 * measure.REFERENCE_KERNEL_S)
    assert gauge.factor == 1.0  # nothing sampled yet
    wall, cpu = gauge.sample(3)
    assert wall == pytest.approx(6 * measure.REFERENCE_KERNEL_S) and cpu == pytest.approx(wall)
    assert gauge.factor == pytest.approx(0.5)
    # Not due again until every_s has passed since the last sample.
    fake.advance(0.010)
    assert gauge.sample_if_due() == (0.0, 0.0) and len(gauge.kernel_s) == 3
    fake.advance(0.020)
    assert gauge.sample_if_due()[0] == pytest.approx(2 * measure.REFERENCE_KERNEL_S)
    assert len(gauge.kernel_s) == 4


def test_gauge_kernel_is_deterministic_and_samples_in_background():
    one, other = measure.SpeedGauge(), measure.SpeedGauge()
    for _ in range(3):
        one.kernel()
        other.kernel()
    assert np.array_equal(one._truths, other._truths) and np.all(np.isfinite(one._truths))
    with one.sampling_in_background():
        deadline = measure.time.perf_counter() + 5.0
        while len(one.kernel_s) < 3 and measure.time.perf_counter() < deadline:
            measure.time.sleep(0.002)
    taken = len(one.kernel_s)
    assert taken >= 3
    measure.time.sleep(0.02)
    assert len(one.kernel_s) == taken  # the sampling thread has ended


# -------------------------------------------------------------------- traffic
def test_same_seed_same_traffic_other_seed_other_traffic():
    def device(seed):
        return traffic.device_traffic(
            seed, prefix="t", campaigns=2, users=50, objects=16, pool_per_campaign=64
        )

    def bulk(seed):
        return traffic.bulk_traffic(
            seed, campaign_ids=["a", "b"], users=50, objects=16, pool_claims=8192
        )

    for make in (device, bulk):
        assert make(7).sha256 == make(7).sha256
        assert make(7).sha256 != make(8).sha256
    first, again = bulk(7), bulk(7)
    assert all(
        x.campaign_id == y.campaign_id and np.array_equal(x.values, y.values)
        for x, y in zip(first.pool, again.pool)
    )


# ------------------------------------------------------------------ reference
def test_dict_ledger_and_cap_choice():
    sequence = ["a"] * 10 + ["b"] * 4 + ["c"] * 6
    cap = reference.cap_for_refusal_share(sequence, 0.5, 0.20)
    ledger = reference.DictLedger(cap)
    refused = sum(not ledger.admit(user, 0.5) for user in sequence)
    assert refused <= 0.20 * len(sequence)
    assert max(ledger.spent.values()) <= cap
    tighter = reference.DictLedger(cap - 0.5)
    assert sum(not tighter.admit(user, 0.5) for user in sequence) > 0.20 * len(sequence)


def test_verdicts_count_operations_not_flags():
    verdicts = reference.Verdicts()
    verdicts.check_many([True, False, True, False], "pairs")
    verdicts.check(True, "single")
    assert (verdicts.attempted, verdicts.failed) == (5, 2)
    assert verdicts.error_share == 0.4
    assert "2 of 4 wrong (first at 1)" in verdicts.examples[0]


# -------------------------------------------------------------------- compare
def test_compare_verdicts():
    lower = {"name": "m", "better": "lower", "bound": 0.10}
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.judge(lower, steady, [1.03, 1.02, 1.04, 1.03, 1.05])[0] == "ok"
    assert compare.judge(lower, steady, [1.2, 1.21, 1.19, 1.2, 1.22])[0] == "REGRESSION"
    noisy = [0.8, 1.0, 1.2, 0.9, 1.1]
    assert compare.judge(lower, noisy, [0.85, 1.0, 1.15, 0.95, 1.1])[0] == "unresolved"
    # Wide spread, but every run of B beats every run of A.
    assert compare.judge(lower, noisy, [0.5, 0.6, 0.7, 0.55, 0.65])[0] == "ok"
    higher = {"name": "t", "better": "higher", "bound": 0.10}
    assert compare.judge(higher, steady, [0.8, 0.81, 0.79, 0.8, 0.82])[0] == "REGRESSION"
    assert compare.judge(higher, steady, [1.2, 1.21, 1.19, 1.2, 1.22])[0] == "ok"


def test_compare_pools_the_reports_of_a_directory(tmp_path):
    for seed, rate in ((1, 100.0), (2, 110.0)):
        rep = {"end_to_end": {"ingest_claims_per_s": rate}, "ungated": {"error_share": 0.0}}
        report = {"workloads": {"read_mix": {"reps": [rep]}}}
        (tmp_path / f"{seed}.json").write_text(json.dumps(report))
    values = compare.load_values(tmp_path)
    assert values[("read_mix", "ingest_claims_per_s")] == [100.0, 110.0]
    assert compare.load_values(tmp_path / "1.json")[("read_mix", "error_share")] == [0.0]


# ------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_is_within_the_contract_and_declares_every_span_site():
    text = (ROOT / "BENCHMARK.json").read_text()
    declared = json.loads(text)
    assert declared == catalog.declared()
    assert len(text.encode()) <= 64 * 1024
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"][1].startswith(declared["paths"][0] + "/")
    layer_names = [m["name"] for m in declared["per_layer"]]
    for site in catalog.span_site_names():
        assert f"{site}.calls" in layer_names and f"{site}.self_s" in layer_names, site
    # What is left are counts and ungated end-to-end metrics, no stray timing.
    assert not [m["name"] for m in catalog.layer_counts() if m["name"].endswith((".calls", ".self_s"))]
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = []
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    runs = 4 + 22 * len(declared["workloads"])
    assert 1 <= declared["run_seconds"] <= 60
    assert runs * declared["run_seconds"] < 3420


def test_interaction_table_names_only_declared_things():
    workloads = set(catalog.workload_names())
    end_to_end = {m["name"] for m in catalog.end_to_end() + catalog.layer_counts()}
    layer = {m["name"] for m in catalog.per_layer()} | set(catalog.span_site_names())
    for entry in catalog.MOVES:
        assert set(entry["layer"]) <= layer, entry["layer"]
        assert set(entry["no_change_on"]) <= workloads
        for move in entry["moves"]:
            assert move["metric"] in end_to_end and move["workload"] in workloads
            assert move["workload"] not in entry["no_change_on"]
