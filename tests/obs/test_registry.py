"""Unit tests for the metric registry core (repro.obs.registry)."""

import json
import math

import numpy as np
import pytest

from repro.obs.registry import (
    BUCKET_BASE,
    BUCKET_EDGES,
    NUM_BUCKETS,
    NULL_REGISTRY,
    MetricRegistry,
    RegistrySnapshot,
    bucket_index,
    percentile_from_counts,
    series_key,
    series_name,
)


class TestBucketIndex:
    def test_zero_and_subbase_land_in_bucket_zero(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(BUCKET_BASE / 2) == 0
        assert bucket_index(BUCKET_BASE) == 0

    def test_exact_powers_land_on_their_edge_bucket(self):
        # Bucket i covers (BASE * 2^(i-1), BASE * 2^i]: the upper edge
        # itself belongs to the bucket.
        for i in range(1, NUM_BUCKETS):
            assert bucket_index(BUCKET_EDGES[i]) == i

    def test_values_just_above_an_edge_move_up(self):
        for i in range(1, NUM_BUCKETS - 1):
            assert bucket_index(BUCKET_EDGES[i] * 1.0001) == i + 1

    def test_huge_values_clamp_to_last_bucket(self):
        assert bucket_index(1e9) == NUM_BUCKETS - 1
        assert bucket_index(float("inf")) == NUM_BUCKETS - 1

    def test_matches_bisect_reference(self):
        # frexp shortcut must agree with the obvious O(n) edge walk.
        import bisect

        for exp in range(-7, 3):
            for mult in (1.0, 1.3, 2.0, 7.7):
                value = mult * 10.0**exp
                expected = min(
                    bisect.bisect_left(BUCKET_EDGES, value),
                    NUM_BUCKETS - 1,
                )
                assert bucket_index(value) == expected, value


class TestPercentile:
    def test_empty_histogram_is_zero(self):
        assert percentile_from_counts([0] * NUM_BUCKETS, 99) == 0.0

    def test_single_bucket_interpolates_within_edges(self):
        counts = [0] * NUM_BUCKETS
        counts[4] = 100  # (8e-6, 1.6e-5]
        p50 = percentile_from_counts(counts, 50)
        assert BUCKET_EDGES[3] < p50 <= BUCKET_EDGES[4]
        # Linear interpolation: p100 hits the upper edge exactly.
        assert percentile_from_counts(counts, 100) == BUCKET_EDGES[4]

    def test_percentiles_are_monotone_in_q(self):
        counts = [0] * NUM_BUCKETS
        counts[2], counts[5], counts[9] = 10, 30, 5
        values = [percentile_from_counts(counts, q) for q in range(0, 101, 5)]
        assert values == sorted(values)

    def test_rank_crosses_buckets(self):
        counts = [0] * NUM_BUCKETS
        counts[0], counts[10] = 90, 10
        assert percentile_from_counts(counts, 50) <= BUCKET_EDGES[0]
        assert percentile_from_counts(counts, 99) > BUCKET_EDGES[9]

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile_from_counts([1], 101)


class TestRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        reg = MetricRegistry()
        reg.counter("c_total").inc(3)
        reg.gauge("g").set(7.5)
        hist = reg.histogram("h_seconds")
        hist.observe(1e-5)
        hist.observe(2.0)
        snap = reg.snapshot()
        assert snap.value("c_total") == 3
        assert snap.value("g") == 7.5
        assert snap.histograms[series_key("h_seconds")]["count"] == 2
        p99 = snap.histogram_percentile("h_seconds", 99)
        assert p99 is not None and p99 > 1.0

    def test_registration_is_idempotent_but_type_checked(self):
        reg = MetricRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.counter("x", labels=("shard",))

    def test_labelled_family_children_are_cached(self):
        reg = MetricRegistry()
        fam = reg.counter("f_total", labels=("shard",))
        assert fam.labels(shard=0) is fam.labels(shard=0)
        fam.labels(shard=0).inc()
        fam.labels(shard=1).inc(2)
        snap = reg.snapshot()
        assert snap.value("f_total", shard=0) == 1
        assert snap.value("f_total", shard=1) == 2
        assert snap.family_total("f_total") == 3

    def test_cardinality_cap_collapses_to_overflow(self):
        reg = MetricRegistry()
        fam = reg.counter("cap_total", labels=("campaign",))
        for i in range(fam.MAX_CHILDREN + 40):
            fam.labels(campaign=f"c{i}").inc()
        snap = reg.snapshot()
        series = [k for k in snap.counters if k[0] == "cap_total"]
        assert len(series) == fam.MAX_CHILDREN + 1
        assert snap.value("cap_total", campaign="_overflow") == 40

    def test_null_registry_is_inert_and_free(self):
        assert not NULL_REGISTRY.enabled
        metric = NULL_REGISTRY.counter("anything")
        metric.inc()
        metric.observe(1.0)
        metric.observe_many(np.array([1.0, 2.0]))
        metric.set(2.0)
        assert metric.labels(shard=3) is metric
        snap = NULL_REGISTRY.snapshot()
        assert snap.counters == {} and snap.histograms == {}


class TestObserveMany:
    """One vectorised pass == a loop of ``observe``."""

    SAMPLES = (
        [0.0, BUCKET_BASE / 1024, 3e-7, BUCKET_BASE]  # bucket 0
        + list(BUCKET_EDGES)  # exact powers of two: each on its edge
        + [edge * 1.0001 for edge in BUCKET_EDGES]  # just above it
        + [1.3e-5, 0.0042, 0.73, 9.9, BUCKET_EDGES[-1] * 8, 1e9]
        + [float("inf")]
    )

    @staticmethod
    def pair(values):
        looped, vectorised = MetricRegistry(), MetricRegistry()
        one = looped.histogram("h_seconds")
        for value in values:
            one.observe(value)
        many = vectorised.histogram("h_seconds")
        many.observe_many(np.array(values, dtype=float))
        return looped, one, vectorised, many

    def test_counts_and_count_equal_the_loop(self):
        _, one, _, many = self.pair(self.SAMPLES)
        assert many.counts == one.counts
        assert all(type(c) is int for c in many.counts)
        assert many.count == one.count == len(self.SAMPLES)
        assert type(many.count) is int
        assert many.sum == one.sum == float("inf")

    def test_sum_agrees_to_rounding(self):
        finite = [v for v in self.SAMPLES if math.isfinite(v)] * 7
        _, one, _, many = self.pair(finite)
        assert many.counts == one.counts
        assert math.isclose(many.sum, one.sum, rel_tol=1e-12)
        assert type(many.sum) is float

    def test_accumulates_onto_earlier_observations(self):
        _, one, _, many = self.pair([2e-6, 0.5])
        for value in (3e-6, 0.25, 70.0):
            one.observe(value)
        many.observe_many(np.array([3e-6, 0.25, 70.0]))
        assert (many.counts, many.count) == (one.counts, one.count)

    def test_empty_array_changes_nothing(self):
        _, one, _, many = self.pair([])
        assert many.counts == one.counts == [0] * NUM_BUCKETS
        assert (many.count, many.sum) == (0, 0.0)

    def test_snapshots_merge_alike(self):
        looped, _, vectorised, _ = self.pair(self.SAMPLES[:-1])
        other = MetricRegistry()
        other.histogram("h_seconds").observe(1e-4)
        a = looped.snapshot().merge(other.snapshot())
        b = vectorised.snapshot().merge(other.snapshot())
        key = series_key("h_seconds")
        assert a.histograms[key]["counts"] == b.histograms[key]["counts"]
        assert a.histograms[key]["count"] == b.histograms[key]["count"]
        assert math.isclose(
            a.histograms[key]["sum"], b.histograms[key]["sum"], rel_tol=1e-12
        )
        # Plain ints and floats: the snapshot still serialises.
        wire = json.loads(json.dumps(b.to_dict()))
        assert RegistrySnapshot.from_dict(wire).histograms == b.histograms


class TestSnapshot:
    def test_merge_sums_counters_and_bucket_counts(self):
        a, b = MetricRegistry(), MetricRegistry()
        for reg, n in ((a, 2), (b, 5)):
            reg.counter("c_total").inc(n)
            h = reg.histogram("h_seconds")
            for _ in range(n):
                h.observe(1e-4)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.value("c_total") == 7
        hist = merged.histograms[series_key("h_seconds")]
        assert hist["count"] == 7
        assert math.isclose(hist["sum"], 7e-4)

    def test_relabel_tags_every_series(self):
        reg = MetricRegistry()
        reg.counter("c_total", labels=("shard",)).labels(shard=1).inc()
        snap = reg.snapshot().relabel(proc="worker3")
        assert snap.value("c_total", shard=1, proc="worker3") == 1
        assert snap.value("c_total", shard=1) is None

    def test_series_name_rendering(self):
        assert series_name(series_key("up")) == "up"
        assert (
            series_name(series_key("c", {"b": 1, "a": "x"}))
            == 'c{a="x",b="1"}'
        )

    def test_dict_round_trip(self):
        reg = MetricRegistry()
        reg.counter("c_total", labels=("shard",)).labels(shard=2).inc(9)
        reg.gauge("g").set(-1.5)
        reg.histogram("h_seconds").observe(0.25)
        snap = reg.snapshot()
        clone = RegistrySnapshot.from_dict(snap.to_dict())
        assert clone.counters == snap.counters
        assert clone.gauges == snap.gauges
        assert clone.histograms == snap.histograms
