"""Aggregation-backend tests: streaming/full parity and backend choice."""

import numpy as np
import pytest

from repro.service.aggregator import (
    FullRefitAggregator,
    StreamingAggregator,
    make_aggregator,
)
from repro.service.loadgen import LoadGenerator
from repro.truthdiscovery.claims import ClaimMatrix
from repro.truthdiscovery.crh import CRH
from repro.truthdiscovery.registry import create_method
from repro.truthdiscovery.streaming import ClaimBatch


def dense_batch(rng, num_users, num_objects, truths):
    users = np.repeat(np.arange(num_users), num_objects)
    objects = np.tile(np.arange(num_objects), num_users)
    values = truths[objects] + rng.normal(0.0, 0.4, size=objects.size)
    return ClaimBatch(users=users, objects=objects, values=values)


class TestStreamingVsBatchAgreement:
    def test_dense_campaign_matches_full_crh_refit(self):
        """Streaming truths must match a from-scratch CRH fit (tolerance)."""
        rng = np.random.default_rng(11)
        num_users, num_objects = 40, 25
        truths = rng.uniform(0.0, 10.0, size=num_objects)
        batch = dense_batch(rng, num_users, num_objects, truths)

        streaming = StreamingAggregator(
            num_users, num_objects, decay=1.0, refine_sweeps=40
        )
        streaming.ingest(batch)

        claims = ClaimMatrix.from_columns(
            batch.users, batch.objects, batch.values,
            user_ids=tuple(range(num_users)),
            object_ids=tuple(range(num_objects)),
        )
        reference = CRH(distance="squared").fit(claims)

        rmse = float(np.sqrt(np.mean(
            (streaming.truths() - reference.truths) ** 2
        )))
        assert rmse <= 1e-3

    def test_incremental_batches_reach_same_fixed_point(self):
        rng = np.random.default_rng(23)
        num_users, num_objects = 30, 12
        truths = rng.uniform(0.0, 5.0, size=num_objects)
        batch = dense_batch(rng, num_users, num_objects, truths)

        streamed = StreamingAggregator(
            num_users, num_objects, decay=1.0, refine_sweeps=30,
            refine_every=10**9,
        )
        # Same claims, delivered in 6 interleaved micro-batches.
        for part in range(6):
            sl = slice(part, None, 6)
            streamed.ingest(ClaimBatch(
                users=batch.users[sl],
                objects=batch.objects[sl],
                values=batch.values[sl],
            ))
        full = FullRefitAggregator(
            num_users, num_objects, method="crh", distance="squared"
        )
        full.ingest(batch)
        np.testing.assert_allclose(
            streamed.truths(), full.truths(), atol=1e-3
        )


class TestStreamingMethodParity:
    """Streaming GTM/CATD must agree with their batch refits."""

    @pytest.mark.parametrize("method", ["gtm", "catd"])
    def test_dense_campaign_matches_batch_refit(self, method):
        rng = np.random.default_rng(17)
        num_users, num_objects = 40, 25
        truths = rng.uniform(0.0, 10.0, size=num_objects)
        batch = dense_batch(rng, num_users, num_objects, truths)

        streaming = StreamingAggregator(
            num_users, num_objects, method=method, decay=1.0,
            refine_sweeps=40,
        )
        streaming.ingest(batch)

        claims = ClaimMatrix.from_columns(
            batch.users, batch.objects, batch.values,
            user_ids=tuple(range(num_users)),
            object_ids=tuple(range(num_objects)),
        )
        reference = create_method(method).fit(claims)

        rmse = float(np.sqrt(np.mean(
            (streaming.truths() - reference.truths) ** 2
        )))
        assert rmse <= 1e-3
        np.testing.assert_allclose(
            streaming.weights(), reference.weights, atol=1e-3
        )

    @pytest.mark.parametrize("method", ["gtm", "catd"])
    def test_incremental_batches_reach_same_fixed_point(self, method):
        rng = np.random.default_rng(29)
        num_users, num_objects = 30, 12
        truths = rng.uniform(0.0, 5.0, size=num_objects)
        batch = dense_batch(rng, num_users, num_objects, truths)

        streamed = StreamingAggregator(
            num_users, num_objects, method=method, decay=1.0,
            refine_sweeps=30, refine_every=10**9,
        )
        for part in range(6):
            sl = slice(part, None, 6)
            streamed.ingest(ClaimBatch(
                users=batch.users[sl],
                objects=batch.objects[sl],
                values=batch.values[sl],
            ))
        whole = StreamingAggregator(
            num_users, num_objects, method=method, decay=1.0,
            refine_sweeps=30, refine_every=10**9,
        )
        whole.ingest(batch)
        np.testing.assert_allclose(
            streamed.truths(), whole.truths(), atol=1e-3
        )

    @pytest.mark.parametrize("method", ["gtm", "catd"])
    def test_state_dict_round_trip_bitwise(self, method):
        rng = np.random.default_rng(41)
        num_users, num_objects = 12, 7
        truths = rng.uniform(0.0, 5.0, size=num_objects)
        original = StreamingAggregator(
            num_users, num_objects, method=method, refine_every=30
        )
        batches = [
            dense_batch(rng, num_users, num_objects, truths)
            for _ in range(3)
        ]
        original.ingest(batches[0])
        original.ingest(batches[1])

        restored = StreamingAggregator(
            num_users, num_objects, method=method, refine_every=30
        )
        restored.load_state(original.state_dict())
        original.ingest(batches[2])
        restored.ingest(batches[2])
        assert original.truths().tobytes() == restored.truths().tobytes()
        assert original.weights().tobytes() == restored.weights().tobytes()

    def test_load_state_accepts_pre_issue4_crh_state(self):
        """Checkpoints written before the multi-method refactor have no
        "method" entry and keep the estimator snapshot under "crh";
        they must keep restoring bit-for-bit."""
        rng = np.random.default_rng(5)
        truths = rng.uniform(0.0, 5.0, size=6)
        original = StreamingAggregator(8, 6, refine_every=30)
        original.ingest(dense_batch(rng, 8, 6, truths))
        state = original.state_dict()
        legacy = dict(state)
        legacy.pop("method")
        legacy["crh"] = dict(legacy.pop("stream"))
        legacy["crh"].pop("kind")  # pre-refactor snapshots had no kind
        restored = StreamingAggregator(8, 6, refine_every=30)
        restored.load_state(legacy)
        assert restored.truths().tobytes() == original.truths().tobytes()

    def test_load_state_rejects_method_mismatch(self):
        gtm = StreamingAggregator(4, 3, method="gtm")
        catd = StreamingAggregator(4, 3, method="catd")
        with pytest.raises(ValueError, match="'gtm' stream"):
            catd.load_state(gtm.state_dict())

    def test_unknown_streaming_method_rejected(self):
        with pytest.raises(ValueError, match="no streaming estimator"):
            StreamingAggregator(4, 3, method="median")


class TestRefreshCounters:
    def test_streaming_counts_refinements(self):
        rng = np.random.default_rng(3)
        truths = rng.uniform(0.0, 5.0, size=6)
        agg = StreamingAggregator(8, 6, refine_every=10**9)
        agg.ingest(dense_batch(rng, 8, 6, truths))
        assert agg.refreshes == 0
        agg.truths()
        assert agg.refreshes == 1
        assert agg.refresh_seconds > 0.0
        # A clean read does no deferred work.
        agg.truths()
        assert agg.refreshes == 1

    def test_full_refit_counts_refits(self):
        rng = np.random.default_rng(3)
        truths = rng.uniform(0.0, 5.0, size=6)
        agg = FullRefitAggregator(8, 6)
        agg.ingest(dense_batch(rng, 8, 6, truths))
        agg.truths()
        agg.truths()
        assert agg.refreshes == 1
        agg.ingest(dense_batch(rng, 8, 6, truths))
        agg.truths()
        assert agg.refreshes == 2
        assert agg.refresh_seconds > 0.0


class TestDecaySchedule:
    def test_reads_do_not_change_forgetting(self):
        """Polling truths after every batch must not alter the decay
        schedule relative to an unpolled twin stream."""
        rng = np.random.default_rng(3)
        truths = rng.uniform(0.0, 5.0, size=6)
        batches = [dense_batch(rng, 8, 6, truths) for _ in range(4)]
        # High sweep count so both sides converge to the fixed point of
        # their retained statistics — which the fix makes identical.
        polled = StreamingAggregator(
            8, 6, decay=0.5, refine_sweeps=30, refine_every=10**6
        )
        quiet = StreamingAggregator(
            8, 6, decay=0.5, refine_sweeps=30, refine_every=10**6
        )
        for batch in batches:
            polled.ingest(batch)
            polled.truths()  # read-forced refresh
            quiet.ingest(batch)
        np.testing.assert_allclose(
            polled.truths(), quiet.truths(), atol=1e-6
        )

    def test_multi_window_refresh_compounds_decay(self):
        """A refresh spanning k refine windows applies decay**k, so old
        claims are not over-retained under chunky arrivals."""
        from repro.truthdiscovery.streaming import StreamingCRH

        def build():
            crh = StreamingCRH(2, 1, decay=0.5, refine_sweeps=5)
            crh.ingest(ClaimBatch(
                users=np.array([0]), objects=np.array([0]),
                values=np.array([8.0]),
            ))
            return crh

        new_batch = ClaimBatch(
            users=np.array([1]), objects=np.array([0]),
            values=np.array([0.0]),
        )
        one_step = build().ingest(new_batch, decay_steps=1)
        three_steps = build().ingest(new_batch, decay_steps=3)
        # More forgetting steps discount the old claim (8.0) harder, so
        # the truth lands closer to the fresh claim (0.0).
        assert three_steps[0] < one_step[0]
        # Zero steps folds without forgetting at all.
        no_step = build().ingest(new_batch, decay_steps=0)
        assert one_step[0] < no_step[0]


class TestFullRefitAggregator:
    def test_lazy_refit_and_partial_coverage(self):
        agg = FullRefitAggregator(num_users=5, num_objects=4)
        agg.ingest(ClaimBatch(
            users=np.array([0, 1]), objects=np.array([1, 1]),
            values=np.array([2.0, 4.0]),
        ))
        assert agg.claims_ingested == 2
        truths = agg.truths()
        assert truths[1] == pytest.approx(3.0, abs=1e-6)
        # Unseen objects report 0.0 and are flagged unseen.
        seen = agg.seen_objects()
        assert list(seen) == [False, True, False, False]
        assert truths[0] == 0.0
        # Silent users keep weight 1.
        weights = agg.weights()
        assert weights[4] == 1.0

    def test_duplicate_claims_keep_last(self):
        agg = FullRefitAggregator(num_users=2, num_objects=1)
        agg.ingest(ClaimBatch(
            users=np.array([0, 1, 0]), objects=np.array([0, 0, 0]),
            values=np.array([1.0, 5.0, 3.0]),
        ))
        truths = agg.truths()
        # User 0's later claim (3.0) replaced the earlier 1.0.
        assert 3.0 <= truths[0] <= 5.0

    def test_loading_an_empty_state_forgets_the_last_fit(self):
        agg = FullRefitAggregator(num_users=2, num_objects=2)
        empty = agg.state_dict()
        agg.ingest(ClaimBatch(
            users=np.array([0, 1]), objects=np.array([0, 1]),
            values=np.array([2.0, 4.0]),
        ))
        agg.refresh()
        version = agg.version
        agg.load_state(empty)
        assert agg.version > version
        fresh = FullRefitAggregator(num_users=2, num_objects=2)
        for read in ("truths", "weights", "seen_objects"):
            assert getattr(agg, read)().tolist() == getattr(fresh, read)().tolist()


class TestMakeAggregator:
    def test_auto_small_campaign_full_refit(self):
        agg = make_aggregator(10, 10, kind="auto", full_refit_max_cells=128)
        assert isinstance(agg, FullRefitAggregator)

    def test_auto_large_campaign_streams(self):
        agg = make_aggregator(100, 100, kind="auto", full_refit_max_cells=128)
        assert isinstance(agg, StreamingAggregator)

    @pytest.mark.parametrize("method", ["gtm", "catd"])
    def test_streamable_methods_stream_at_scale(self, method):
        agg = make_aggregator(
            100, 100, kind="auto", method=method, full_refit_max_cells=128
        )
        assert isinstance(agg, StreamingAggregator)
        assert agg.method == method

    @pytest.mark.parametrize("method", ["gtm", "catd"])
    def test_streamable_methods_full_refit_when_small(self, method):
        agg = make_aggregator(
            10, 10, kind="auto", method=method, full_refit_max_cells=128
        )
        assert isinstance(agg, FullRefitAggregator)

    def test_unstreamable_method_forces_full_refit(self):
        agg = make_aggregator(
            100, 100, kind="auto", method="median", full_refit_max_cells=128
        )
        assert isinstance(agg, FullRefitAggregator)

    def test_batch_only_kwargs_keep_full_refit(self):
        """Fitting knobs the streaming estimators cannot honour
        (convergence, distance, ...) must keep an auto campaign on the
        full-refit backend instead of crashing — pre-ISSUE-4
        registrations with such kwargs stay valid."""
        agg = make_aggregator(
            100, 100, kind="auto", method="catd", convergence=None,
            full_refit_max_cells=128,
        )
        assert isinstance(agg, FullRefitAggregator)
        agg = make_aggregator(
            100, 100, kind="auto", method="crh", distance="squared",
            full_refit_max_cells=128,
        )
        assert isinstance(agg, FullRefitAggregator)
        # Model hyper-parameters shared with the batch method stream.
        agg = make_aggregator(
            100, 100, kind="auto", method="gtm", alpha=3.0,
            full_refit_max_cells=128,
        )
        assert isinstance(agg, StreamingAggregator)

    def test_batch_only_kwargs_rejected_when_streaming_forced(self):
        with pytest.raises(ValueError, match="batch-only fitting knobs"):
            make_aggregator(
                10, 10, kind="streaming", method="catd", convergence=None
            )

    def test_decay_forces_streaming_backend(self):
        # Forgetting cannot silently switch off for small campaigns.
        agg = make_aggregator(
            10, 10, kind="auto", decay=0.9, full_refit_max_cells=128
        )
        assert isinstance(agg, StreamingAggregator)
        with pytest.raises(ValueError, match="cannot forget"):
            make_aggregator(10, 10, kind="full", decay=0.9)

    def test_streaming_with_unstreamable_method_rejected(self):
        with pytest.raises(ValueError, match="no streaming estimator"):
            make_aggregator(10, 10, kind="streaming", method="median")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregator kind"):
            make_aggregator(10, 10, kind="sideways")


class TestLoadGenerator:
    def test_deterministic_given_seed(self):
        a = LoadGenerator(
            "c", num_users=10, num_objects=6, claims_per_submission=3,
            random_state=5,
        )
        b = LoadGenerator(
            "c", num_users=10, num_objects=6, claims_per_submission=3,
            random_state=5,
        )
        np.testing.assert_array_equal(a.truths, b.truths)
        subs_a, subs_b = a.submissions(4), b.submissions(4)
        assert [s.values for s in subs_a] == [s.values for s in subs_b]

    def test_submission_shape_and_object_subset(self):
        gen = LoadGenerator(
            "c", num_users=10, num_objects=6, claims_per_submission=3,
            random_state=5,
        )
        (sub,) = gen.submissions(1)
        assert len(sub.object_ids) == 3
        assert len(set(sub.object_ids)) == 3  # without replacement
        assert set(sub.object_ids) <= set(gen.object_ids)

    def test_column_chunks_total(self):
        gen = LoadGenerator(
            "c", num_users=4, num_objects=4, claims_per_submission=2,
            random_state=5,
        )
        chunks = list(gen.column_chunks(1000, chunk_size=300))
        assert [c.size for c in chunks] == [300, 300, 300, 100]

    def test_dense_round_covers_everything_once(self):
        gen = LoadGenerator(
            "c", num_users=3, num_objects=4, claims_per_submission=4,
            random_state=5,
        )
        subs = gen.dense_round()
        assert len(subs) == 3
        assert all(sub.object_ids == gen.object_ids for sub in subs)
        assert len({sub.user_id for sub in subs}) == 3
