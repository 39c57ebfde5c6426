"""Micro-batcher and shard-routing tests."""

import numpy as np
import pytest

from repro.service.batcher import MicroBatcher
from repro.service.shard import shard_for


class TestMicroBatcher:
    def test_emits_full_batches_and_splits_overflow(self):
        batcher = MicroBatcher(max_batch=4)
        out = batcher.add_columns(
            np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0])
        )
        assert out == [] and batcher.pending == 2
        # 5 more claims: fills one batch of 4, leaves 3 pending.
        out = batcher.add_columns(
            np.array([1, 1, 1, 2, 2]),
            np.array([0, 1, 2, 0, 1]),
            np.array([3.0, 4.0, 5.0, 6.0, 7.0]),
        )
        assert len(out) == 1
        batch = out[0]
        assert batch.size == 4
        np.testing.assert_array_equal(batch.users, [0, 0, 1, 1])
        np.testing.assert_array_equal(batch.values, [1.0, 2.0, 3.0, 4.0])
        assert batcher.pending == 3

    def test_flush_emits_partial_and_empties(self):
        batcher = MicroBatcher(max_batch=8)
        batcher.add_columns(np.array([3]), np.array([0]), np.array([9.0]))
        tail = batcher.flush()
        assert tail.size == 1 and tail.users[0] == 3
        assert batcher.flush() is None
        assert batcher.batches_emitted == 1

    def test_emitted_batches_are_copies(self):
        batcher = MicroBatcher(max_batch=2)
        (batch,) = batcher.add_columns(
            np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0])
        )
        batcher.add_columns(
            np.array([5, 6]), np.array([0, 1]), np.array([8.0, 9.0])
        )
        # Later columns must not change an already-emitted batch.
        np.testing.assert_array_equal(batch.users, [0, 1])
        np.testing.assert_array_equal(batch.values, [1.0, 2.0])

    def test_only_a_straddling_batch_is_built(self):
        """A batch inside one piece is a view of it; one that straddles
        pieces is concatenated (and so shares memory with neither)."""
        batcher = MicroBatcher(max_batch=4)
        first = (np.arange(6), np.arange(6) % 3, np.linspace(0.0, 1.0, 6))
        second = (np.arange(5), np.arange(5) % 3, np.linspace(1.0, 2.0, 5))
        (inside,) = batcher.add_columns(*first)
        (straddling,) = batcher.add_columns(*second)
        for got, piece in zip(
            (inside.users, inside.objects, inside.values), first
        ):
            assert np.shares_memory(got, piece)
        for got, a, b in zip(
            (straddling.users, straddling.objects, straddling.values),
            first, second,
        ):
            assert not np.shares_memory(got, a)
            assert not np.shares_memory(got, b)
            np.testing.assert_array_equal(got, np.concatenate([a[4:], b[:2]]))
        assert batcher.pending == 3
        np.testing.assert_array_equal(batcher.buffered_users, [2, 3, 4])
        tail = batcher.flush()
        assert np.shares_memory(tail.values, second[2])
        assert batcher.batches_emitted == 3

    def test_large_chunk_spans_many_batches(self):
        batcher = MicroBatcher(max_batch=16)
        n = 100
        out = batcher.add_columns(
            np.zeros(n, dtype=np.int64),
            np.arange(n) % 4,
            np.linspace(0.0, 1.0, n),
        )
        assert len(out) == 6  # 96 claims in 6 full batches
        assert batcher.pending == 4
        assert batcher.claims_buffered == n


class TestShardRouting:
    def test_deterministic_across_calls(self):
        for cid in ("alpha", "beta", "campaign-42", "日本語"):
            assert shard_for(cid, 4) == shard_for(cid, 4)

    def test_stable_known_values(self):
        # CRC32-based routing must never change between versions: claims
        # would migrate between shards mid-campaign.  Pin known outputs.
        assert shard_for("alpha", 4) == zlib_route("alpha", 4)
        assert shard_for("beta", 7) == zlib_route("beta", 7)

    def test_range_and_spread(self):
        shards = [shard_for(f"c{i}", 8) for i in range(256)]
        assert all(0 <= s < 8 for s in shards)
        # Uniform-ish: every shard owns something at this scale.
        assert len(set(shards)) == 8

    def test_single_shard(self):
        assert shard_for("anything", 1) == 0

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_for("c", 0)


def zlib_route(cid: str, n: int) -> int:
    import zlib

    return zlib.crc32(cid.encode("utf-8")) % n


def test_duplicate_user_ids_rejected():
    """Two slots sharing one identity would break bulk budget charging."""
    import pytest as _pytest

    from repro.service.ingest import IngestService, ServiceConfig

    service = IngestService(ServiceConfig(num_shards=1))
    with _pytest.raises(ValueError, match="user_ids must be unique"):
        service.register_campaign(
            "dup-users", ("o0",), max_users=2, user_ids=("a", "a")
        )


@pytest.mark.parametrize("method", ["crh", "gtm", "catd"])
def test_contributors_match_the_per_user_loop(method):
    """Snapshot assembly is vectorised; it must name the same users, in
    slot order, with the same floats as reading one weight per user —
    pre-registered users that never submitted excluded, slots past the
    named table ignored."""
    from repro.service.aggregator import StreamingAggregator
    from repro.service.shard import CampaignState
    from repro.truthdiscovery.streaming import ClaimBatch

    state = CampaignState(
        "c", ("o0", "o1", "o2"), capacity=6,
        aggregator=StreamingAggregator(6, 3, method=method),
        max_batch=64, user_ids=("ann", "bob", "cy", "dee"),
    )
    assert state.snapshot().weights_by_user == {}
    users = np.array([3, 0, 3, 2, 0, 5])
    state.aggregator.ingest(ClaimBatch(
        users=users, objects=np.array([0, 0, 1, 1, 2, 2]),
        values=np.array([1.0, 1.5, 2.0, 2.5, 3.0, 9.0]),
    ))
    state.claims_by_slot += np.bincount(users, minlength=6)

    weights = state.aggregator.weights()
    expected = {
        u: float(weights[i])
        for i, u in enumerate(state.user_table)
        if state.claims_by_slot[i] > 0
    }
    got = state.snapshot().weights_by_user
    assert list(got) == ["ann", "cy", "dee"] == list(expected)
    assert got == expected
    assert all(type(w) is float for w in got.values())
