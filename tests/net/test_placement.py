"""PlacementMap: the mutable shard→host table behind both pools."""

import pytest

from repro.net.placement import PlacementMap, shard_ranges


class TestShardRanges:
    def test_matches_worker_pool_split(self):
        from repro.workers.pool import shard_ranges as pool_ranges

        # One implementation: the pool module re-exports this function.
        assert pool_ranges is shard_ranges

    def test_contiguous_and_complete(self):
        ranges = shard_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        covered = [s for lo, hi in ranges for s in range(lo, hi)]
        assert covered == list(range(10))

    def test_more_hosts_than_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_ranges(2, 3)


class TestPlacementMap:
    def test_seeded_contiguous(self):
        pm = PlacementMap(6, 2)
        assert pm.num_shards == 6
        assert pm.num_hosts == 2
        assert [pm.owner_of(s) for s in range(6)] == [0, 0, 0, 1, 1, 1]
        assert pm.shards_of(0) == [0, 1, 2]
        assert pm.describe() == [
            {"host": 0, "lo": 0, "hi": 3},
            {"host": 1, "lo": 3, "hi": 6},
        ]

    def test_move_returns_previous_owner(self):
        pm = PlacementMap(4, 2)
        assert pm.move(1, 1) == 0
        assert pm.owner_of(1) == 1
        assert pm.shards_of(0) == [0]
        assert pm.shards_of(1) == [1, 2, 3]

    def test_describe_collapses_runs_after_moves(self):
        pm = PlacementMap(4, 2)
        pm.move(0, 1)
        assert pm.describe() == [
            {"host": 1, "lo": 0, "hi": 1},
            {"host": 0, "lo": 1, "hi": 2},
            {"host": 1, "lo": 2, "hi": 4},
        ]

    def test_move_increments_epoch(self):
        pm = PlacementMap(4, 2)
        assert pm.epoch == 0
        pm.move(1, 1)
        assert pm.epoch == 1
        pm.move(2, 0)
        pm.move(3, 0)
        assert pm.epoch == 3

    def test_bounds_checked(self):
        pm = PlacementMap(4, 2)
        with pytest.raises(IndexError):
            pm.owner_of(4)
        with pytest.raises(IndexError):
            pm.owner_of(-1)
        with pytest.raises(IndexError):
            pm.move(0, 2)
        with pytest.raises(IndexError):
            pm.shards_of(5)
