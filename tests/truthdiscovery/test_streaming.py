"""Tests for streaming truth discovery."""

import numpy as np
import pytest

from repro.truthdiscovery.streaming import ClaimBatch, StreamingCRH


def make_stream(num_users, num_objects, truths, *, batches, per_batch, noise,
                seed=0, user_bias=None):
    """Yield ClaimBatches of noisy claims around ``truths``."""
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        users = rng.integers(0, num_users, per_batch)
        objects = rng.integers(0, num_objects, per_batch)
        values = truths[objects] + rng.normal(0, noise, per_batch)
        if user_bias is not None:
            values = values + user_bias[users]
        yield ClaimBatch(users=users, objects=objects, values=values)


class TestClaimBatch:
    def test_from_records(self):
        batch = ClaimBatch.from_records([(0, 1, 2.5), (1, 0, 3.5)])
        assert batch.size == 2
        np.testing.assert_array_equal(batch.users, [0, 1])

    def test_from_records_ndarray_fast_path_matches_tuple_path(self):
        """An (n, 3) table takes the columnar path; results must be
        identical to the per-tuple transpose, including int exactness
        of the index columns."""
        rng = np.random.default_rng(7)
        rows = [
            (int(u), int(o), float(v))
            for u, o, v in zip(
                rng.integers(0, 50, size=200),
                rng.integers(0, 20, size=200),
                rng.normal(size=200),
            )
        ]
        batch = ClaimBatch.from_records(np.array(rows, dtype=float))
        reference = ClaimBatch.from_records(rows)
        assert batch.users.tobytes() == reference.users.tobytes()
        assert batch.objects.tobytes() == reference.objects.tobytes()
        assert batch.values.tobytes() == reference.values.tobytes()
        assert batch.users.dtype == np.int64

    def test_from_records_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ClaimBatch.from_records([(1, 2), (3, 4, 5, 6)])

    def test_from_records_accepts_ndarray_table(self):
        table = np.array([[0, 1, 2.5], [1, 0, 3.5], [0, 0, -1.0]])
        batch = ClaimBatch.from_records(table)
        np.testing.assert_array_equal(batch.users, [0, 1, 0])
        np.testing.assert_array_equal(batch.objects, [1, 0, 0])
        np.testing.assert_array_equal(batch.values, [2.5, 3.5, -1.0])
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            ClaimBatch.from_records(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="non-empty"):
            ClaimBatch.from_records(np.zeros((0, 3)))

    def test_from_records_accepts_generators_and_mixed_rows(self):
        batch = ClaimBatch.from_records(
            (u, o, v) for u, o, v in [(0, 0, 1.0), (np.int64(1), 1, 2)]
        )
        assert batch.size == 2
        np.testing.assert_array_equal(batch.values, [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="share a shape"):
            ClaimBatch(users=[0, 1], objects=[0], values=[1.0])
        with pytest.raises(ValueError, match="non-empty"):
            ClaimBatch(users=[], objects=[], values=[])
        with pytest.raises(ValueError, match="finite"):
            ClaimBatch(users=[0], objects=[0], values=[np.nan])


class TestStreamingCRH:
    def test_converges_to_truths(self):
        truths = np.array([1.0, 5.0, 9.0, 3.0])
        stream = StreamingCRH(num_users=20, num_objects=4)
        for batch in make_stream(20, 4, truths, batches=20, per_batch=40,
                                 noise=0.3):
            stream.ingest(batch)
        assert np.abs(stream.truths - truths).mean() < 0.15
        assert stream.batches_ingested == 20

    def test_unseen_objects_stay_zero(self):
        stream = StreamingCRH(num_users=5, num_objects=3)
        stream.ingest(ClaimBatch(users=[0, 1], objects=[0, 0], values=[2.0, 2.2]))
        assert stream.truths[0] == pytest.approx(2.1, abs=0.2)
        assert stream.truths[1] == 0.0
        np.testing.assert_array_equal(
            stream.seen_objects, [True, False, False]
        )

    def test_tracks_drifting_truth(self):
        # With forgetting, the estimate follows a shifted truth.
        stream = StreamingCRH(num_users=10, num_objects=1, decay=0.6)
        for value in (1.0, 1.0, 1.0):
            stream.ingest(
                ClaimBatch(users=np.arange(10), objects=np.zeros(10, int),
                           values=np.full(10, value))
            )
        assert stream.truths[0] == pytest.approx(1.0, abs=0.01)
        for value in (4.0, 4.0, 4.0, 4.0, 4.0):
            stream.ingest(
                ClaimBatch(users=np.arange(10), objects=np.zeros(10, int),
                           values=np.full(10, value))
            )
        assert stream.truths[0] == pytest.approx(4.0, abs=0.2)

    def test_no_forgetting_keeps_history(self):
        stream = StreamingCRH(num_users=4, num_objects=1, decay=1.0)
        stream.ingest(ClaimBatch(users=[0, 1], objects=[0, 0], values=[1.0, 1.0]))
        stream.ingest(ClaimBatch(users=[2, 3], objects=[0, 0], values=[3.0, 3.0]))
        # all four claims retained -> estimate near the middle
        assert 1.5 < stream.truths[0] < 2.5

    def test_unreliable_user_downweighted(self):
        truths = np.array([2.0, 4.0, 6.0])
        bias = np.zeros(12)
        bias[0] = 5.0  # user 0 systematically wrong
        stream = StreamingCRH(num_users=12, num_objects=3)
        for batch in make_stream(12, 3, truths, batches=15, per_batch=36,
                                 noise=0.2, user_bias=bias):
            stream.ingest(batch)
        weights = stream.weights
        assert weights[0] < weights[1:].mean() * 0.5

    def test_index_validation(self):
        stream = StreamingCRH(num_users=3, num_objects=2)
        with pytest.raises(ValueError, match="user index"):
            stream.ingest(ClaimBatch(users=[5], objects=[0], values=[1.0]))
        with pytest.raises(ValueError, match="object index"):
            stream.ingest(ClaimBatch(users=[0], objects=[7], values=[1.0]))

    def test_snapshot_serialisable(self):
        import json

        stream = StreamingCRH(num_users=3, num_objects=2)
        stream.ingest(ClaimBatch(users=[0, 1], objects=[0, 1], values=[1.0, 2.0]))
        snapshot = stream.snapshot()
        parsed = json.loads(json.dumps(snapshot))
        assert parsed["batches"] == 1
        assert len(parsed["truths"]) == 2

    def test_streaming_with_perturbed_batches(self):
        # End-to-end with the paper's mechanism applied per batch: the
        # stream stays accurate under local perturbation.
        rng = np.random.default_rng(3)
        truths = np.array([5.0, 10.0, 15.0])
        stream = StreamingCRH(num_users=30, num_objects=3)
        lambda2 = 2.0
        variances = rng.exponential(1.0 / lambda2, size=30)  # per-user, private
        for batch in make_stream(30, 3, truths, batches=25, per_batch=60,
                                 noise=0.3, seed=4):
            noisy_values = batch.values + rng.normal(
                0.0, np.sqrt(variances[batch.users])
            )
            stream.ingest(
                ClaimBatch(users=batch.users, objects=batch.objects,
                           values=noisy_values)
            )
        assert np.abs(stream.truths - truths).mean() < 0.4

    def test_validation_of_params(self):
        with pytest.raises(ValueError):
            StreamingCRH(num_users=0, num_objects=2)
        with pytest.raises(ValueError):
            StreamingCRH(num_users=2, num_objects=2, decay=0.0)
        with pytest.raises(ValueError):
            StreamingCRH(num_users=2, num_objects=2, refine_sweeps=0)


class TestSnapshotRestore:
    def make_populated(self, decay=0.9, sweeps=3, seed=11):
        rng = np.random.default_rng(seed)
        stream = StreamingCRH(
            num_users=6, num_objects=4, decay=decay, refine_sweeps=sweeps
        )
        for _ in range(5):
            stream.ingest(
                ClaimBatch(
                    users=rng.integers(0, 6, 20),
                    objects=rng.integers(0, 4, 20),
                    values=rng.normal(size=20),
                )
            )
        return stream

    def test_snapshot_carries_full_state(self):
        stream = self.make_populated()
        snapshot = stream.snapshot()
        assert snapshot["num_users"] == 6
        assert snapshot["decay"] == 0.9
        assert len(snapshot["value_sum"]) == 6
        assert len(snapshot["value_sum"][0]) == 4

    def test_restore_overwrites_in_place(self):
        stream = self.make_populated()
        snapshot = stream.snapshot()
        other = StreamingCRH(num_users=6, num_objects=4)
        other.restore(snapshot)
        np.testing.assert_array_equal(other.truths, stream.truths)
        np.testing.assert_array_equal(other.weights, stream.weights)
        assert other.batches_ingested == stream.batches_ingested

    def test_from_snapshot_accepts_arrays(self):
        stream = self.make_populated()
        snapshot = stream.snapshot()
        snapshot["value_sum"] = np.asarray(snapshot["value_sum"])
        restored = StreamingCRH.from_snapshot(snapshot)
        assert restored.snapshot() == stream.snapshot()

    def test_restore_rejects_wrong_universe(self):
        snapshot = self.make_populated().snapshot()
        other = StreamingCRH(num_users=3, num_objects=4)
        with pytest.raises(ValueError, match="universe"):
            other.restore(snapshot)

    def test_restore_rejects_wrong_shapes(self):
        snapshot = self.make_populated().snapshot()
        snapshot["value_sum"] = [[0.0] * 3] * 6  # 6x3, not 6x4
        other = StreamingCRH(num_users=6, num_objects=4)
        with pytest.raises(ValueError, match="shape"):
            other.restore(snapshot)

    def test_restored_stream_forgets_at_snapshot_rate(self):
        stream = self.make_populated(decay=0.5)
        restored = StreamingCRH.from_snapshot(stream.snapshot())
        batch = ClaimBatch(users=[0], objects=[0], values=[1.0])
        stream.ingest(batch)
        restored.ingest(batch)
        np.testing.assert_array_equal(restored.truths, stream.truths)

    def test_snapshot_arrays_form_matches_list_form(self):
        stream = self.make_populated()
        as_lists = stream.snapshot()
        as_arrays = stream.snapshot(arrays=True)
        assert isinstance(as_arrays["value_sum"], np.ndarray)
        np.testing.assert_array_equal(
            as_arrays["value_sum"], np.asarray(as_lists["value_sum"])
        )
        restored = StreamingCRH.from_snapshot(as_arrays)
        assert restored.snapshot() == as_lists


@pytest.mark.parametrize("kind", ["crh", "gtm", "catd"])
@pytest.mark.parametrize("column", ["users", "objects"])
@pytest.mark.parametrize("bad", ["minus_one", "bound"])
def test_every_estimator_refuses_both_ends_of_the_index_range(
    kind, column, bad
):
    """A slot of -1 and a slot equal to the bound both raise, wherever
    they sit in the batch, and the refused batch changes nothing."""
    from repro.truthdiscovery.streaming import STREAMING_ESTIMATORS

    stream = STREAMING_ESTIMATORS[kind](num_users=3, num_objects=2)
    stream.ingest(ClaimBatch(
        users=[0, 1, 2], objects=[0, 1, 0], values=[1.0, 2.0, 3.0]
    ))
    before = stream.snapshot()
    columns = {"users": [0, 1, 2, 1], "objects": [1, 0, 1, 0]}
    bound = 3 if column == "users" else 2
    columns[column][2] = -1 if bad == "minus_one" else bound
    batch = ClaimBatch(values=[1.0, 2.0, 3.0, 4.0], **columns)
    with pytest.raises(ValueError, match=f"{column[:-1]} index out of range"):
        stream.ingest(batch)
    assert stream.snapshot() == before
