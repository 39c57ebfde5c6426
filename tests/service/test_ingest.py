"""Ingestion-service tests: validation, admission, backpressure, reads."""

import threading

import numpy as np
import pytest

from repro.crowdsensing.messages import ClaimSubmission
from repro.privacy.ldp import LDPGuarantee
from repro.service.ingest import IngestResult, IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger


def make_service(**overrides) -> IngestService:
    defaults = dict(num_shards=2, max_batch=8, queue_capacity=16)
    defaults.update(overrides)
    ledger = defaults.pop("ledger", None)
    return IngestService(ServiceConfig(**defaults), ledger=ledger)


def sub(campaign="c1", user="u1", objects=("o0", "o1"), values=(1.0, 2.0)):
    return ClaimSubmission(
        campaign_id=campaign, user_id=user,
        object_ids=tuple(objects), values=tuple(values),
    )


class TestValidationAndAdmission:
    def test_unknown_campaign_rejected(self):
        service = make_service()
        result = service.submit(sub())
        assert not result.ok and result.reason == "unknown-campaign"
        assert service.stats.rejected_unknown_campaign == 2

    def test_unknown_object_rejected(self):
        service = make_service()
        service.register_campaign("c1", ("o0", "o1"), max_users=4)
        result = service.submit(sub(objects=("o0", "oX")))
        assert result.reason == "unknown-object"

    def test_non_finite_value_rejected(self):
        service = make_service()
        service.register_campaign("c1", ("o0", "o1"), max_users=4)
        result = service.submit(sub(values=(1.0, float("nan"))))
        assert result.reason == "invalid-value"
        assert service.stats.rejected_invalid_value == 2

    def test_huge_finite_values_accepted(self):
        # Finiteness is per-value: individually finite claims whose sum
        # overflows must not be rejected.
        service = make_service()
        service.register_campaign("c1", ("o0", "o1"), max_users=4)
        assert service.submit(sub(values=(1e308, 1e308))).ok

    def test_capacity_rejection_after_slots_exhausted(self):
        service = make_service()
        service.register_campaign("c1", ("o0", "o1"), max_users=2)
        assert service.submit(sub(user="u1")).ok
        assert service.submit(sub(user="u2")).ok
        assert service.submit(sub(user="u1")).ok  # known user: fine
        result = service.submit(sub(user="u3"))
        assert result.reason == "capacity"
        assert service.stats.rejected_capacity == 2

    def test_budget_denial(self):
        ledger = BudgetLedger(epsilon_cap=1.5)
        service = make_service(ledger=ledger)
        cost = LDPGuarantee(epsilon=1.0, delta=0.0)
        service.register_campaign("c1", ("o0", "o1"), max_users=4, cost=cost)
        assert service.submit(sub(user="u1")).ok
        result = service.submit(sub(user="u1"))
        assert result.reason == "budget"
        assert service.stats.rejected_budget == 2
        # Another user still has budget.
        assert service.submit(sub(user="u2")).ok

    def test_no_ledger_means_no_budget_control(self):
        service = make_service()  # no ledger
        cost = LDPGuarantee(epsilon=1.0, delta=0.0)
        service.register_campaign("c1", ("o0", "o1"), max_users=4, cost=cost)
        for _ in range(5):
            assert service.submit(sub(user="u1")).ok

    def test_empty_submission_is_a_no_op(self):
        # An empty submission used to be accepted, charge epsilon and
        # take a user slot: two of them filled this 2-user campaign and
        # the next real submission was refused as "capacity".
        ledger = BudgetLedger(epsilon_cap=10.0)
        service = make_service(num_shards=1, ledger=ledger)
        cost = LDPGuarantee(epsilon=1.0, delta=0.0)
        service.register_campaign("c1", ("o0", "o1"), max_users=2, cost=cost)
        for user in ("e1", "e2"):
            result = service.submit(sub(user=user, objects=(), values=()))
            assert result == IngestResult(0, 0, "") and result.ok
        assert ledger.admitted == 0 and ledger.num_users == 0
        assert service.campaign_state("c1").user_table == []
        assert service.queue_depths() == [0]
        assert service.stats.claims_accepted == 0
        assert service.submit(sub(user="u1")).ok
        assert service.submit(sub(user="u2")).ok
        # The bulk path's answer to an empty chunk, unchanged.
        empty = np.array([], dtype=np.int64)
        assert service.submit_columns(
            "c1", empty, empty, np.array([])
        ) == IngestResult(0, 0, "")

    def test_duplicate_registration_rejected(self):
        service = make_service()
        service.register_campaign("c1", ("o0",), max_users=2)
        with pytest.raises(ValueError, match="already registered"):
            service.register_campaign("c1", ("o0",), max_users=2)


class TestScalarWorkItems:
    """``submit()`` queues what it validated, as plain Python values."""

    @pytest.mark.parametrize("container", [np.array, list])
    def test_mutation_after_submit_cannot_reach_the_aggregator(self, container):
        # The caller's buffer is theirs again once submit() returns:
        # a NaN written into it used to fail flush() — and every later
        # flush of the campaign, wedging other users' buffered claims.
        def run(mutate):
            service = make_service(num_shards=1, max_batch=64)
            service.register_campaign("c1", ("o0", "o1"), max_users=4)
            values = container([1.0, 2.0])
            message = ClaimSubmission(
                campaign_id="c1", user_id="u1",
                object_ids=("o0", "o1"), values=values,
            )
            assert service.submit(message).ok
            assert service.submit(sub(user="u2", values=(3.0, 5.0))).ok
            if mutate:
                values[0] = float("nan")
            service.flush()
            assert service.submit(sub(user="u3", values=(2.0, 2.0))).ok
            service.flush()
            return service.snapshot("c1")

        mutated, untouched = run(True), run(False)
        assert mutated.claims_ingested == untouched.claims_ingested == 6
        assert mutated.truths.tobytes() == untouched.truths.tobytes()
        assert np.isfinite(mutated.truths).all()
        assert mutated.weights_by_user == untouched.weights_by_user

    def test_accepted_submit_creates_no_ndarray(self, monkeypatch):
        import repro.service.ingest as ingest_module
        import repro.service.shard as shard_module

        class NoNumPy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} on the submit path")

        ledger = BudgetLedger(epsilon_cap=10.0)
        service = make_service(num_shards=1, ledger=ledger)
        service.register_campaign(
            "c1", ("o0", "o1"), max_users=4,
            cost=LDPGuarantee(epsilon=1.0, delta=0.0),
        )
        with monkeypatch.context() as patch:
            patch.setattr(ingest_module, "np", NoNumPy())
            patch.setattr(shard_module, "np", NoNumPy())
            assert service.submit(sub(user="u1")).ok
            assert service.submit(sub(user="u2", values=[4, 2.5])).ok
        state, slot, objects, values, _, _ = service._shards[0]._queue[-1]
        assert (slot, objects, values) == (1, [0, 1], (4, 2.5))
        assert type(slot) is int and type(objects) is list
        assert type(values) is tuple
        service.flush()
        assert service.snapshot("c1").claims_ingested == 4

    @pytest.mark.parametrize("values", ["ab", ("1.5", "x"), (1.0, None),
                                        ((1.0, 2.0), (3.0, 4.0))])
    def test_non_numeric_values_raise_on_the_callers_thread(self, values):
        service = make_service(num_shards=1)
        service.register_campaign("c1", ("o0", "o1"), max_users=4)
        assert service.submit(sub(user="u1")).ok
        message = ClaimSubmission(
            campaign_id="c1", user_id="u2",
            object_ids=("o0", "o1"), values=values,
        )
        with pytest.raises(TypeError):
            service.submit(message)
        # Nothing of it was queued: the pump and the other user's
        # claims are unaffected.
        assert service.flush() == 2
        snap = service.snapshot("c1")
        assert snap.claims_ingested == 2 and set(snap.weights_by_user) == {"u1"}


class TestBackpressure:
    def test_reject_policy_refuses_when_queue_full(self):
        service = make_service(num_shards=1, queue_capacity=2)
        service.register_campaign("c1", ("o0", "o1"), max_users=8)
        assert service.submit(sub(user="u1")).ok
        assert service.submit(sub(user="u2")).ok
        result = service.submit(sub(user="u3"))
        assert not result.ok and result.reason == "overflow"
        assert service.stats.rejected_overflow == 2
        # Pumping drains the queue and restores headroom.
        service.pump()
        assert service.queue_depths() == [0]
        assert service.submit(sub(user="u3")).ok

    def test_overflow_rejection_spends_no_budget(self):
        ledger = BudgetLedger(epsilon_cap=10.0)
        service = make_service(num_shards=1, queue_capacity=1, ledger=ledger)
        cost = LDPGuarantee(epsilon=1.0, delta=0.0)
        service.register_campaign(
            "c1", ("o0", "o1"), max_users=8, cost=cost,
            user_ids=("u1", "u2", "u3", "u4"),
        )
        assert service.submit(sub(user="u1")).ok
        result = service.submit(sub(user="u2"))
        assert result.reason == "overflow"
        # The refused submission must not have charged u2's budget.
        assert ledger.spent("u2").epsilon == 0.0
        assert ledger.spent("u1").epsilon == pytest.approx(1.0)
        # Bulk path: same guarantee.
        result = service.submit_columns(
            "c1", np.array([3]), np.array([0]), np.array([1.0])
        )
        assert result.reason == "overflow"
        assert ledger.admitted == 1 and ledger.denied == 0

    def test_failed_charge_log_releases_the_reservation(self, tmp_path):
        # Three charge records that could not be encoded (bytes user
        # ids are not JSON) used to leave three reservations behind:
        # the empty shard then refused every submission as "overflow".
        # A new user's id is now checked where it would get a slot,
        # before the reservation and the charge, so nothing is left
        # behind and nothing is charged.
        from repro.durable.records import RecordError
        from repro.service.topology import Topology

        ledger = BudgetLedger(epsilon_cap=10.0)
        service = IngestService(
            ServiceConfig(num_shards=1, max_batch=8, queue_capacity=3),
            ledger=ledger,
            topology=Topology.in_process(durability=str(tmp_path / "wal")),
        )
        with service:
            cost = LDPGuarantee(epsilon=1.0, delta=0.0)
            service.register_campaign("c1", ("o0", "o1"), max_users=8, cost=cost)
            for i in range(3):
                with pytest.raises(RecordError):
                    service.submit(sub(user=b"raw-%d" % i))
                # Refused before the charge.
                assert ledger.spent(b"raw-%d" % i).epsilon == 0.0
                # The raise left the ledger lock: another thread takes
                # it at once.
                taken = []

                def try_lock():
                    taken.append(ledger.lock.acquire(blocking=False))
                    if taken[-1]:
                        ledger.lock.release()

                thread = threading.Thread(target=try_lock)
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive() and taken == [True]
            assert service._shards[0]._reserved == 0
            assert service.submit(sub(user="u1")).ok
            # A bytes id is refused after an accepted charge of the same
            # cost too.
            with pytest.raises(RecordError):
                service.submit(sub(user=b"raw-3"))
            assert service._shards[0]._reserved == 0

    def test_unloggable_id_is_refused_on_a_cost_free_durable_campaign(
        self, tmp_path
    ):
        # Without a cost nothing checked the id at admission: the bytes
        # user took a slot, and every later pump of the shard raised
        # from the USERS record that could not carry it.
        from repro.durable.records import RecordError
        from repro.service.topology import Topology

        service = IngestService(
            ServiceConfig(num_shards=1, max_batch=2, queue_capacity=3),
            topology=Topology.in_process(durability=str(tmp_path / "wal")),
        )
        with service:
            service.register_campaign("c1", ("o0", "o1"), max_users=8)
            with pytest.raises(RecordError):
                service.submit(sub(user=b"raw"))
            state = service.campaign_state("c1")
            assert list(state.user_table) == []
            assert service._shards[0]._reserved == 0
            assert service.stats.claims_accepted == 0
            for round_ in range(1, 4):
                assert service.submit(sub(user="u1")).ok
                service.pump()
                assert service.snapshot("c1").claims_ingested == 2 * round_
            assert list(state.user_table) == ["u1"]

    def test_closed_log_refuses_charges_at_admission(self, tmp_path):
        from repro.durable.wal import WalError
        from repro.service.topology import Topology

        ledger = BudgetLedger(epsilon_cap=10.0)
        service = IngestService(
            ServiceConfig(num_shards=1, max_batch=8, queue_capacity=3),
            ledger=ledger,
            topology=Topology.in_process(durability=str(tmp_path / "wal")),
        )
        with service:
            cost = LDPGuarantee(epsilon=1.0, delta=0.0)
            service.register_campaign("c1", ("o0", "o1"), max_users=8, cost=cost)
            assert service.submit(sub(user="u1")).ok
            service.pump()  # its charge is in the log
            service.durability.wal.close()
            with pytest.raises(WalError, match="closed"):
                service.submit(sub(user="u1"))
            assert ledger.spent("u1").epsilon == 2.0  # the charge stands
            assert service._shards[0]._reserved == 0

    def test_failed_chunk_charge_log_releases_the_reservation(
        self, tmp_path, monkeypatch
    ):
        from repro.durable.wal import WalError
        from repro.service.topology import Topology

        service = IngestService(
            ServiceConfig(num_shards=1, max_batch=8, queue_capacity=2),
            ledger=BudgetLedger(epsilon_cap=10.0),
            topology=Topology.in_process(durability=str(tmp_path / "wal")),
        )
        with service:
            cost = LDPGuarantee(epsilon=1.0, delta=0.0)
            service.register_campaign(
                "c1", ("o0", "o1"), max_users=8, cost=cost,
                user_ids=("u0", "u1"),
            )
            chunk = ("c1", np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0]))

            def sticky(*args, **kwargs):
                raise WalError("earlier fsync failed")

            with monkeypatch.context() as patch:
                patch.setattr(service.durability, "log_charge", sticky)
                for _ in range(2):
                    with pytest.raises(WalError):
                        service.submit_columns(*chunk)
            assert service._shards[0]._reserved == 0
            assert service.submit_columns(*chunk).ok


class TestBulkColumns:
    def test_round_trip_and_counts(self):
        service = make_service(num_shards=2, max_batch=16)
        service.register_campaign("c1", ("o0", "o1", "o2"), max_users=4)
        result = service.submit_columns(
            "c1",
            np.array([0, 1, 2, 0]),
            np.array([0, 1, 2, 2]),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )
        assert result.ok and result.accepted == 4
        service.flush()
        snap = service.snapshot("c1")
        assert snap.claims_ingested == 4
        assert snap.num_contributors == 3
        assert snap.coverage == 1.0

    def test_multidimensional_columns_rejected_up_front(self):
        service = make_service()
        service.register_campaign("c1", ("o0", "o1"), max_users=2)
        with pytest.raises(ValueError, match="1-D"):
            service.submit_columns(
                "c1",
                np.array([[0, 1]]),
                np.array([[0, 1]]),
                np.array([[1.0, 2.0]]),
            )
        # The shard queue stays clean: later traffic pumps fine.
        assert service.submit_columns(
            "c1", np.array([0]), np.array([0]), np.array([1.0])
        ).ok
        assert service.snapshot("c1").claims_ingested == 1

    def test_out_of_range_slots_rejected_atomically(self):
        service = make_service()
        service.register_campaign("c1", ("o0",), max_users=2)
        result = service.submit_columns(
            "c1", np.array([0, 5]), np.array([0, 0]), np.array([1.0, 2.0])
        )
        assert result.reason == "capacity" and result.rejected == 2
        result = service.submit_columns(
            "c1", np.array([0, 1]), np.array([0, 3]), np.array([1.0, 2.0])
        )
        assert result.reason == "unknown-object"

    def test_bulk_budget_admission_is_atomic(self):
        ledger = BudgetLedger(epsilon_cap=1.0)
        service = make_service(ledger=ledger)
        cost = LDPGuarantee(epsilon=0.6, delta=0.0)
        service.register_campaign(
            "c1", ("o0",), max_users=4, cost=cost, user_ids=("u0", "u1")
        )
        # Exhaust slot 1's user.
        assert service.submit_columns(
            "c1", np.array([1]), np.array([0]), np.array([1.0])
        ).ok
        # Mixed chunk: slot 0 has headroom, slot 1 does not.
        result = service.submit_columns(
            "c1", np.array([0, 1]), np.array([0, 0]), np.array([1.0, 2.0])
        )
        assert result.reason == "budget"
        # Atomicity: the fresh user was not charged by the failed chunk.
        state = service.campaign_state("c1")
        assert ledger.spent(state.user_table[0]).epsilon == 0.0

    def test_rejected_traffic_does_not_consume_user_slots(self):
        ledger = BudgetLedger(epsilon_cap=0.5)
        service = make_service(ledger=ledger)
        cost = LDPGuarantee(epsilon=1.0, delta=0.0)  # never admissible
        service.register_campaign("c1", ("o0", "o1"), max_users=2, cost=cost)
        for i in range(5):
            assert service.submit(sub(user=f"u{i}")).reason == "budget"
        # Budget-rejected users must not have filled the 2-slot table.
        assert len(service.campaign_state("c1").user_table) == 0

    def test_bulk_budget_charges_per_claim(self):
        """Merging submissions into one chunk must not under-charge:
        each bulk claim is an independent release."""
        ledger = BudgetLedger(epsilon_cap=1.0)
        service = make_service(ledger=ledger)
        cost = LDPGuarantee(epsilon=0.4, delta=0.0)
        service.register_campaign(
            "c1", ("o0", "o1"), max_users=4, cost=cost, user_ids=("u0", "u1")
        )
        result = service.submit_columns(
            "c1",
            np.array([0, 0, 1]),
            np.array([0, 1, 0]),
            np.ones(3),
        )
        assert result.ok
        state = service.campaign_state("c1")
        assert ledger.spent(state.user_table[0]).epsilon == pytest.approx(0.8)
        assert ledger.spent(state.user_table[1]).epsilon == pytest.approx(0.4)
        # User 0 has 0.2 headroom left: one more claim (0.4) is denied.
        result = service.submit_columns(
            "c1", np.array([0]), np.array([0]), np.array([1.0])
        )
        assert result.reason == "budget"
        # A two-claim chunk for user 1 (0.8 composed on top of 0.4
        # spent) exceeds the cap; a single claim (0.4) still fits.
        assert service.submit_columns(
            "c1", np.array([1, 1]), np.array([0, 1]), np.ones(2)
        ).reason == "budget"
        assert service.submit_columns(
            "c1", np.array([1]), np.array([1]), np.array([1.0])
        ).ok


class TestSnapshots:
    def test_snapshot_is_read_only_and_fresh(self):
        service = make_service(num_shards=1, max_batch=4)
        service.register_campaign("c1", ("o0", "o1"), max_users=4)
        service.submit(sub(user="u1", values=(1.0, 3.0)))
        snap = service.snapshot("c1")  # forces flush
        assert snap.claims_ingested == 2
        assert snap.truth_for("o0") == pytest.approx(1.0)
        with pytest.raises(ValueError):
            snap.truths[0] = 99.0
        with pytest.raises(KeyError):
            snap.truth_for("missing")

    def test_snapshot_does_not_force_cosharded_refinement(self):
        service = make_service(num_shards=1, max_batch=64)
        service.register_campaign("a", ("o0",), max_users=4)
        service.register_campaign("b", ("o0",), max_users=4)
        service.submit(sub(campaign="a", objects=("o0",), values=(1.0,)))
        service.submit(sub(campaign="b", objects=("o0",), values=(2.0,)))
        service.snapshot("a")
        # b's claims were pumped into its batcher but not flushed/refined.
        assert service.campaign_state("b").batcher.pending == 1
        assert service.snapshot("b").truth_for("o0") == pytest.approx(2.0)

    def test_snapshot_unknown_campaign(self):
        service = make_service()
        with pytest.raises(KeyError):
            service.snapshot("nope")

    def test_snapshot_reads_are_counted(self):
        service = make_service()
        service.register_campaign("c1", ("o0",), max_users=4)
        service.submit(sub(user="u1", objects=("o0",), values=(1.0,)))
        assert service.stats.snapshot_reads == 0
        service.snapshot("c1")
        service.snapshot("c1")
        assert service.stats.snapshot_reads == 2
        assert service.stats.snapshot_read_seconds > 0.0
        # The second read found nothing new: the same snapshot again.
        assert service.stats.snapshot_reads_unchanged == 1
        as_dict = service.stats.as_dict()
        assert as_dict["snapshot_reads"] == 2
        assert as_dict["snapshot_reads_unchanged"] == 1
        # A failed read (unknown campaign) counts nothing.
        with pytest.raises(KeyError):
            service.snapshot("nope")
        assert service.stats.snapshot_reads == 2

    def test_truths_converge_to_ground_truth(self):
        rng = np.random.default_rng(7)
        service = make_service(num_shards=2, max_batch=64, queue_capacity=128)
        truths = np.array([2.0, 5.0, 8.0])
        service.register_campaign("c1", ("o0", "o1", "o2"), max_users=50)
        for u in range(50):
            values = truths + rng.normal(0.0, 0.3, size=3)
            service.submit(
                sub(user=f"u{u}", objects=("o0", "o1", "o2"),
                    values=tuple(float(v) for v in values))
            )
        snap = service.snapshot("c1")
        np.testing.assert_allclose(snap.truths, truths, atol=0.25)
        assert snap.num_contributors == 50


class TestUnregister:
    def test_queued_claims_are_aggregated_before_the_state_goes(self):
        """A claim accepted and charged before its campaign is
        unregistered is aggregated, not left in the queue to be
        skipped: spent budget buys an aggregated claim."""
        ledger = BudgetLedger(epsilon_cap=5.0)
        service = make_service(num_shards=1, ledger=ledger)
        service.register_campaign(
            "c1", ("o0",), max_users=4,
            cost=LDPGuarantee(epsilon=1.0, delta=0.0),
        )
        assert service.submit(sub(objects=("o0",), values=(1.0,))).ok
        service.unregister_campaign("c1")
        service.pump()
        processed = sum(
            shard["processed"] for shard in service.stats.as_dict()["shards"]
        )
        assert processed == service.stats.claims_accepted == 1
        assert ledger.spent("u1").epsilon == pytest.approx(1.0)
        assert not service.has_campaign("c1")
        with pytest.raises(KeyError):
            service.unregister_campaign("c1")


def test_config_validation():
    # A full shard queue always refuses; there is no policy to pick.
    with pytest.raises(TypeError):
        ServiceConfig(overflow="reject")
    with pytest.raises(ValueError):
        ServiceConfig(num_shards=0)
    with pytest.raises(ValueError):
        ServiceConfig(decay=0.0)
