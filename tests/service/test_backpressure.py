"""Concurrent-producer backpressure tests.

The service is single-consumer (one pumping thread) but must tolerate
many producer threads: reservation, enqueue and the pump's queue
takeover share a per-shard lock.  These tests drive a full shard queue
from several threads and assert that nothing deadlocks and that every
claim is accounted for exactly once — processed or refused.
"""

import sys
import threading

import numpy as np
import pytest

from repro.service.ingest import IngestService, ServiceConfig
from repro.service.shard import Shard

CAMPAIGN = "bp-c0"
NUM_USERS = 16
NUM_OBJECTS = 8
CHUNK = 32


def make_service():
    service = IngestService(
        ServiceConfig(num_shards=1, max_batch=CHUNK, queue_capacity=8)
    )
    service.register_campaign(
        CAMPAIGN,
        [f"obj{i}" for i in range(NUM_OBJECTS)],
        max_users=NUM_USERS,
        user_ids=[f"user{i}" for i in range(NUM_USERS)],
    )
    return service


def producer(service, chunks_per_thread, seed, accepted_claims):
    rng = np.random.default_rng(seed)
    accepted = 0
    for _ in range(chunks_per_thread):
        result = service.submit_columns(
            CAMPAIGN,
            rng.integers(0, NUM_USERS, size=CHUNK),
            rng.integers(0, NUM_OBJECTS, size=CHUNK),
            rng.normal(size=CHUNK),
        )
        accepted += result.accepted
    accepted_claims.append(accepted)


def test_concurrent_producers_never_deadlock_and_account_exactly():
    """Hammer one tiny shard queue from 8 threads while pumping: a full
    queue refuses the overflow and loses no accepted claim."""
    service = make_service()
    shard = service._shards[0]
    accepted_claims: list[int] = []
    threads = [
        threading.Thread(
            target=producer,
            args=(service, 60, seed, accepted_claims),
        )
        for seed in range(8)
    ]
    stop = threading.Event()

    def pump_loop():
        while not stop.is_set():
            service.pump()

    pumper = threading.Thread(target=pump_loop)
    pumper.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "producer deadlocked"
    stop.set()
    pumper.join(timeout=60)
    assert not pumper.is_alive(), "pump loop deadlocked"
    service.pump()  # drain whatever the producers left behind

    accepted = sum(accepted_claims)
    processed = shard.claims_processed
    assert shard.queue_depth == 0
    # Every claim is either processed or refused — exactly once.
    assert accepted == processed == service.stats.claims_accepted
    assert accepted + service.stats.rejected_overflow == 8 * 60 * CHUNK
    # The campaign's own accounting matches what was actually pumped.
    state = service.campaign_state(CAMPAIGN)
    assert state.claims_accepted == processed
    assert int(state.claims_by_slot.sum()) == processed


def test_enqueue_is_thread_safe_at_shard_level():
    """Direct shard hammering, reserve then enqueue: total items in ==
    queued + refused, and the queue never passes its capacity."""
    shard = Shard(0, queue_capacity=16)
    items_per_thread = 500
    refused = []

    def worker(seed):
        values = np.ones(1)
        slots = np.zeros(1, dtype=np.int64)
        count = 0
        for _ in range(items_per_thread):
            if shard.try_reserve():
                shard.enqueue((None, slots, slots, values))
            else:
                count += 1
        refused.append(count)

    threads = [
        threading.Thread(target=worker, args=(s,)) for s in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between bytecodes
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert shard.queue_depth + sum(refused) == 6 * items_per_thread
    assert shard.queue_depth == 16
    assert not shard.try_reserve()


def test_overflow_reject_never_spends_budget_concurrently():
    """A reservation gates the budget charge: no producer may spend
    epsilon on a submission the queue then refuses."""
    from repro.privacy.ldp import LDPGuarantee
    from repro.service.ledger import BudgetLedger

    cost = LDPGuarantee(epsilon=0.001, delta=0.0)
    ledger = BudgetLedger(epsilon_cap=1e9)
    service = IngestService(
        ServiceConfig(num_shards=1, max_batch=CHUNK, queue_capacity=4),
        ledger=ledger,
    )
    service.register_campaign(
        CAMPAIGN,
        [f"obj{i}" for i in range(NUM_OBJECTS)],
        max_users=NUM_USERS,
        user_ids=[f"user{i}" for i in range(NUM_USERS)],
        cost=cost,
    )
    accepted_claims: list[int] = []
    threads = [
        threading.Thread(
            target=producer, args=(service, 50, seed, accepted_claims)
        )
        for seed in range(8)
    ]
    stop = threading.Event()

    def pump_loop():
        while not stop.is_set():
            service.pump()

    pumper = threading.Thread(target=pump_loop)
    pumper.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    stop.set()
    pumper.join(timeout=60)
    service.pump()

    accepted = sum(accepted_claims)
    total_spent = sum(
        ledger.spent(f"user{i}").epsilon for i in range(NUM_USERS)
    )
    # Bulk admission charges cost * per-user claim count per chunk, so
    # total spent epsilon must equal accepted claims exactly — any
    # overflow-rejected chunk that charged anyway would show up here.
    assert total_spent == pytest.approx(accepted * cost.epsilon)


def test_concurrent_placeholder_slots_stay_unique():
    """Racing bulk submitters must not mint duplicate 'slot:N' ids."""
    service = IngestService(
        ServiceConfig(num_shards=1, max_batch=CHUNK, queue_capacity=10_000)
    )
    service.register_campaign(
        CAMPAIGN,
        [f"obj{i}" for i in range(NUM_OBJECTS)],
        max_users=256,
    )
    state = service.campaign_state(CAMPAIGN)

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            slots = rng.integers(0, 256, size=CHUNK)
            service.submit_columns(
                CAMPAIGN,
                slots,
                rng.integers(0, NUM_OBJECTS, size=CHUNK),
                rng.normal(size=CHUNK),
            )

    threads = [
        threading.Thread(target=worker, args=(s,)) for s in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert len(state.user_table) == len(set(state.user_table))
    assert state.user_table == [
        f"slot:{i}" for i in range(len(state.user_table))
    ]
    assert len(state.user_index) == len(state.user_table)


def test_reservation_protocol_at_shard_level():
    shard = Shard(0, queue_capacity=2)
    assert shard.try_reserve() and shard.try_reserve()
    # Capacity is fully reserved: no third reservation.
    assert not shard.try_reserve()
    item = (None, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
            np.ones(1))
    # Reserved enqueues always land, and fill the queue.
    shard.enqueue(item)
    shard.enqueue(item)
    assert shard.queue_depth == 2
    assert not shard.try_reserve()
    # A cancelled reservation re-opens its slot (here: reserve fails
    # while full, then succeeds again after the queue drains).
    shard2 = Shard(1, queue_capacity=1)
    assert shard2.try_reserve()
    assert not shard2.try_reserve()
    shard2.cancel_reservation()
    assert shard2.try_reserve()


def test_concurrent_scalar_submitters_charge_exactly_once(tmp_path):
    """The device path under 8 producer threads and a pump thread, with
    a ledger that runs out and a write-ahead log: one ledger lock entry
    per submission still admits, charges and logs each one exactly once.

    A producer retries a submission refused ``overflow`` until it gets
    any other outcome, as a device would.  So each of the 640
    submissions ends admitted or refused ``budget`` whatever the
    scheduler does, and with 80 admissible the ledger always runs out.
    """
    from functools import reduce

    from repro.crowdsensing.messages import ClaimSubmission
    from repro.durable.manager import DurabilityConfig
    from repro.privacy.ldp import LDPGuarantee
    from repro.service.ledger import BudgetLedger
    from repro.service.topology import Topology

    cost = LDPGuarantee(epsilon=0.1, delta=0.0)
    ledger = BudgetLedger(epsilon_cap=0.5)  # five submissions a user
    service = IngestService(
        ServiceConfig(num_shards=1, max_batch=CHUNK, queue_capacity=16),
        ledger=ledger,
        topology=Topology.in_process(durability=DurabilityConfig(
            directory=tmp_path / "wal", fsync="never"
        )),
    )
    users = [f"user{i}" for i in range(NUM_USERS)]
    objects = [f"obj{i}" for i in range(NUM_OBJECTS)]
    service.register_campaign(
        CAMPAIGN, objects, max_users=NUM_USERS, user_ids=users, cost=cost
    )
    per_thread, claims = 80, 4
    outcomes: list[list[tuple[str, str]]] = []
    overflowed: list[int] = []

    def submitter(seed):
        rng = np.random.default_rng(seed)
        mine, retries = [], 0
        for _ in range(per_thread):
            user = users[rng.integers(NUM_USERS)]
            submission = ClaimSubmission(
                campaign_id=CAMPAIGN,
                user_id=user,
                object_ids=tuple(
                    objects[j] for j in rng.integers(0, NUM_OBJECTS, claims)
                ),
                values=tuple(rng.normal(size=claims).tolist()),
            )
            result = service.submit(submission)
            while result.reason == "overflow":
                retries += 1
                result = service.submit(submission)
            mine.append((user, result.reason))
        outcomes.append(mine)
        overflowed.append(retries)

    stop = threading.Event()

    def pump_loop():
        while not stop.is_set():
            service.pump()

    threads = [
        threading.Thread(target=submitter, args=(s,)) for s in range(8)
    ]
    pumper = threading.Thread(target=pump_loop)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the sections
    try:
        pumper.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "producer deadlocked"
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    pumper.join(timeout=60)
    assert not pumper.is_alive(), "pump loop deadlocked"
    service.flush()
    try:
        # Every non-overflow outcome, one per submission.
        flat = [o for mine in outcomes for o in mine]
        assert len(flat) == 8 * per_thread
        reasons = {reason for _, reason in flat}
        assert reasons <= {"", "budget"}
        assert "budget" in reasons  # the ledger ran out for someone
        stats = service.stats
        accepted = sum(reason == "" for _, reason in flat)
        assert stats.claims_accepted == accepted * claims
        assert stats.rejected_overflow == sum(overflowed) * claims
        assert (
            stats.claims_accepted + stats.claims_rejected
            == (len(flat) + sum(overflowed)) * claims
        )
        assert service._shards[0].claims_processed == stats.claims_accepted
        for user in users:
            mine = sum(1 for u, reason in flat if u == user and reason == "")
            # Spent is the cost added once per accepted submission.
            assert ledger.spent(user).epsilon == reduce(
                lambda total, _: total + cost.epsilon, range(mine), 0.0
            )
        assert ledger.admitted == accepted
        assert service.durability.charges_logged == accepted
        assert service._shards[0]._reserved == 0
    finally:
        service.close()
