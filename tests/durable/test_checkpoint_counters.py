"""A checkpoint's claim counters are derived from the live campaign
state (live counters minus what the micro-batcher still buffers); they
must equal the per-logged-batch counting a manager once kept beside the
service (``shadow_counters_reference``) at every checkpoint, across
registration churn, full-queue refusals, every batch size, and crash
plus ``recover(resume=True)``."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadow_counters_reference
from repro.crowdsensing.messages import ClaimSubmission
from repro.durable import DurabilityConfig, RecoveryManager
from repro.privacy.ldp import LDPGuarantee
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.topology import Topology

CAMPAIGNS = ("alpha", "beta")  # one shard: they share its queue
OBJECTS = tuple(f"o{i}" for i in range(6))
USERS = tuple(f"u{i}" for i in range(5))
MAX_USERS = 3  # fewer than USERS: the table fills up
#: Named up front; a costed chunk may address a slot no user has taken
#: yet only to be refused with ValueError.
KNOWN = USERS[:2]
COST = LDPGuarantee(epsilon=1.0, delta=0.0)

campaigns = st.sampled_from(CAMPAIGNS)
values = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@st.composite
def submissions(draw):
    n = draw(st.integers(1, 12))
    return ("submit", ClaimSubmission(
        campaign_id=draw(st.sampled_from(CAMPAIGNS * 4 + ("ghost",))),
        user_id=draw(st.sampled_from(USERS)),
        object_ids=tuple(draw(st.lists(
            st.sampled_from(OBJECTS), min_size=n, max_size=n
        ))),
        values=tuple(draw(st.lists(values, min_size=n, max_size=n))),
    ))


@st.composite
def column_chunks(draw):
    n = draw(st.integers(1, 30))
    users = draw(st.lists(
        st.integers(0, MAX_USERS - 1), min_size=n, max_size=n
    ))
    objects = draw(st.lists(
        st.integers(0, len(OBJECTS) - 1), min_size=n, max_size=n
    ))
    return ("columns", draw(campaigns), np.array(users), np.array(objects),
            np.array(draw(st.lists(values, min_size=n, max_size=n))))


bursts = st.lists(
    st.one_of(submissions(), submissions(), column_chunks()),
    min_size=1, max_size=10,
)
steps = st.one_of(
    bursts, bursts, bursts,
    st.just([("pump",)]),
    st.just([("flush",)]),
    st.just([("checkpoint",)]),
    st.just([("crash",)]),
    campaigns.map(lambda c: [("snapshot", c)]),
    campaigns.map(lambda c: [("unregister", c), ("pump",), ("register", c)]),
    campaigns.map(lambda c: [("unregister", c), ("register", c)]),
)
operations = st.lists(steps, max_size=20).map(
    lambda groups: [op for group in groups for op in group]
)


def register(service, campaign_id):
    service.register_campaign(
        campaign_id, OBJECTS, max_users=MAX_USERS, user_ids=KNOWN,
        method="crh", cost=COST,
    )


def watch(manager, service=None):
    """Install the reference beside ``manager`` and check every
    checkpoint it saves against it; returns the checked LSNs."""
    shadow = shadow_counters_reference.install(manager, service)
    store = manager.checkpoints
    save = store.save
    checked = []

    def checked_save(lsn, payload):
        assert_counters(payload, shadow)
        checked.append(lsn)
        return save(lsn, payload)

    store.save = checked_save
    return checked


def assert_counters(payload, expected):
    entries = payload["campaigns"]
    assert [e["spec"]["campaign_id"] for e in entries] == sorted(expected)
    for entry in entries:
        claims, by_slot = expected[entry["spec"]["campaign_id"]]
        assert entry["claims_accepted"] == claims
        assert entry["claims_by_slot"].dtype == np.int64
        assert entry["claims_by_slot"].tobytes() == by_slot.tobytes()


def apply(service, op):
    kind = op[0]
    if kind == "submit":
        service.submit(op[1])
    elif kind == "columns":
        try:
            service.submit_columns(*op[1:])
        except ValueError:  # only for a slot no user has taken
            state = service.campaign_state(op[1])
            assert op[2].max() >= len(state.user_table), op
    elif kind == "pump":
        service.pump()
    elif kind == "flush":
        service.flush()
    elif kind == "checkpoint":
        service.durability.checkpoint()
    elif service.has_campaign(op[1]):
        if kind == "snapshot":
            service.snapshot(op[1])
        elif kind == "unregister":
            service.unregister_campaign(op[1])  # items may still be queued
    elif kind == "register":
        register(service, op[1])


def crash_and_resume(directory, config):
    """Abandon the running service (the "kill") and resume from disk.

    The resumed manager's own checkpoint is written inside ``recover``;
    a resumed manager's reference once started from the replayed
    state, so that checkpoint must carry exactly those counters.
    """
    recovered = RecoveryManager(directory).recover(
        resume=True, durability_config=config
    )
    service = recovered.service
    manager = recovered.durability
    live = {}
    for campaign_id in service.campaign_ids:
        state = service.campaign_state(campaign_id)
        assert state.batcher.pending == 0
        live[campaign_id] = [state.claims_accepted, state.claims_by_slot]
    if live or service.ledger.num_users:
        assert_counters(manager.checkpoints.load_latest().payload, live)
    return service, watch(manager, service)


@pytest.mark.parametrize("max_batch", [1, 7, 64])
@given(
    ops=operations,
    cap=st.sampled_from([3.0, 1e6]),  # refusing often / never
    every=st.sampled_from([0, 40]),  # manual / automatic checkpoints
)
@settings(max_examples=40, deadline=None)
def test_checkpoint_counters_equal_the_logged_batches(
    max_batch, ops, cap, every
):
    with tempfile.TemporaryDirectory() as tmp:
        config = DurabilityConfig(
            directory=tmp, fsync="never", checkpoint_every_claims=every
        )
        service = IngestService(
            ServiceConfig(num_shards=1, max_batch=max_batch, queue_capacity=4),
            ledger=BudgetLedger(epsilon_cap=cap),
            topology=Topology.in_process(durability=config),
        )
        checked = watch(service.durability)
        for campaign_id in CAMPAIGNS:
            register(service, campaign_id)
        for op in ops + [("pump",), ("checkpoint",), ("flush",)]:
            if op[0] == "crash":
                service, checked = crash_and_resume(tmp, config)
            else:
                apply(service, op)
        service.durability.checkpoint()
        assert checked
        service.close()
