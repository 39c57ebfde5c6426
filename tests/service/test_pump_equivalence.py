"""``Shard.pump`` builds a campaign's columns once per run of scalar
work items; it must be indistinguishable from pumping one item at a
time (``per_item_reference``): same results, same batches in the same
order, same accounting, same ledger, same bytes in the log."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_item_reference
from repro.crowdsensing.messages import ClaimSubmission
from repro.durable.manager import DurabilityConfig
from repro.privacy.ldp import LDPGuarantee
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.topology import Topology

CAMPAIGNS = ("alpha", "beta")  # one shard: they share its queue
OBJECTS = tuple(f"o{i}" for i in range(6))
USERS = tuple(f"u{i}" for i in range(5))
MAX_USERS = 3  # fewer than USERS: the table fills up
#: Named up front; a costed chunk that addresses a slot no user has
#: taken yet raises ValueError, an outcome both sides must share.
KNOWN = USERS[:2]
COST = LDPGuarantee(epsilon=1.0, delta=0.0)

finite = st.floats(-1e9, 1e9, allow_nan=False, width=64)
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
campaigns = st.sampled_from(CAMPAIGNS)


@st.composite
def submissions(draw):
    n = draw(st.integers(1, 20))
    objects = draw(st.lists(st.sampled_from(OBJECTS), min_size=n, max_size=n))
    if draw(st.integers(0, 9)) == 0:
        objects[draw(st.integers(0, n - 1))] = "no-such-object"
    shape = draw(st.sampled_from(["tuple", "list", "ndarray", "int"]))
    if shape == "int":
        values = tuple(draw(st.lists(
            st.integers(-1000, 1000), min_size=n, max_size=n
        )))
    else:
        values = draw(st.lists(finite, min_size=n, max_size=n))
        if draw(st.integers(0, 9)) == 0:
            values[draw(st.integers(0, n - 1))] = draw(non_finite)
        values = {"tuple": tuple, "list": list, "ndarray": np.array}[shape](
            values
        )
    return ("submit", ClaimSubmission(
        campaign_id=draw(st.sampled_from(CAMPAIGNS * 4 + ("ghost",))),
        user_id=draw(st.sampled_from(USERS)),
        object_ids=tuple(objects),
        values=values,
    ))


@st.composite
def column_chunks(draw):
    n = draw(st.integers(1, 30))
    # One past the end now and then: a capacity / unknown-object chunk.
    users = draw(st.lists(st.integers(0, MAX_USERS), min_size=n, max_size=n))
    objects = draw(st.lists(
        st.integers(0, len(OBJECTS) - 1), min_size=n, max_size=n
    ))
    if draw(st.integers(0, 2)):
        users = [min(u, MAX_USERS - 1) for u in users]
    if draw(st.integers(0, 9)) == 0:
        objects[0] = len(OBJECTS)
    values = draw(st.lists(finite, min_size=n, max_size=n))
    return ("columns", draw(campaigns), np.array(users), np.array(objects),
            np.array(values))


# Bursts outrun the 4-item queue between pumps (overflow refusals) and
# exhaust a user's budget.
bursts = st.lists(
    st.one_of(submissions(), submissions(), submissions(), column_chunks()),
    min_size=1, max_size=12,
)
steps = st.one_of(
    bursts, bursts, bursts, bursts,
    st.just([("pump",)]),
    st.just([("flush",)]),
    campaigns.map(lambda c: [("snapshot", c)]),
    # Unregistered with items still queued: pumped while the campaign
    # is gone, or after it came back afresh.
    campaigns.map(lambda c: [("unregister", c), ("pump",), ("register", c)]),
    campaigns.map(lambda c: [("unregister", c), ("register", c)]),
)
operations = st.lists(steps, max_size=25).map(
    lambda groups: [op for group in groups for op in group]
)


def register(service, campaign_id):
    service.register_campaign(
        campaign_id, OBJECTS, max_users=MAX_USERS, user_ids=KNOWN,
        method="crh", cost=COST,
    )


def build(max_batch, cap, directory):
    topology = None
    if directory is not None:
        topology = Topology.in_process(
            durability=DurabilityConfig(directory=directory, fsync="never")
        )
    service = IngestService(
        ServiceConfig(
            num_shards=1, max_batch=max_batch, queue_capacity=4,
            trace_sample_every=3,
        ),
        ledger=BudgetLedger(epsilon_cap=cap),
        topology=topology,
    )
    for campaign_id in CAMPAIGNS:
        register(service, campaign_id)
    batches = []
    for shard in service._shards:
        def spy(state, batch, ingest=shard._ingest):
            batches.append((
                state.campaign_id, batch.users.tolist(),
                batch.objects.tolist(), batch.values.tobytes(),
            ))
            ingest(state, batch)
        shard._ingest = spy
    return service, batches


def apply(service, op):
    kind = op[0]
    if kind == "submit":
        return service.submit(op[1])
    if kind == "columns":
        try:
            return service.submit_columns(*op[1:])
        except ValueError as exc:  # a costed chunk on an unnamed slot
            return str(exc)
    if kind == "pump":
        return service.pump()
    if kind == "flush":
        return service.flush()
    registered = service.has_campaign(op[1])
    if kind == "snapshot" and registered:
        snap = service.snapshot(op[1])
        return (
            snap.truths.tobytes(), list(snap.weights_by_user),
            np.array(list(snap.weights_by_user.values())).tobytes(),
            snap.claims_ingested, snap.batches_ingested, snap.pending_claims,
        )
    if kind == "unregister" and registered:
        service.unregister_campaign(op[1])  # items may still be queued
    if kind == "register" and not registered:
        register(service, op[1])
    return None


def accounting(service):
    shard = service._shards[0]
    stats = service.stats.as_dict()
    for timing in ("snapshot_read_seconds", "wal_commit_seconds"):
        del stats[timing]
    return {
        "stats": stats,
        "processed": shard.claims_processed,
        "campaigns": {
            cid: (
                state.claims_accepted, state.claims_by_slot.tolist(),
                list(state.user_table), state.batcher.pending,
            )
            for cid, state in shard.campaigns.items()
        },
        "ledger": service.ledger.to_records(),
        "queue_waits": service.telemetry.queue_wait[0].count,
        "traces": [
            (r["trace_id"], r["campaign_id"], r["claims"], r["lsn"])
            for r in service.telemetry.traces.records()
        ],
    }


def directory_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("max_batch", [1, 7, 64])
@given(
    ops=operations,
    cap=st.sampled_from([2.0, 1e6]),  # refusing often / never
    durable=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_pump_equals_one_item_at_a_time(max_batch, ops, cap, durable):
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [f"{tmp}/{side}" if durable else None for side in "ab"]
        service, batches = build(max_batch, cap, dirs[0])
        reference, expected = build(max_batch, cap, dirs[1])
        per_item_reference.install(reference)
        try:
            for op in ops + [("flush",)]:
                assert apply(service, op) == apply(reference, op), op
                assert batches == expected, op
            assert accounting(service) == accounting(reference)
        finally:
            service.close()
            reference.close()
        if durable:
            assert directory_bytes(dirs[0]) == directory_bytes(dirs[1])
