"""``IngestService.submit`` makes one pass per submission: one ledger
lock entry around the charge and its log record, each cost checked for
the log once, the work item built in place, and a pump that counts a
run's room down instead of measuring it.  None of that may show: after
every step of any mix of submissions, the service must equal the frozen
two-pass path (``per_submission_reference``) in every result, counter,
ledger total, user table, aggregated batch and logged byte."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_ledger_reference
import per_submission_reference
from repro.crowdsensing.messages import ClaimSubmission
from repro.durable.manager import DurabilityConfig
from repro.privacy.ldp import LDPGuarantee
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.topology import Topology

#: alpha and beta charge the cost; gamma charges nothing.
CAMPAIGNS = ("alpha", "beta", "gamma")  # beta and gamma share a shard
OBJECTS = tuple(f"o{i}" for i in range(5))
USERS = ("u0", "u1", "u2", "u3", "u4")
MAX_USERS = 3  # fewer than USERS: the table fills up
#: Registered up front, so bulk chunks address them by slot and share
#: their budget with their protocol submissions.
KNOWN = USERS[:2]
#: Three charges of 0.1 sum to 0.30000000000000004, over a 0.3 cap by
#: less than its 1e-12 slack; three of 0.05 pass a 0.15 delta cap the
#: same way.  The fourth is refused.
COST = LDPGuarantee(epsilon=0.1, delta=0.05)
CAPS = st.sampled_from([(0.3, 1.0), (1e6, 0.15), (1e6, 1.0)])

finite = st.floats(-1e9, 1e9, allow_nan=False, width=64)
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def submissions(draw):
    n = draw(st.integers(0, 9))
    objects = draw(st.lists(st.sampled_from(OBJECTS), min_size=n, max_size=n))
    values = draw(st.lists(finite, min_size=n, max_size=n))
    if n and draw(st.integers(0, 9)) == 0:
        objects[draw(st.integers(0, n - 1))] = "no-such-object"
    if n and draw(st.integers(0, 9)) == 0:
        values[draw(st.integers(0, n - 1))] = draw(non_finite)
    shape = draw(st.sampled_from([tuple, list, np.array]))
    campaign_id = draw(st.sampled_from(CAMPAIGNS * 3 + ("ghost",)))
    # A bytes id cannot go into a log record: a durable service refuses
    # it where the new user would get a slot, costed campaign or not
    # (gamma has no cost), before anything is reserved or charged.
    user_id = draw(st.sampled_from(KNOWN * 8 + USERS + (b"raw",)))
    return ("submit", ClaimSubmission(
        campaign_id=campaign_id,
        user_id=user_id,
        object_ids=tuple(objects),
        values=shape(values),
    ))


@st.composite
def column_chunks(draw):
    n = draw(st.integers(1, 12))
    users = draw(st.lists(
        st.integers(0, len(KNOWN) - 1), min_size=n, max_size=n
    ))
    objects = draw(st.lists(
        st.integers(0, len(OBJECTS) - 1), min_size=n, max_size=n
    ))
    values = draw(st.lists(finite, min_size=n, max_size=n))
    return ("columns", draw(st.sampled_from(CAMPAIGNS)), np.array(users),
            np.array(objects), np.array(values))


# Bursts outrun the 4-item queues between pumps (overflow refusals).
bursts = st.lists(
    st.one_of(submissions(), submissions(), submissions(), column_chunks()),
    min_size=2, max_size=12,
)
steps = st.one_of(
    bursts, bursts, bursts, bursts,
    st.just([("pump",)]),
    st.just([("flush",)]),
    st.sampled_from(CAMPAIGNS).map(lambda c: [("snapshot", c)]),
)
operations = st.lists(steps, min_size=2, max_size=30).map(
    lambda groups: [op for group in groups for op in group]
)


def build(caps, max_batch, directory, fsync, ledger_type=BudgetLedger):
    topology = None
    if directory is not None:
        topology = Topology.in_process(
            durability=DurabilityConfig(directory=directory, fsync=fsync)
        )
    epsilon_cap, delta_cap = caps
    service = IngestService(
        ServiceConfig(
            num_shards=2, max_batch=max_batch, queue_capacity=4,
            trace_sample_every=3,
        ),
        ledger=ledger_type(epsilon_cap, delta_cap=delta_cap),
        topology=topology,
    )
    for campaign_id in CAMPAIGNS:
        service.register_campaign(
            campaign_id, OBJECTS, max_users=MAX_USERS, user_ids=KNOWN,
            method="crh", cost=None if campaign_id == "gamma" else COST,
        )
    batches = []
    for shard in service._shards:
        def spy(state, batch, ingest=shard._ingest):
            batches.append((
                state.campaign_id, batch.users.tobytes(),
                batch.objects.tobytes(), batch.values.tobytes(),
            ))
            ingest(state, batch)
        shard._ingest = spy
    return service, batches


def apply(service, op):
    kind = op[0]
    try:
        if kind == "submit":
            return service.submit(op[1])
        if kind == "columns":
            return service.submit_columns(*op[1:])
        if kind == "pump":
            return service.pump()
        if kind == "flush":
            return service.flush()
        snap = service.snapshot(op[1])
    except Exception as exc:  # the same refusal must raise on both sides
        return ("raised", type(exc).__name__, str(exc))
    return (
        snap.truths.tobytes(), list(snap.weights_by_user),
        np.array(list(snap.weights_by_user.values())).tobytes(),
        snap.claims_ingested, snap.batches_ingested, snap.pending_claims,
    )


def accounting(service):
    stats = service.stats.as_dict()  # per-shard telemetry counters too
    for timing in ("snapshot_read_seconds", "wal_commit_seconds"):
        del stats[timing]
    ledger = service.ledger
    return {
        "stats": stats,
        "ledger": ledger.to_records(),
        "admitted": ledger.admitted,
        "denied": ledger.denied,
        "reserved": [shard._reserved for shard in service._shards],
        "campaigns": {
            cid: (
                list(state.user_table), state.claims_accepted,
                state.claims_by_slot.tolist(), state.batcher.pending,
            )
            for shard in service._shards
            for cid, state in shard.campaigns.items()
        },
        "traces": [
            (r["trace_id"], r["campaign_id"], r["claims"], r["lsn"])
            for r in service.telemetry.traces.records()
        ],
        "charges_logged": (
            None if service.durability is None
            else service.durability.charges_logged
        ),
    }


def directory_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("durable", [None, "never", "always"])
@given(
    ops=operations,
    caps=CAPS,
    # 1: every claim fills a batch, so a run drains at each item.
    max_batch=st.sampled_from([1, 5, 16]),
)
@settings(max_examples=50, deadline=None)
def test_one_pass_equals_the_two_pass_submit(durable, ops, caps, max_batch):
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [f"{tmp}/{side}" if durable else None for side in "ab"]
        service, batches = build(caps, max_batch, dirs[0], durable)
        # The two-pass path ran on the dict ledger and its bulk charge.
        reference, expected = build(
            caps, max_batch, dirs[1], durable,
            dict_ledger_reference.BudgetLedger,
        )
        per_submission_reference.install(reference)
        dict_ledger_reference.install(reference)
        try:
            for op in ops + [("flush",)]:
                assert apply(service, op) == apply(reference, op), op
                assert batches == expected, op
                assert accounting(service) == accounting(reference), op
                if durable:
                    assert directory_bytes(dirs[0]) == directory_bytes(
                        dirs[1]
                    ), op
        finally:
            service.close()
            reference.close()
        if durable:
            assert directory_bytes(dirs[0]) == directory_bytes(dirs[1])
