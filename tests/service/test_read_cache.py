"""A campaign keeps its last snapshot and returns it while nothing it
shows has changed.  Every read must still be the read the uncached
path would have built (``uncached_read_reference``), a read with no
operation since the last one must be *that* object, and a read after
anything that moved the campaign must be a new one.

Besides the service's own operations, the property feeds and rewinds
aggregators directly, the way log replay and a checkpoint restore do:
those change what a read shows without moving the shard's claim
counters, so only the aggregator's ``version`` can tell the cache."""

import copy
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uncached_read_reference
from repro.crowdsensing.messages import ClaimSubmission
from repro.durable import DurabilityConfig, RecoveryManager
from repro.privacy.ldp import LDPGuarantee
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.snapshot import SlotIds, TruthSnapshot
from repro.service.topology import Topology
from repro.truthdiscovery.streaming import ClaimBatch

#: One streaming and one full-refit campaign on one shard: they share
#: its queue, so one fills it for the other.
BACKENDS = {"s": "streaming", "f": "full"}
OBJECTS = tuple(f"o{i}" for i in range(4))
REGISTERED = ("ann", "bob")  # named up front; may never submit
USERS = REGISTERED + tuple(f"u{i}" for i in range(4))
MAX_USERS = 6
COST = LDPGuarantee(epsilon=1.0, delta=0.0)

campaigns = st.sampled_from(sorted(BACKENDS))
values = st.floats(-100.0, 100.0, allow_nan=False, width=64)


@st.composite
def submissions(draw):
    n = draw(st.integers(1, 4))
    return ("submit", ClaimSubmission(
        campaign_id=draw(campaigns),
        user_id=draw(st.sampled_from(USERS)),
        object_ids=tuple(draw(st.lists(
            st.sampled_from(OBJECTS), min_size=n, max_size=n
        ))),
        values=tuple(draw(st.lists(values, min_size=n, max_size=n))),
    ))


@st.composite
def column_chunks(draw, kind="columns"):
    # Slots past the named users grow "slot:N" placeholders, or, on a
    # costed campaign, are refused until a submission names them.
    n = draw(st.integers(1, 8))
    return (
        kind,
        draw(campaigns),
        np.array(draw(st.lists(
            st.integers(0, MAX_USERS - 1), min_size=n, max_size=n
        ))),
        np.array(draw(st.lists(
            st.integers(0, len(OBJECTS) - 1), min_size=n, max_size=n
        ))),
        np.array(draw(st.lists(values, min_size=n, max_size=n))),
    )


operations = st.lists(
    st.one_of(
        submissions(), submissions(), column_chunks(),
        st.sampled_from([("pump",), ("flush",), ("checkpoint",), ("crash",)]),
        campaigns.map(lambda c: ("read", c)),
        campaigns.map(lambda c: ("read", c)),
        campaigns.map(lambda c: ("reregister", c)),
        column_chunks("apply"),
        campaigns.map(lambda c: ("rewind", c)),
    ),
    max_size=40,
)


def register(service, campaign_id, method, cost):
    service.register_campaign(
        campaign_id, OBJECTS, max_users=MAX_USERS, user_ids=REGISTERED,
        method=method, aggregator=BACKENDS[campaign_id], cost=cost,
    )


def build(directory, method, *, max_batch, cap, cost):
    # A three-item queue between pumps refuses; a cap of 3.0 refuses
    # some users who took a slot earlier.
    service = IngestService(
        ServiceConfig(
            num_shards=1, max_batch=max_batch, queue_capacity=3,
            refine_every=6,
        ),
        ledger=BudgetLedger(epsilon_cap=cap),
        topology=Topology.in_process(
            durability=DurabilityConfig(directory, fsync="batch")
        ),
    )
    for campaign_id in BACKENDS:
        register(service, campaign_id, method, cost)
    return service


def chunk(kind, campaign_id):
    return (kind, campaign_id, np.array([0, 1]), np.array([0, 1]),
            np.array([1.0, 2.0]))


#: Read, change, re-read, then rewind each aggregator to what the first
#: read showed: the shard's counters stand still, so only a restore's
#: version bump keeps the next read from being the stale re-read.
REWIND_AFTER_REREAD = [
    ("read", "s"), ("read", "f"),
    chunk("columns", "s"), chunk("columns", "f"),
    ("read", "s"), ("read", "f"),
    ("rewind", "s"), ("rewind", "f"),
    ("read", "s"), ("read", "f"),
    chunk("apply", "s"), chunk("apply", "f"),
    ("read", "s"), ("read", "f"), ("read", "s"), ("read", "f"),
]


def submit(campaign_id, user_id):
    return ("submit", ClaimSubmission(
        campaign_id=campaign_id, user_id=user_id, object_ids=("o0",),
        values=(1.0,),
    ))


#: A new user takes a slot, then the other campaign's third submission
#: finds the three-item queue full and is refused; the next read
#: aggregates the new user's claim and must be a new one.
NEW_USER_BEFORE_FULL_QUEUE = [
    ("read", "s"), submit("s", "u0"),
    submit("f", "ann"), submit("f", "ann"), submit("f", "ann"),
    ("read", "s"),
]


def moved(state) -> tuple:
    """What any operation that changes a campaign's read moves."""
    return (
        state.claims_accepted,
        state.aggregator.claims_ingested,
        state.aggregator.batches_ingested,
        len(state.user_table),
    )


@pytest.mark.parametrize("method", ["crh", "gtm", "catd"])
@given(
    ops=operations,
    max_batch=st.sampled_from([1, 5, 64]),
    cap=st.sampled_from([3.0, 1e6]),
    # Costed, a chunk on a slot no user has taken raises ValueError;
    # cost-free, it names the slot "slot:N".
    cost=st.sampled_from([COST, None]),
)
@example(ops=REWIND_AFTER_REREAD, max_batch=5, cap=1e6, cost=COST)
@example(ops=NEW_USER_BEFORE_FULL_QUEUE, max_batch=5, cap=1e6, cost=COST)
@settings(max_examples=40, deadline=None)
def test_cached_reads_equal_uncached_reads(
    method, ops, max_batch, cap, cost
):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "gen0"
        service = build(
            directory, method, max_batch=max_batch, cap=cap, cost=cost
        )
        last = {}  # campaign -> (snapshot, state, moved, ops before it)
        first = {}  # campaign -> (state, aggregator state at its first read)
        touched = set()  # campaigns fed or rewound since their last read
        done = 0  # operations other than reads so far
        try:
            for op in ops:
                kind = op[0]
                if kind == "read":
                    campaign_id = op[1]
                    snap = service.snapshot(campaign_id)
                    state = service.campaign_state(campaign_id)
                    assert snap == uncached_read_reference.snapshot(state)
                    previous = last.get(campaign_id)
                    if previous is not None and previous[1] is state:
                        if previous[3] == done:
                            assert snap is previous[0]
                        elif previous[2] != moved(state):
                            assert snap is not previous[0]
                        elif campaign_id not in touched:
                            assert snap is previous[0]
                    last[campaign_id] = (snap, state, moved(state), done)
                    touched.discard(campaign_id)
                    if first.get(campaign_id, (None,))[0] is not state:
                        first[campaign_id] = (
                            state,
                            copy.deepcopy(state.aggregator.state_dict()),
                        )
                    continue
                done += 1
                if kind == "submit":
                    service.submit(op[1])
                elif kind == "columns":
                    try:
                        service.submit_columns(*op[1:])
                    except ValueError:  # a costed chunk, an unnamed slot
                        state = service.campaign_state(op[1])
                        assert cost is not None, op
                        assert op[2].max() >= len(state.user_table), op
                elif kind == "pump":
                    service.pump()
                elif kind == "flush":
                    service.flush()
                elif kind == "checkpoint":
                    service.durability.checkpoint()
                elif kind == "apply":  # as log replay feeds an aggregator
                    state = service.campaign_state(op[1])
                    state.aggregator.ingest(ClaimBatch(*op[2:]))
                    touched.add(op[1])
                elif kind == "rewind":  # as a checkpoint restore loads one
                    state = service.campaign_state(op[1])
                    saved = first.get(op[1], (None,))
                    if saved[0] is state:
                        state.aggregator.load_state(copy.deepcopy(saved[1]))
                        touched.add(op[1])
                elif kind == "reregister":
                    service.unregister_campaign(op[1])  # items may be queued
                    register(service, op[1], method, cost)
                else:  # crash: recover a copy as it stands, carry on there
                    crashed = directory.with_name(f"gen{done}")
                    shutil.copytree(directory, crashed)
                    service.close()
                    directory = crashed
                    service = RecoveryManager(directory).recover(
                        resume=True
                    ).service
        finally:
            service.close()


class TestSnapshotValue:
    def snapshots(self):
        table = ["a", "b", "c", "d"]
        common = dict(
            campaign_id="c", object_ids=("o0", "o1"),
            truths=np.array([1.0, 2.0]), seen_objects=np.array([True, False]),
            contributor_weights=np.array([0.5, 1.5]), claims_ingested=3,
            batches_ingested=1, pending_claims=0,
        )
        as_tuple = TruthSnapshot(contributor_ids=("b", "d"), **common)
        as_view = TruthSnapshot(
            contributor_ids=SlotIds(table, np.array([1, 3])), **common
        )
        return as_tuple, as_view, common

    def test_tuple_and_view_forms_compare_equal(self):
        as_tuple, as_view, _ = self.snapshots()
        assert as_tuple == as_view and as_view == as_tuple
        assert not as_tuple != as_view

    def test_any_differing_field_is_unequal(self):
        as_tuple, _, common = self.snapshots()
        for change in (
            dict(campaign_id="d"),
            dict(truths=np.array([1.0, 2.5])),
            dict(seen_objects=np.array([True, True])),
            dict(contributor_weights=np.array([0.5, 1.25])),
            dict(claims_ingested=4),
            dict(batches_ingested=2),
            dict(pending_claims=1),
        ):
            other = TruthSnapshot(
                contributor_ids=("b", "d"), **{**common, **change}
            )
            assert as_tuple != other, change
        assert as_tuple != TruthSnapshot(
            contributor_ids=("b", "c"), **common
        )
        # Bitwise: 0.0 and -0.0 are equal floats but not equal bits.
        zero, negative_zero = (
            TruthSnapshot(**{**common, "truths": np.array([1.0, z])},
                          contributor_ids=("b", "d"))
            for z in (0.0, -0.0)
        )
        assert zero != negative_zero
        assert as_tuple != "not a snapshot"

    def test_unhashable(self):
        as_tuple, _, _ = self.snapshots()
        with pytest.raises(TypeError):
            hash(as_tuple)


class TestSlotIdsSlicing:
    TABLE = [f"u{i}" for i in range(8)]
    SLOTS = np.array([0, 2, 3, 5, 7])

    @pytest.mark.parametrize("index", [
        slice(None, 3), slice(2, None), slice(-2, None), slice(None, -1),
        slice(None, None, 2), slice(None, None, -1), slice(4, 1, -2),
        slice(7, 9), slice(0, 0),
    ])
    def test_a_slice_is_the_tuple_forms_slice(self, index):
        ids = tuple(self.TABLE[s] for s in self.SLOTS)
        view = SlotIds(self.TABLE, self.SLOTS)
        assert view[index] == ids[index]
        assert type(view[index]) is tuple

    def test_both_forms_slice_alike_off_a_snapshot(self):
        service = IngestService(ServiceConfig(num_shards=1))
        service.register_campaign(
            "c", OBJECTS, max_users=MAX_USERS, user_ids=REGISTERED
        )

        def submit(user):
            service.submit(ClaimSubmission(
                campaign_id="c", user_id=user, object_ids=("o0",), values=(1.0,)
            ))

        submit("bob")
        submit("u0")
        gappy = service.snapshot("c")  # "ann" never submitted
        assert type(gappy.contributor_ids) is SlotIds
        assert gappy.contributor_ids[:1] == ("bob",)
        assert gappy.contributor_ids[-1:] == ("u0",)
        assert gappy.contributor_ids[::-1] == ("u0", "bob")
        submit("ann")
        full = service.snapshot("c")
        assert type(full.contributor_ids) is tuple
        assert full.contributor_ids[:2] == ("ann", "bob")
        assert full.contributor_ids[-2::-1] == ("bob", "ann")
