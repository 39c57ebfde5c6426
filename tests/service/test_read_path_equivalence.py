"""A read takes one copy of each array it returns, and reads the same.

The read path builds a snapshot straight from the arrays ``folded()``
returns (the caller owns them), through ``TruthSnapshot``'s internal
constructor, and ``Shard.pump`` returns at once on an empty queue.
``copying_read_reference`` freezes the path that copied the weights
again and built every snapshot through the public constructor.  Two
services take the same operations, one on the library's path and one
on the frozen one, and after every read:

* the snapshots are equal by value (arrays bitwise), read-only, and a
  re-read returns the last snapshot object on both sides alike;
* no array of a snapshot shares memory with the estimator's state, and
  its weights share none with another snapshot's;
* ``snapshot_reads`` and ``snapshot_reads_unchanged`` agree;

and at the end, every snapshot still holds what it held when it was
read.  The mix covers scalar and columnar submissions, pumps, dirty and
clean reads, replica-style reads of the folded state, users that never
submit (inactive rows, ``SlotIds`` contributors), a small full-refit
campaign, ``load_state`` mid-stream, and a campaign whose ``folded()``
answers with read-only views of one bytes blob (as a reply off the
wire could).
"""

import contextlib
import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import copying_read_reference
from repro.crowdsensing.messages import ClaimSubmission
from repro.service.aggregator import StreamingAggregator
from repro.service.ingest import IngestService, ServiceConfig

OBJECTS = tuple(f"o{i}" for i in range(4))
REGISTERED = ("ann", "bob")  # slots 0 and 1 of "s"; may never submit
USERS = REGISTERED + tuple(f"u{i}" for i in range(3))
MAX_USERS = 6
#: Campaign -> (backend, pre-registered users, folded() through a blob).
CAMPAIGNS = {
    "s": ("streaming", REGISTERED, False),
    "b": ("streaming", None, True),
    "f": ("full", None, False),
}

campaigns = st.sampled_from(sorted(CAMPAIGNS))
values = st.floats(-100.0, 100.0, allow_nan=False, width=64)


class BlobFolded:
    """An aggregator whose ``folded()`` answers with read-only views of
    one bytes blob; everything else is the wrapped aggregator's."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def folded(self):
        truths, weights, seen = self._inner.folded()
        blob = truths.tobytes() + weights.tobytes() + seen.tobytes()
        n, s = truths.size, weights.size
        return (
            np.frombuffer(blob, np.float64, n),
            np.frombuffer(blob, np.float64, s, 8 * n),
            np.frombuffer(blob, np.bool_, n, 8 * (n + s)),
        )


@st.composite
def submissions(draw):
    n = draw(st.integers(1, 3))
    return ("submit", ClaimSubmission(
        campaign_id=draw(campaigns),
        user_id=draw(st.sampled_from(USERS)),
        object_ids=tuple(draw(st.lists(
            st.sampled_from(OBJECTS), min_size=n, max_size=n, unique=True,
        ))),
        values=tuple(draw(st.lists(values, min_size=n, max_size=n))),
    ))


@st.composite
def column_chunks(draw):
    n = draw(st.integers(1, 6))
    ints = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return (
        "columns", draw(campaigns), np.array(draw(ints)),
        np.array(draw(ints)),
        np.array(draw(st.lists(values, min_size=n, max_size=n))),
    )


operations = st.lists(
    st.one_of(
        submissions(),
        column_chunks(),
        st.tuples(st.sampled_from(["read", "reread", "replica", "capture", "load"]),
                  campaigns),
        st.tuples(st.sampled_from(["pump", "flush"])),
    ),
    max_size=30,
)


def build(method, max_batch, refine_every):
    service = IngestService(ServiceConfig(
        num_shards=2, max_batch=max_batch, refine_every=refine_every,
    ))
    for campaign_id, (backend, user_ids, blob) in CAMPAIGNS.items():
        service.register_campaign(
            campaign_id, OBJECTS, max_users=MAX_USERS, user_ids=user_ids,
            method=method, aggregator=backend,
        )
        if blob:
            state = service.campaign_state(campaign_id)
            state.aggregator = BlobFolded(state.aggregator)
    return service


def state_arrays(aggregator):
    """Every array the backend holds its state in."""
    inner = getattr(aggregator, "_inner", aggregator)
    if isinstance(inner, StreamingAggregator):
        stream = inner._stream
        return [stream._truths, stream._weights, stream._seen_objects,
                *stream._stat_arrays().values()]
    return [inner._truths, inner._weights, inner._seen]


def held(snap):
    """What a snapshot shows, copied out."""
    return (
        snap.truths.tobytes(), snap.seen_objects.tobytes(),
        snap.contributor_weights.tobytes(), tuple(snap.contributor_ids),
        snap.claims_ingested, snap.batches_ingested, snap.pending_claims,
    )


def check_read(ours, theirs, state, seen):
    assert ours == theirs
    for array in (ours.truths, ours.seen_objects, ours.contributor_weights):
        assert not array.flags.writeable
    for array in state_arrays(state.aggregator):
        for mine in (ours.truths, ours.seen_objects, ours.contributor_weights):
            assert not np.shares_memory(mine, array)
    for other, _ in seen:
        if other is not ours:
            assert not np.shares_memory(
                ours.contributor_weights, other.contributor_weights
            )


#: Every user of "s" submits, then a read: the weights are the whole
#: folded array (the tuple form), and a later chunk must leave them be.
ALL_FILLED = (
    [("submit", ClaimSubmission(campaign_id="s", user_id=u,
                                object_ids=("o0", "o1"), values=(1.0, 2.0)))
     for u in USERS]
    + [("read", "s"), ("columns", "s", np.array([0, 5]), np.array([1, 2]),
                       np.array([3.0, 4.0])),
       ("reread", "s"), ("read", "b"), ("read", "f")]
)
#: A mid-stream rewind between two reads of each campaign.
REWIND = [
    ("columns", "b", np.array([0, 1, 2]), np.array([0, 1, 2]),
     np.array([1.0, 2.0, 3.0])),
    ("capture", "b"), ("read", "b"),
    ("columns", "b", np.array([1, 2]), np.array([3, 0]), np.array([5.0, 6.0])),
    ("read", "b"), ("load", "b"), ("read", "b"), ("replica", "b"),
]


@pytest.mark.parametrize("method", ["crh", "gtm", "catd"])
@given(
    ops=operations,
    max_batch=st.sampled_from([1, 3, 64]),
    refine_every=st.sampled_from([4, 8192]),
)
@example(ops=ALL_FILLED, max_batch=3, refine_every=4)
@example(ops=REWIND, max_batch=64, refine_every=8192)
@settings(max_examples=60, deadline=None)
def test_reads_equal_the_copying_reads(method, ops, max_batch, refine_every):
    ours = build(method, max_batch, refine_every)
    with copying_read_reference.installed():
        theirs = build(method, max_batch, refine_every)
    seen = []  # (snapshot, what it held when read)
    captured = {}  # campaign -> (our state_dict, theirs)
    try:
        for op in ops:
            kind = op[0]
            if kind in ("read", "reread", "replica"):
                campaign_id = op[1]
                state = ours.campaign_state(campaign_id)
                for _ in range(2 if kind == "reread" else 1):
                    if kind == "replica":
                        mine = state.folded_snapshot()
                        with copying_read_reference.installed():
                            expected = theirs.campaign_state(
                                campaign_id
                            ).folded_snapshot()
                    else:
                        last = state.last_snapshot
                        mine = ours.snapshot(campaign_id)
                        with copying_read_reference.installed():
                            their_state = theirs.campaign_state(campaign_id)
                            their_last = their_state.last_snapshot
                            expected = theirs.snapshot(campaign_id)
                        assert (mine is last) == (expected is their_last)
                    check_read(mine, expected, state, seen)
                    seen.append((mine, held(mine)))
                assert ours.stats.snapshot_reads == theirs.stats.snapshot_reads
                assert (ours.stats.snapshot_reads_unchanged
                        == theirs.stats.snapshot_reads_unchanged)
                continue
            for service, frozen in ((ours, False), (theirs, True)):
                with (copying_read_reference.installed() if frozen
                      else contextlib.nullcontext()):
                    apply(service, op, captured, frozen)
        for snap, shown in seen:
            assert held(snap) == shown
    finally:
        ours.close()
        theirs.close()


def apply(service, op, captured, frozen):
    kind = op[0]
    if kind == "submit":
        service.submit(op[1])
    elif kind == "columns":
        service.submit_columns(*op[1:])
    elif kind == "pump":
        service.pump()
    elif kind == "flush":
        service.flush()
    elif kind == "capture":
        state = service.campaign_state(op[1])
        saved = captured.setdefault(op[1], [None, None])
        saved[frozen] = copy.deepcopy(state.aggregator.state_dict())
    else:  # load: rewind to the capture, as a checkpoint restore does
        saved = captured.get(op[1])
        if saved is not None:
            state = service.campaign_state(op[1])
            state.aggregator.load_state(copy.deepcopy(saved[frozen]))
