"""``TruthSnapshot`` carries its contributors as two columns and builds
``weights_by_user`` on first access.  That mapping must be what the
eager per-read dict was (``eager_contributors_reference``): same users,
same order, same floats — as of the moment the snapshot was taken, and
without the snapshot itself touching the user table once per user."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_contributors_reference import contributors as reference
from repro.crowdsensing.messages import ClaimSubmission
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.snapshot import SlotIds, TruthSnapshot

METHODS = ["crh", "gtm", "catd"]
OBJECTS = tuple(f"o{i}" for i in range(4))
REGISTERED = ("ann", "bob", "cy")  # named up front; may never submit
USERS = REGISTERED + tuple(f"u{i}" for i in range(5))
MAX_USERS = 7  # one fewer than USERS: the table fills up

values = st.floats(-100.0, 100.0, allow_nan=False, width=64)


@st.composite
def submissions(draw):
    n = draw(st.integers(1, 6))
    return ("submit", ClaimSubmission(
        campaign_id="c",
        user_id=draw(st.sampled_from(USERS)),
        object_ids=tuple(draw(st.lists(
            st.sampled_from(OBJECTS), min_size=n, max_size=n
        ))),
        values=tuple(draw(st.lists(values, min_size=n, max_size=n))),
    ))


@st.composite
def column_chunks(draw):
    n = draw(st.integers(1, 12))
    return (
        "columns",
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
        st.just(("pump",)),
        st.just(("check",)),
        st.integers(0, MAX_USERS - 1).map(lambda top: ("placeholders", top)),
    ),
    max_size=40,
)


def build(method="crh", user_ids=REGISTERED, **config):
    service = IngestService(ServiceConfig(num_shards=1, **config))
    service.register_campaign(
        "c", OBJECTS, max_users=MAX_USERS, user_ids=user_ids, method=method
    )
    return service, service.campaign_state("c")


def check(service, state):
    snap = service.snapshot("c")
    expected = reference(state)
    assert snap.weights_by_user == expected
    assert list(snap.weights_by_user) == list(expected)
    assert snap.num_contributors == len(expected)
    assert list(snap.contributor_ids) == list(expected)
    assert snap.contributor_weights.tolist() == list(expected.values())
    assert all(type(w) is float for w in snap.weights_by_user.values())


def submit(service, user, value=1.0):
    return service.submit(ClaimSubmission(
        campaign_id="c", user_id=user, object_ids=("o0",), values=(value,)
    ))


@pytest.mark.parametrize("method", METHODS)
@given(
    ops=operations,
    max_batch=st.sampled_from([1, 5, 64]),
    user_ids=st.sampled_from([REGISTERED, None]),
)
@settings(max_examples=60, deadline=None)
def test_weights_by_user_equals_the_eager_dict(
    method, ops, max_batch, user_ids
):
    # Three queue slots between pumps: later submissions are refused,
    # and a refused submission takes no user slot.
    service, state = build(
        method, user_ids, max_batch=max_batch, queue_capacity=3
    )
    for op in ops:
        if op[0] == "submit":
            service.submit(op[1])
        elif op[0] == "columns":
            service.submit_columns("c", *op[1:])
        elif op[0] == "pump":
            service.pump()
        elif op[0] == "placeholders":
            state.ensure_placeholder_slots(op[1])
        else:
            check(service, state)
    check(service, state)


@pytest.mark.parametrize("user_ids", [REGISTERED, None])
def test_a_snapshot_is_fixed_when_taken(user_ids):
    """Pre-registered (a view over the table) and all-active (a slice)."""
    service, state = build(user_ids=user_ids)
    for i, user in enumerate(("u0", "bob", "u1")):
        assert submit(service, user, float(i)).ok
    snap = service.snapshot("c")
    expected = reference(state)
    assert len(expected) == 3

    # The campaign moves on before anyone looks at the weights: more
    # claims from old and new users, placeholder slots, and the table
    # object itself replaced (what recovery does).
    for i, user in enumerate(("u1", "cy", "u2", "u1")):
        assert submit(service, user, 50.0 + i).ok
    service.submit_columns(
        "c", np.array([MAX_USERS - 1]), np.array([0]), np.array([-7.0])
    )
    assert service.snapshot("c").weights_by_user != expected
    state.user_table = ["other"] * len(state.user_table)

    assert snap.weights_by_user == expected
    assert list(snap.weights_by_user) == list(expected)
    assert snap.weights_by_user is snap.weights_by_user
    for array in (snap.contributor_weights, snap.truths, snap.seen_objects):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


class CountingTable(list):
    """A user table that counts its by-position lookups."""

    lookups = 0

    def __getitem__(self, index):
        if not isinstance(index, slice):
            self.lookups += 1
        return super().__getitem__(index)


@pytest.mark.parametrize(
    "user_ids, submitters, lookups",
    [(REGISTERED, ("cy", "u0", "u1"), 3), (None, ("u0", "u1", "u2"), 0)],
    ids=["some-slots-silent", "every-slot-active"],
)
def test_a_read_does_no_per_user_work_until_asked(
    user_ids, submitters, lookups
):
    service, state = build(user_ids=user_ids)
    for user in submitters:
        assert submit(service, user).ok
    service.pump()
    table = state.user_table = CountingTable(state.user_table)

    snap = service.snapshot("c")
    assert snap.num_contributors == len(submitters)
    assert table.lookups == 0
    assert list(snap.weights_by_user) == list(submitters)  # slot order
    assert table.lookups == lookups
    assert snap.weights_by_user == reference(state)
    assert table.lookups == lookups + len(submitters)  # the reference's own


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="contributor_weights"):
        TruthSnapshot(
            campaign_id="c", object_ids=("o0",), truths=np.zeros(1),
            seen_objects=np.ones(1, dtype=bool),
            contributor_ids=("ann", "bob"), contributor_weights=np.ones(3),
        )


@pytest.mark.parametrize("field, value, match", [
    ("contributor_weights", np.ones(3), "contributor_weights"),
    ("truths", np.zeros(2), "truths"),
    ("seen_objects", np.ones(2, dtype=bool), "seen_objects"),
    ("truths", np.zeros(1, dtype=np.float32), "float64"),
    ("seen_objects", np.ones(1), "bool"),
])
def test_the_read_paths_constructor_refuses_what_it_cannot_keep(
    field, value, match
):
    # The service's own constructor converts nothing: a dtype the public
    # one would convert is refused, and every shape check is the same.
    fields = dict(
        campaign_id="c", object_ids=("o0",), truths=np.zeros(1),
        seen_objects=np.ones(1, dtype=bool), contributor_ids=("ann", "bob"),
        contributor_weights=np.ones(2), claims_ingested=0,
        batches_ingested=0, pending_claims=0,
    )
    snap = TruthSnapshot._owned(**fields)
    assert snap == TruthSnapshot(**fields)
    assert not snap.contributor_weights.flags.writeable
    fields[field] = value
    with pytest.raises(ValueError, match=match):
        TruthSnapshot._owned(**fields)


def test_slot_ids_reads_only_the_slots_it_was_given():
    table = ["a", "b", "c", "d"]
    ids = SlotIds(table, np.array([0, 2]))
    table.append("e")
    assert (len(ids), list(ids), ids[1], "c" in ids) == (2, ["a", "c"], "c", True)
