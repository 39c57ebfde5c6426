"""Admitted columns move by reference from ``submit_columns`` to the fold.

``submit_columns`` copies and checks a chunk once; the batcher emits
views of it (building only a batch that straddles two pieces) and the
refresh merge skips the second check.  None of that may show: batch
boundaries and contents, the log's bytes and every read's truths equal
the copying batcher and checked merge of ``copying_batcher_reference``
bit for bit, and every batch an aggregator receives would pass the
checked ``ClaimBatch`` constructor.  The library side also scribbles
over the caller's buffers after each accepted chunk: the copy taken at
admission is what must reach the log and the fold.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import copying_batcher_reference
from repro.crowdsensing.messages import ClaimSubmission
from repro.durable.manager import DurabilityConfig
from repro.durable.recovery import RecoveryManager
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.topology import Topology
from repro.truthdiscovery.streaming import ClaimBatch

CAMPAIGNS = ("alpha", "beta")  # one shard: they share its queue
NUM_USERS = 6
OBJECTS = tuple(f"o{i}" for i in range(5))


def chunk_sizes(cap):
    return st.sampled_from([0, 1, cap - 1, cap, cap + 1, 2 * cap + 3])


@st.composite
def plans(draw):
    cap = draw(st.sampled_from([2, 4, 5]))
    campaign = st.sampled_from(CAMPAIGNS)
    step = st.one_of(
        st.tuples(st.just("chunk"), campaign, chunk_sizes(cap)),
        st.tuples(st.just("chunk"), campaign, chunk_sizes(cap)),
        st.tuples(st.just("submit"), campaign, st.integers(1, cap + 1)),
        st.tuples(st.just("pump")),
        st.tuples(st.just("flush")),
        st.tuples(st.just("read"), campaign),
        st.tuples(st.just("checkpoint")),
    )
    return cap, draw(st.lists(step, max_size=20)), draw(st.integers(0, 2**32))


def build(cap, directory, batches, *, reference):
    service = IngestService(
        ServiceConfig(
            num_shards=1, max_batch=cap, refine_every=2 * cap + 1,
            full_refit_max_cells=0,
        ),
        topology=Topology.in_process(
            durability=DurabilityConfig(directory=directory, fsync="never")
        ),
    )
    for campaign_id in CAMPAIGNS:
        service.register_campaign(
            campaign_id, OBJECTS, max_users=NUM_USERS, method="crh"
        )
        state = service.campaign_state(campaign_id)
        if reference:
            copying_batcher_reference.install(state)
        aggregator = state.aggregator

        def spy(batch, ingest=aggregator.ingest, campaign_id=campaign_id):
            batches.append((campaign_id, batch))
            ingest(batch)

        aggregator.ingest = spy
    return service


def columns(rng, n):
    return (
        rng.integers(0, NUM_USERS, n),
        rng.integers(0, len(OBJECTS), n),
        rng.normal(size=n),
    )


def apply(service, op, rng, *, scribble):
    kind = op[0]
    if kind == "chunk":
        users, objects, values = columns(rng, op[2])
        result = service.submit_columns(op[1], users, objects, values)
        if scribble:
            users[:] = NUM_USERS + 7
            objects[:] = -1
            values[:] = np.nan
        return result
    if kind == "submit":
        _, objects, values = columns(rng, op[2])
        return service.submit(ClaimSubmission(
            campaign_id=op[1], user_id=f"u{rng.integers(0, 3)}",
            object_ids=tuple(OBJECTS[o] for o in objects),
            values=tuple(values.tolist()),
        ))
    if kind == "pump":
        return service.pump()
    if kind == "flush":
        return service.flush()
    if kind == "checkpoint":
        return service.durability.checkpoint().name
    snap = service.snapshot(op[1])
    return (
        snap.truths.tobytes(), snap.claims_ingested, snap.batches_ingested,
        snap.pending_claims,
    )


def as_bytes(batches):
    return [
        (campaign_id, batch.users.tobytes(), batch.objects.tobytes(),
         batch.values.tobytes())
        for campaign_id, batch in batches
    ]


def assert_would_pass_the_checked_constructor(batch):
    columns = (batch.users, batch.objects, batch.values)
    checked = ClaimBatch(*columns)  # raises on a broken batch
    for column, dtype, again in zip(
        columns, (np.int64, np.int64, np.float64),
        (checked.users, checked.objects, checked.values),
    ):
        assert column.dtype == dtype and column.ndim == 1
        assert column.tobytes() == again.tobytes()
    assert 0 <= batch.users.min() and batch.users.max() < NUM_USERS
    assert 0 <= batch.objects.min() and batch.objects.max() < len(OBJECTS)


def directory_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*")) if path.is_file()
    }


def truths(service):
    return [service.snapshot(c).truths.tobytes() for c in CAMPAIGNS]


@given(plan=plans())
@example(plan=(4, [("chunk", "alpha", 11), ("chunk", "alpha", 3),
                   ("chunk", "alpha", 5), ("checkpoint",), ("read", "alpha")],
               0))
@example(plan=(2, [("chunk", "beta", 1), ("submit", "beta", 2),
                   ("chunk", "beta", 7), ("pump",), ("chunk", "beta", 0),
                   ("flush",)], 1))
@settings(max_examples=100, deadline=None)
def test_views_equal_the_copying_batcher(plan):
    cap, ops, seed = plan
    with tempfile.TemporaryDirectory() as tmp:
        got, want = [], []
        service = build(cap, f"{tmp}/a", got, reference=False)
        reference = build(cap, f"{tmp}/b", want, reference=True)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            for op in ops + [("flush",)]:
                assert (
                    apply(service, op, rng_a, scribble=True)
                    == apply(reference, op, rng_b, scribble=False)
                ), op
                assert as_bytes(got) == as_bytes(want), op
            for _, batch in got:
                assert_would_pass_the_checked_constructor(batch)
            assert truths(service) == truths(reference)
        finally:
            service.close()
            reference.close()
        assert directory_bytes(f"{tmp}/a") == directory_bytes(f"{tmp}/b")


@pytest.mark.parametrize("reuse", [False, True])
def test_caller_may_reuse_its_buffers_after_an_accepted_chunk(tmp_path, reuse):
    """Writing to the caller's arrays after an accepted call changes
    nothing: not the pump, the read, the log or its recovery."""
    def run(directory, mutate):
        service = IngestService(
            ServiceConfig(num_shards=1, max_batch=4),
            topology=Topology.in_process(
                durability=DurabilityConfig(directory=directory, fsync="never")
            ),
        )
        service.register_campaign("c", ("o0", "o1", "o2"), max_users=5)
        users = np.array([0, 1, 2, 3, 4, 0])
        objects = np.array([0, 1, 2, 0, 1, 2])
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert service.submit_columns("c", users, objects, values).ok
        if mutate:
            objects[3] = 7
            users[0] = -1
            values[:] = np.inf
        service.pump()
        truths = service.snapshot("c").truths.tobytes()
        service.close()
        recovered = RecoveryManager(directory).recover().service
        try:
            return truths, recovered.snapshot("c").truths.tobytes()
        finally:
            recovered.close()

    clean = run(tmp_path / "clean", mutate=False)
    assert run(tmp_path / "reused", mutate=reuse) == clean
    assert directory_bytes(tmp_path / "reused") == directory_bytes(
        tmp_path / "clean"
    )
