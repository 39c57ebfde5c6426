"""When reads happen changes a streaming campaign: today's contract.

A read of a :class:`~repro.service.aggregator.StreamingAggregator`
refreshes it.  The refresh folds the staged claims, applies the decay
steps that are due before the fold, and runs ``refine_sweeps`` sweeps
warm-started from the last truths.  Folding is a scatter-add in claim
order, so folding a batch in pieces changes no statistic.  What a read
can move is where a decay step lands among the claims, and the warm
start of every later refinement:

* the cell statistics depend on reads only through the claim positions
  at which decay steps land — at decay 1.0 not at all;
* truths and weights depend on reads at every decay.

A read that writes nothing back would make both a function of the
batch sequence alone; this module is what such a change must edit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.aggregator import StreamingAggregator
from repro.truthdiscovery.streaming import ClaimBatch

NUM_USERS, NUM_OBJECTS = 30, 12
REFINE_EVERY = 64
METHODS = ("crh", "gtm", "catd")


def make_batches(sizes, seed):
    """Claims of users with Exp-distributed error scales around fixed
    per-object truths."""
    rng = np.random.default_rng(seed)
    truths = rng.normal(0.0, 5.0, NUM_OBJECTS)
    scales = rng.exponential(1.0, NUM_USERS) + 0.1
    batches = []
    for size in sizes:
        users = rng.integers(0, NUM_USERS, size)
        objects = rng.integers(0, NUM_OBJECTS, size)
        values = truths[objects] + rng.normal(0.0, 1.0, size) * scales[users]
        batches.append(ClaimBatch(users=users, objects=objects, values=values))
    return batches


def run(method, decay, batches, reads):
    """Ingest ``batches``, reading after every batch whose ``reads`` flag
    is set, then read once more.  Returns the final truths, weights,
    stream snapshot, and where each decay step landed as
    ``(claims folded before it, steps)``."""
    agg = StreamingAggregator(
        NUM_USERS, NUM_OBJECTS, method=method, decay=decay,
        refine_every=REFINE_EVERY,
    )
    landed = []
    folded = 0
    fold = agg._stream.ingest

    def logged_fold(batch, *, decay_steps=1):
        nonlocal folded
        if decay_steps:
            landed.append((folded, decay_steps))
        folded += batch.size
        return fold(batch, decay_steps=decay_steps)

    agg._stream.ingest = logged_fold
    for batch, read in zip(batches, reads):
        agg.ingest(batch)
        if read:
            agg.truths()
    truths, weights = agg.truths().copy(), agg.weights().copy()
    state = agg.state_dict()
    assert state["claims_ingested"] == folded
    return truths, weights, state, landed


def statistics(state):
    """The cell statistics of a stream snapshot, as bytes by name."""
    stream = state["stream"]
    derived = {"truths", "weights", "seen_objects"}
    return {
        name: value.tobytes()
        for name, value in stream.items()
        if isinstance(value, np.ndarray) and name not in derived
    }


@st.composite
def sessions(draw):
    num_batches = draw(st.integers(1, 40))
    sizes = draw(
        st.lists(st.integers(1, 2 * REFINE_EVERY), min_size=num_batches,
                 max_size=num_batches)
    )
    reads = draw(
        st.lists(st.booleans(), min_size=num_batches, max_size=num_batches)
    )
    return sizes, reads, draw(st.integers(0, 2**16))


@pytest.mark.parametrize("decay", [1.0, 0.9])
@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=40, deadline=None)
@given(session=sessions())
def test_reads_move_statistics_only_by_moving_decay(method, decay, session):
    """Against the read-free run of the same batches: the claim and
    decay accounting is the same, and the statistics are bitwise equal
    exactly when every decay step landed at the same claim position —
    always, at decay 1.0."""
    sizes, reads, seed = session
    batches = make_batches(sizes, seed)
    _, _, free, free_landed = run(method, decay, batches, [False] * len(sizes))
    truths, weights, read, read_landed = run(method, decay, batches, reads)
    assert read["claims_since_decay"] == free["claims_since_decay"]
    assert sum(s for _, s in read_landed) == sum(s for _, s in free_landed)
    same = statistics(read) == statistics(free)
    assert same == (decay == 1.0 or read_landed == free_landed)
    assert np.isfinite(truths).all() and np.isfinite(weights).all()


@pytest.mark.parametrize("method", METHODS)
def test_a_read_every_third_batch(method):
    """Forty batches of 1-47 claims, a read after every third: at decay
    1.0 the statistics stay bitwise, while truths and weights move by
    warm-start drift; at decay 0.9 the statistics move too."""
    sizes = np.random.default_rng(7).integers(1, 48, 40).tolist()
    batches = make_batches(sizes, seed=7)
    reads = [i % 3 == 0 for i in range(40)]
    t0, w0, free, _ = run(method, 1.0, batches, [False] * 40)
    t1, w1, read, _ = run(method, 1.0, batches, reads)
    assert statistics(read) == statistics(free)
    assert not np.array_equal(t0, t1)
    assert not np.array_equal(w0, w1)
    assert np.max(np.abs(t1 - t0)) < 5e-3
    assert np.max(np.abs(w1 - w0)) < 2e-2 * np.max(np.abs(w0))

    _, _, free, _ = run(method, 0.9, batches, [False] * 40)
    _, _, read, _ = run(method, 0.9, batches, reads)
    assert statistics(read) != statistics(free)
