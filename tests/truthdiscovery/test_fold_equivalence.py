"""Both folds and both sweep forms give the same bits.

The library folds a batch densely once it covers a large share of the
cells, and drops the sweeps' masks while every user is active and every
object present.  Neither may change a bit of the stream's state: the
primary, a shard host, a standby's apply and recovery's replay see the
same claims cut into different batches, and their bitwise invariants
hold only if the state does not depend on the fold or the sweep form.
``masked_sweep_reference`` freezes the sparse fold and masked sweeps;
here every ``snapshot(arrays=True)`` entry of CRH, GTM and CATD must
equal it as bytes after every ingest.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from masked_sweep_reference import MASKED
from repro.truthdiscovery import streaming
from repro.truthdiscovery.streaming import STREAMING_ESTIMATORS, ClaimBatch

KINDS = sorted(MASKED)
#: Users x objects of the shapes the examples use: 30 cells, so the
#: dense fold starts at ``CROSSOVER`` claims.
USERS, OBJECTS = 6, 5
CROSSOVER = -(-USERS * OBJECTS // streaming._DENSE_FOLD_CELLS)
#: A whole-cache refill block of 4 rows here: the refill crosses two
#: blocks, the last of them partial (4 + 2 of the 6 rows).
FILL_BLOCK_CELLS = 4 * OBJECTS


def assert_same_bits(stream, reference):
    ours = stream.snapshot(arrays=True)
    theirs = reference.snapshot(arrays=True)
    assert ours.keys() == theirs.keys()
    for name, value in ours.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == theirs[name].dtype, name
            assert value.tobytes() == theirs[name].tobytes(), name
        else:
            assert value == theirs[name], name
    assert stream.truths.tobytes() == reference.truths.tobytes()
    assert stream.weights.tobytes() == reference.weights.tobytes()


def run_plan(kind, decay, plan):
    """Feed ``plan`` to the library and the reference, comparing after
    every step.  A step is ``(users, objects, values, decay_steps)`` or
    ``"restore"`` (each side restores its own snapshot, the library
    into a fresh stream every other time)."""
    stream = STREAMING_ESTIMATORS[kind](USERS, OBJECTS, decay=decay)
    reference = MASKED[kind](USERS, OBJECTS, decay=decay)
    for index, step in enumerate(plan):
        if step == "restore":
            if index % 2:
                stream = type(stream).from_snapshot(stream.snapshot())
            else:
                stream.restore(stream.snapshot(arrays=True))
            reference.restore(reference.snapshot(arrays=True))
        else:
            users, objects, values, decay_steps = step
            batch = ClaimBatch(users=users, objects=objects, values=values)
            stream.ingest(batch, decay_steps=decay_steps)
            reference.ingest(batch, decay_steps=decay_steps)
        assert_same_bits(stream, reference)


@st.composite
def plans(draw):
    """Batches on both sides of the crossover (a few claims, the
    crossover +-1, up to twice the cells, so cells repeat), drawn from a
    subset of users and objects (inactive users, unclaimed objects),
    with 0-3 decay steps each and restores in between."""
    cells = USERS * OBJECTS
    plan = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            plan.append("restore")
        size = draw(st.one_of(
            st.integers(1, 4),
            st.integers(CROSSOVER - 1, CROSSOVER + 1),
            st.integers(1, 2 * cells),
        ))
        users = draw(st.integers(1, USERS))
        objects = draw(st.integers(1, OBJECTS))
        plan.append((
            np.array(draw(st.lists(
                st.integers(0, users - 1), min_size=size, max_size=size
            ))),
            np.array(draw(st.lists(
                st.integers(0, objects - 1), min_size=size, max_size=size
            ))),
            np.array(draw(st.lists(
                st.floats(-1e3, 1e3, allow_nan=False), min_size=size,
                max_size=size,
            ))),
            draw(st.integers(0, 3)),
        ))
    return plan


def every_cell(times, decay_steps, seed):
    """One batch claiming every cell ``times`` times."""
    rng = np.random.default_rng(seed)
    users, objects = np.divmod(np.arange(USERS * OBJECTS * times), OBJECTS)
    return (users % USERS, objects, rng.normal(3.0, 2.0, users.size),
            decay_steps)


def around_the_crossover(offset, seed):
    """A whole first batch, then one of ``CROSSOVER + offset`` claims
    on users 0-3 (users 4 and 5 fall silent under decay) and objects
    0-3, after a decay step."""
    rng = np.random.default_rng(seed)
    size = CROSSOVER + offset
    return [
        every_cell(1, 0, seed),
        (rng.integers(0, 4, size), rng.integers(0, 4, size),
         rng.normal(size=size), 1),
    ]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(decay=st.sampled_from([1.0, 0.8, 0.5]), plan=plans())
@example(decay=1.0, plan=around_the_crossover(-1, 1))
@example(decay=1.0, plan=around_the_crossover(0, 2))
@example(decay=1.0, plan=around_the_crossover(+1, 3))
@example(decay=0.8, plan=around_the_crossover(-1, 4))
@example(decay=0.8, plan=around_the_crossover(+1, 5))
# Decayed (fractional) counts, then every cell claimed twice in one
# dense batch: adding 1 twice and adding 2 differ at 0.8**9.
@example(decay=0.8, plan=[every_cell(1, 0, 6), every_cell(2, 9, 7)])
@example(decay=0.8, plan=[every_cell(1, 0, 8), "restore",
                          every_cell(2, 9, 9), "restore",
                          every_cell(3, 1, 10)])
def test_state_is_bitwise_the_sparse_fold_and_masked_sweeps(kind, decay, plan):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streaming, "_FILL_BLOCK_CELLS", FILL_BLOCK_CELLS)
        run_plan(kind, decay, plan)
