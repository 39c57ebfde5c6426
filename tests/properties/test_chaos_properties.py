"""Property: a :class:`FaultPlan` schedule is a pure function of the seed.

The chaos layer's replayability contract has two halves:

* **determinism** — two plans built from the same seed and fed the
  same fault-point trace produce byte-identical schedules (every
  query answers the same, every fired fault carries the same index,
  action, and delay);
* **per-point independence** — the schedule *at one point* depends
  only on how many times that point has been queried, never on how
  the queries interleave with other points.  Adding a WAL fault hook
  cannot shift a network fault's schedule, and a multi-threaded drill
  replays identically however the threads raced.

``benchmarks/chaos_drill.py`` records only the seed; these properties are what
make that a complete description of the run's injected faults.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.plan import FAULT_POINTS, FaultPlan

POINTS = sorted(FAULT_POINTS)

#: Aggressive rates so schedules actually contain fires (the default
#: rates keep wal.* silent, which would vacuously pass everything).
RATES = {point: 0.5 for point in POINTS}

trace_strategy = st.lists(
    st.sampled_from(POINTS), min_size=1, max_size=200
)


def run_trace(seed, trace, **kwargs):
    """Feed a trace to a fresh plan; the full list of answers."""
    plan = FaultPlan(seed, rates=RATES, **kwargs)
    return [plan.fire(point) for point in trace]


def per_point_schedule(trace, answers):
    """Group (query-ordinal, answer) pairs by fault point."""
    schedule = {point: [] for point in POINTS}
    for point, answer in zip(trace, answers):
        schedule[point].append(answer)
    return schedule


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), data=st.data())
def test_same_seed_same_trace_identical_schedule(seed, data):
    trace = data.draw(trace_strategy)
    assert run_trace(seed, trace) == run_trace(seed, trace)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), data=st.data())
def test_interleaving_cannot_shift_a_points_schedule(seed, data):
    """Any permutation of the trace gives every point the same answers.

    This is the stronger contract: the nth query at a point is the
    same fault (or the same "no") no matter what happened at *other*
    points in between — the exact situation of racing WAL, link, and
    pump threads in a live drill.
    """
    trace = data.draw(trace_strategy)
    shuffled = data.draw(st.permutations(trace))
    original = per_point_schedule(trace, run_trace(seed, trace))
    reordered = per_point_schedule(
        shuffled, run_trace(seed, shuffled)
    )
    assert original == reordered


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), data=st.data())
def test_unqueried_points_are_invisible(seed, data):
    """Dropping every query at some points leaves the rest untouched.

    Equivalent to removing a hook site from the stack entirely — the
    surviving points must replay the exact same schedule.
    """
    trace = data.draw(trace_strategy)
    dropped = data.draw(
        st.sets(st.sampled_from(POINTS), max_size=len(POINTS) - 1)
    )
    filtered = [point for point in trace if point not in dropped]
    full = per_point_schedule(trace, run_trace(seed, trace))
    partial = per_point_schedule(
        filtered, run_trace(seed, filtered)
    )
    for point in POINTS:
        if point not in dropped:
            assert full[point] == partial[point]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    other=st.integers(min_value=0, max_value=2**31),
)
def test_distinct_seeds_usually_disagree(seed, other):
    """Different seeds are allowed to collide per-query but the plan
    must not ignore the seed wholesale: the RNG streams themselves
    must differ (sanity check that derive_seed sees the seed)."""
    if seed == other:
        return
    trace = POINTS * 40
    answers_a = run_trace(seed, trace, max_per_point=None)
    answers_b = run_trace(other, trace, max_per_point=None)
    # 320 Bernoulli(0.5) draws agreeing entirely means the streams
    # are identical — astronomically unlikely for honest seeding.
    assert answers_a != answers_b
