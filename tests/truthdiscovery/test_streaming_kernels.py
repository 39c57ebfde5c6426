"""The matrix-vector refinement kernels against the per-cell reference,
plus guards on what the rewrite promises that do not depend on timing:
no (S, N) temporary per ingest, and an exact, bounded quantile memo.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from per_cell_reference import PerCellReference
from repro.truthdiscovery import streaming
from repro.truthdiscovery.streaming import (
    ClaimBatch,
    StreamingCATD,
    StreamingCRH,
    StreamingGTM,
)

ESTIMATORS = {"crh": StreamingCRH, "gtm": StreamingGTM, "catd": StreamingCATD}
KINDS = sorted(ESTIMATORS)

#: One ingest with this many forgetting steps takes every retained cell
#: below the presence floor: 0.9**400 ~ 5e-19 of a claim, which neither
#: arithmetic resolves, so masking the residue (reference) and flushing
#: it (library) must agree.  Residue just under the floor is the
#: documented <= 1e-12 change in the statistics, which a re-claimed
#: cell of a user sitting on the truths can show at 1e-6 in a weight.
FADE_STEPS = 400


@st.composite
def streams(draw):
    """``(S, N, [(batch, decay_steps), ...])``.

    Cells repeat within and across batches (duplicates), users above 1
    and whole objects may never appear (silent users, unseen objects),
    and one batch may be preceded by ``FADE_STEPS`` forgetting steps, so
    later batches re-claim cells that faded below the floor.

    Conditioning, so that 1e-9 is a fair bar for two float orderings of
    one formula: values sit on a 1/8 grid in [-64, 64], and users 0 and
    1 bracket every object a batch touches with two distinct claims.
    Without the bracket a decayed column can hold one claim, where the
    per-cell code's own column variance is +-eps * v**2 rounding noise
    and its z-scores are noise over noise.  ``assert_agree`` discards
    the other ill-conditioned case.
    """
    num_users = draw(st.integers(min_value=2, max_value=7))
    num_objects = draw(st.integers(min_value=1, max_value=5))
    cell = st.tuples(
        st.integers(0, num_users - 1),
        st.integers(0, num_objects - 1),
        st.integers(-512, 512),
    )
    fade_at = draw(st.integers(min_value=1, max_value=4))
    batches = []
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        claims = draw(st.lists(cell, min_size=1, max_size=12))
        for obj in sorted({o for _, o, _ in claims}):
            low = draw(st.integers(-512, 504))
            claims += [(0, obj, low), (1, obj, low + draw(st.integers(1, 8)))]
        users, objects, eighths = zip(*claims)
        batches.append((
            ClaimBatch(
                users=np.array(users), objects=np.array(objects),
                values=np.array(eighths) / 8.0,
            ),
            FADE_STEPS if index == fade_at else draw(st.integers(0, 2)),
        ))
    return num_users, num_objects, batches


def resolvable(reference):
    """Whether the arithmetic can resolve :func:`assert_agree`'s
    tolerances on this stream.  A CRH/CATD user whose squared distance
    is above the distance floor yet under 1e-3 of their summed squares
    has a weight set by the last digits of a cancellation (in the
    per-cell code as much as here): at 1e-3 an expansion keeps ~1e-12
    of the distance, which a 128-wide value range turns into ~1e-10 on
    a truth."""
    return reference.conditioning > 1e-3


def assert_agree(stream, reference):
    """Truths to 1e-9, weights to 1e-6 relative (on
    :func:`resolvable` streams)."""
    np.testing.assert_allclose(
        stream.truths, reference.truths, rtol=0.0, atol=1e-9
    )
    np.testing.assert_allclose(
        stream.weights, reference.weights, rtol=1e-6, atol=0.0
    )


@pytest.mark.parametrize("decay", [1.0, 0.9])
@pytest.mark.parametrize("kind", KINDS)
@given(params=streams())
@settings(max_examples=60, deadline=None)
def test_sweeps_agree_with_per_cell_reference(kind, decay, params):
    num_users, num_objects, batches = params
    stream = ESTIMATORS[kind](num_users, num_objects, decay=decay)
    reference = PerCellReference(kind, num_users, num_objects, decay=decay)
    for batch, steps in batches:
        stream.ingest(batch, decay_steps=steps)
        reference.ingest(batch, decay_steps=steps)
        assume(resolvable(reference))
        assert_agree(stream, reference)


@pytest.mark.parametrize("kind", KINDS)
@given(params=streams())
@settings(max_examples=40, deadline=None)
def test_old_snapshot_with_sub_floor_residue_restores_and_continues(
    kind, params
):
    """A snapshot written before decay flushed faded cells carries
    statistics below the presence floor.  Restoring it settles them to
    exactly 0, serves the stored truths and weights unchanged, and the
    stream continues in step with the code that wrote it."""
    num_users, num_objects, batches = params
    reference = PerCellReference(kind, num_users, num_objects, decay=0.9)
    (first, _), rest = batches[0], batches[1:]
    reference.ingest(first)
    # Everything fades; only object 0's bracket is claimed again, so
    # any other cell of the first batch is left as sub-floor residue.
    reference.ingest(
        ClaimBatch(users=[0, 1], objects=[0, 0], values=[1.0, 2.0]),
        decay_steps=FADE_STEPS,
    )

    cls = ESTIMATORS[kind]
    old = cls(num_users, num_objects, decay=0.9).snapshot(arrays=True)
    old.update(batches=2, truths=reference.truths,
               weights=reference.raw_weights)
    moments = {"counts": reference.counts, "sums": reference.sums,
               "sumsq": reference.sumsq}
    if kind == "crh":
        moments = {"value_sum": reference.sums,
                   "value_weight": reference.counts}
    old.update(moments)
    stream = cls.from_snapshot(old)

    assert stream.truths.tobytes() == reference.truths.tobytes()
    assert stream.weights.tobytes() == reference.weights.tobytes()
    settled = stream.snapshot(arrays=True)
    for name, written in moments.items():
        kept = reference.counts > 1e-12
        assert settled[name][kept].tobytes() == written[kept].tobytes()
        assert not settled[name][~kept].any()
    for batch, steps in rest:
        stream.ingest(batch, decay_steps=min(steps, 2))
        reference.ingest(batch, decay_steps=min(steps, 2))
        assume(resolvable(reference))
        assert_agree(stream, reference)


def test_faded_cell_is_flushed_then_reclaimed():
    """The cell invariant end to end: a count at or below the floor
    becomes exactly 0 in every statistic, and a later claim on that
    cell starts it afresh."""
    for cls in ESTIMATORS.values():
        stream = cls(2, 2, decay=0.9)
        stream.ingest(ClaimBatch(users=[0, 1], objects=[0, 0],
                                 values=[5.0, 7.0]))
        stream.ingest(ClaimBatch(users=[1], objects=[1], values=[2.0]),
                      decay_steps=FADE_STEPS)
        for array in stream._stat_arrays().values():
            assert array[0, 0] == 0.0 and array[1, 0] == 0.0
        np.testing.assert_array_equal(stream.seen_objects, [True, True])
        stream.ingest(ClaimBatch(users=[0], objects=[0], values=[3.0]),
                      decay_steps=0)
        assert stream._counts[0, 0] == 1.0 and stream._sums[0, 0] == 3.0
        assert stream.truths[0] == pytest.approx(3.0, abs=1e-12)


def test_gtm_constant_and_single_claim_columns_score_zero():
    """Columns at the std floor (one claim, or identical claims) read
    as all-zero z-scores, as in the per-cell code — not as 1e24-scaled
    terms that would drown the user's other columns."""
    batch = ClaimBatch(
        users=[0, 1, 2, 0, 1, 2, 0],
        objects=[0, 0, 0, 1, 1, 1, 2],
        values=[1.0, 2.0, 4.5, 7.25, 7.25, 7.25, 1e3],
    )
    stream = StreamingGTM(3, 3, decay=1.0)
    reference = PerCellReference("gtm", 3, 3, decay=1.0)
    stream.ingest(batch)
    reference.ingest(batch)
    assert resolvable(reference)
    assert_agree(stream, reference)
    assert stream.truths[1] == 7.25 and stream.truths[2] == 1e3


# ----------------------------------------------------------------------
# Guards that do not depend on timing.

@pytest.mark.parametrize("decay", [1.0, 0.95])
@pytest.mark.parametrize("kind", KINDS)
def test_steady_state_ingest_allocates_less_than_one_cell_array(kind, decay):
    """The point of the rewrite: a sweep builds no (S, N) float64
    temporary.  Peak traced allocation over one steady-state ingest of
    an 8192-claim batch at 2000 x 64 stays below one such array (the
    per-cell code peaked at several)."""
    num_users, num_objects, size = 2000, 64, 8192
    rng = np.random.default_rng(5)
    stream = ESTIMATORS[kind](num_users, num_objects, decay=decay)

    def batch():
        objects = rng.integers(0, num_objects, size)
        return ClaimBatch(
            users=rng.integers(0, num_users, size), objects=objects,
            values=objects + rng.normal(0.0, 1.0, size),
        )

    for _ in range(3):
        stream.ingest(batch())
    measured = batch()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        stream.ingest(measured)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < num_users * num_objects * 8


class TestCATDQuantileMemo:
    def test_integer_dofs_are_bitwise_equal_to_scipy(self):
        stream = StreamingCATD(4, 2, significance=0.1)
        dof = np.array([1.0, 7.0, 600.0, 7.0, 2048.0, 3.0])
        direct = stats.chi2.ppf(0.05, df=dof)
        assert stream._quantiles(dof).tobytes() == direct.tobytes()
        # Served from the table the second time, still identical.
        held = stream._quantile_table.size
        assert stream._quantiles(dof[:4]).tobytes() == direct[:4].tobytes()
        assert stream._quantile_table.size == held

    def test_fractional_dofs_bypass_the_table(self):
        stream = StreamingCATD(4, 2)
        dof = np.array([1.0, 2.5, 40.0])
        assert (
            stream._quantiles(dof).tobytes()
            == stats.chi2.ppf(0.025, df=dof).tobytes()
        )
        assert stream._quantile_table.size == 0

    def test_table_is_capped(self):
        stream = StreamingCATD(4, 2)
        cap = streaming._QUANTILE_TABLE_CAP
        below = np.array([3.0, cap - 1.0])
        beyond = np.array([3.0, float(cap)])
        for dof in (beyond, below, beyond):
            assert (
                stream._quantiles(dof).tobytes()
                == stats.chi2.ppf(0.025, df=dof).tobytes()
            )
            assert stream._quantile_table.size <= cap
        assert stream._quantile_table.size == cap

    def test_restore_with_another_significance_drops_the_table(self):
        stream = StreamingCATD(3, 2, significance=0.05, decay=1.0)
        stream.ingest(ClaimBatch(users=[0, 1, 2], objects=[0, 0, 1],
                                 values=[1.0, 2.0, 3.0]))
        other = StreamingCATD(3, 2, significance=0.2, decay=1.0)
        other.restore(stream.snapshot())  # carries significance=0.05
        dof = np.array([2.0, 5.0])
        assert (
            other._quantiles(dof).tobytes()
            == stats.chi2.ppf(0.025, df=dof).tobytes()
        )


def test_weights_property_uses_refine_time_activity():
    """GTM/CATD ``weights`` normalise over the users active at the last
    refine (or restore) — the mask the per-read count re-summation used
    to rebuild."""
    for cls in (StreamingGTM, StreamingCATD):
        stream = cls(4, 2, decay=1.0)
        np.testing.assert_array_equal(stream.weights, np.ones(4))
        stream.ingest(ClaimBatch(users=[0, 2, 2], objects=[0, 0, 1],
                                 values=[1.0, 2.0, 3.0]))
        weights = stream.weights
        assert weights[1] == 1.0 and weights[3] == 1.0
        assert weights[[0, 2]].mean() == pytest.approx(1.0)
        restored = cls.from_snapshot(stream.snapshot())
        assert restored.weights.tobytes() == weights.tobytes()
