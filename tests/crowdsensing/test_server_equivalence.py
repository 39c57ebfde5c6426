"""The served aggregation server against the classic in-memory fit.

``AggregationServer`` runs every campaign on an ``IngestService``.  At
or below the service's full-refit switch (``full_refit_max_cells``
cells) that is the same batch fit, on the same claims, as the frozen
``classic_server_reference``: reports must match it bit for bit — where
the reference raised for an object nobody claimed, the served report
must be a failed one.  Above the switch CRH/GTM/CATD stream, and the
pinned 120 x 40 rounds bound how far the streaming fold lands from the
batch fit."""

from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classic_server_reference import classic_finalise
from repro.crowdsensing import CampaignSpec, ClaimSubmission, InProcessTransport
from repro.crowdsensing.server import AggregationServer
from repro.service import ServiceConfig

METHODS = ["crh", "gtm", "catd", "mean", "median"]
SWITCH = ServiceConfig().full_refit_max_cells

#: Streaming vs. batch fit on the pinned 120 x 40 rounds: the largest
#: truth difference, and the largest weight difference relative to the
#: largest batch weight (measured 1.8e-3 / 7.7e-3 for CRH, 2.5e-2 /
#: 7.1e-3 for GTM, 2.9e-2 / 7.9e-3 for CATD).
STREAMING_TOLERANCE = {
    "crh": (2.5e-3, 1e-2),
    "gtm": (3e-2, 1e-2),
    "catd": (4e-2, 1e-2),
}


@dataclass(frozen=True)
class Round:
    """One campaign round: who is announced (in announce order), and
    the submissions that reach the server, in arrival order."""

    spec: CampaignSpec
    user_ids: tuple
    messages: tuple


values = st.floats(-100.0, 100.0, allow_nan=False, width=64)


@st.composite
def rounds(draw):
    num_users = draw(st.integers(1, 40))
    object_ids = tuple(f"o{j}" for j in range(draw(st.integers(1, 12))))
    user_ids = tuple(f"u{i}" for i in range(num_users))  # not id order
    messages = []
    for user in user_ids:
        # Sparse observations: a user that observed nothing stays silent.
        observed = draw(st.lists(
            st.sampled_from(object_ids), unique=True, max_size=len(object_ids)
        ))
        if not observed or draw(st.integers(0, 4)) == 0:
            continue  # silent, or the submission was dropped on the way
        # A retry covers every object of the first attempt.
        for _ in range(draw(st.integers(1, 3))):
            messages.append(ClaimSubmission(
                "round", user, tuple(observed), tuple(draw(st.lists(
                    values, min_size=len(observed), max_size=len(observed)
                ))),
            ))
    spec = CampaignSpec(
        campaign_id="round",
        object_ids=object_ids,
        lambda2=1.0,
        min_contributors=draw(st.integers(1, num_users + 1)),
        method=draw(st.sampled_from(METHODS)),
    )
    return Round(spec, user_ids, tuple(draw(st.permutations(messages))))


def pinned_large_round(method: str) -> Round:
    """120 users x 40 objects, every user claims every object once."""
    rng = np.random.default_rng(0)
    truths = rng.uniform(15.0, 30.0, 40)
    noise = rng.uniform(0.5, 3.0, 120)
    object_ids = tuple(f"o{j}" for j in range(40))
    user_ids = tuple(f"u{i}" for i in range(120))
    messages = tuple(
        ClaimSubmission("round", user, object_ids, tuple(
            float(v) for v in truths + rng.normal(0.0, noise[i], 40)
        ))
        for i, user in enumerate(user_ids)
    )
    spec = CampaignSpec(
        campaign_id="round", object_ids=object_ids, lambda2=1.0,
        method=method,
    )
    return Round(spec, user_ids, messages)


def served(round_: Round):
    """Run the round through the server; returns (collect counts, report)."""
    transport = InProcessTransport(random_state=0)
    server = AggregationServer(transport)
    server.announce_campaign(round_.spec, list(round_.user_ids))
    for message in round_.messages:
        transport.send(message.user_id, server.node_id, message)
        # Drain per message: arrival order is the order drawn.
        transport.drain_until_idle()
    counts = server.collect()
    report = server.finalise(
        round_.spec, assignments_sent=len(round_.user_ids), announce=False
    )
    return counts, report


@settings(max_examples=100, deadline=None)
@given(rounds())
@example(pinned_large_round("crh"))
@example(pinned_large_round("gtm"))
@example(pinned_large_round("catd"))
def test_served_round_matches_the_classic_fit(round_):
    spec = round_.spec
    counts, report = served(round_)
    assert counts == ({"round": len(round_.messages)} if round_.messages else {})
    try:
        truths, weights, contributors, received = classic_finalise(
            spec, round_.messages
        )
    except ValueError as exc:
        assert "at least one observation" in str(exc)
        assert not report.succeeded  # never a placeholder truth
        assert report.contributors == tuple(
            sorted({m.user_id for m in round_.messages})
        )
        return
    assert report.contributors == contributors
    assert report.submissions_received == received
    assert report.succeeded == (truths is not None)
    if truths is None:
        assert report.weights is None
        return
    if len(round_.user_ids) * len(spec.object_ids) <= SWITCH:
        assert report.truths.tobytes() == truths.tobytes()
        assert report.weights.tobytes() == weights.tobytes()
        return
    truth_tol, weight_tol = STREAMING_TOLERANCE[spec.method]
    assert np.abs(report.truths - truths).max() <= truth_tol
    assert np.abs(report.weights - weights).max() <= weight_tol * weights.max()

