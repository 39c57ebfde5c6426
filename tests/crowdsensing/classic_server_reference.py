"""Frozen reference: the in-memory aggregation the server once ran.

Before every campaign ran on an ingestion service, ``AggregationServer``
filed each campaign's submissions in a list and, at finalise, kept the
last submission per user, assembled them with
:meth:`ClaimMatrix.from_submissions` and fitted the campaign's method
once.  This module keeps that finalise, unchanged, as the oracle the
served path is checked against.  Do not "fix" it: it raises
``ValueError`` where an object received no claims, as it always did.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.crowdsensing.campaign import CampaignSpec
from repro.crowdsensing.messages import ClaimSubmission
from repro.truthdiscovery.claims import ClaimMatrix
from repro.truthdiscovery.registry import create_method


def classic_finalise(
    spec: CampaignSpec, submissions: Iterable[ClaimSubmission]
) -> tuple[Optional[np.ndarray], Optional[np.ndarray], tuple, int]:
    """``(truths, weights, contributors, submissions_received)`` of one
    campaign, from its accepted submissions in arrival order."""
    # Deduplicate by user (keep the last submission, e.g. a retry).
    latest: dict[str, ClaimSubmission] = {}
    for sub in submissions:
        latest[sub.user_id] = sub
    contributors = tuple(sorted(latest))
    num_received = len(latest)

    truths = weights = None
    if num_received >= spec.min_contributors:
        claims = ClaimMatrix.from_submissions(
            (latest[user] for user in contributors),
            user_ids=contributors,
            object_ids=spec.object_ids,
        )
        method = create_method(spec.method)
        result = method.fit(claims)
        truths = result.truths
        weights = result.weights
    return truths, weights, contributors, num_received
