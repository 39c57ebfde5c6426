"""Frozen uncached ``CampaignState.snapshot()``.

This is how ``repro.service.shard`` built every read before a campaign
kept its last snapshot: the aggregator's truths, weights and seen mask
read afresh, the contributor ids sliced off the user table (or viewed
through ``SlotIds``) and the weights copied, on every call.  It exists
only as the reference the read-cache tests compare against; do not
"modernise" it.
"""

import numpy as np

from repro.service.snapshot import SlotIds, TruthSnapshot


def snapshot(state) -> TruthSnapshot:
    """What ``state.snapshot()`` returned, built from scratch."""
    aggregator = state.aggregator
    weights = aggregator.weights()
    truths = aggregator.truths()
    seen = aggregator.seen_objects()
    table = state.user_table
    filled = len(table)
    counts = state.claims_by_slot[:filled]
    if np.count_nonzero(counts) == filled:
        ids = tuple(table[:filled])
        weights = weights[:filled].copy()
    else:
        slots = np.flatnonzero(counts)
        ids = SlotIds(table, slots)
        weights = weights[slots]
    return TruthSnapshot(
        campaign_id=state.campaign_id,
        object_ids=state.object_ids,
        truths=truths,
        seen_objects=seen,
        contributor_ids=ids,
        contributor_weights=weights,
        claims_ingested=aggregator.claims_ingested,
        batches_ingested=aggregator.batches_ingested,
        pending_claims=state.batcher.pending,
    )
