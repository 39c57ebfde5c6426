"""Frozen eager ``CampaignState.contributors()``.

This is how ``repro.service.shard`` named a campaign's contributors
before ``TruthSnapshot`` carried them as columns: one ``dict`` entry per
user with an accepted claim, built on every read, in slot order, each
weight a Python ``float``.  It exists only as the reference the
snapshot tests compare ``TruthSnapshot.weights_by_user`` against; do
not "modernise" it.
"""

import numpy as np


def contributors(state) -> dict:
    """What ``state.contributors()`` returned."""
    weights = state.aggregator.weights()
    table = state.user_table
    slots = np.flatnonzero(state.claims_by_slot[: len(table)] > 0)
    return dict(
        zip(map(table.__getitem__, slots.tolist()), weights[slots].tolist())
    )
