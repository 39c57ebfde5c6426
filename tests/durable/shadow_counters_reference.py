"""The frozen reference for the claim counters a checkpoint stores.

``DurabilityManager`` once kept *shadow counters* per campaign: claims
and per-slot claim counts advanced once per logged batch, created
zeroed at each logged registration and dropped at each logged removal;
checkpoints stored those.  A checkpoint now derives the same numbers
from the live ``CampaignState`` (live counters minus what the
micro-batcher still buffers).  :func:`install` re-creates the old
per-logged-batch counting beside a manager by wrapping its logging
hooks, so a test can compare every checkpoint against it.
"""

import numpy as np


def install(manager, service=None) -> dict:
    """Count beside ``manager``; returns ``{campaign_id: [claims,
    by_slot]}``, kept current as the manager logs.

    ``service``, when given, seeds the counters from its campaigns'
    live state, as a resumed or promoted manager once was (its
    micro-batchers are empty after replay).
    """
    shadow = {}
    if service is not None:
        for campaign_id in service.campaign_ids:
            state = service.campaign_state(campaign_id)
            shadow[campaign_id] = [
                state.claims_accepted,
                state.claims_by_slot.copy(),
            ]
    log_register = manager.log_register
    log_unregister = manager.log_unregister
    log_batch = manager.log_batch

    def register(spec):
        lsn = log_register(spec)
        shadow[spec["campaign_id"]] = [
            0,
            np.zeros(int(spec["max_users"]), dtype=np.int64),
        ]
        return lsn

    def unregister(campaign_id):
        lsn = log_unregister(campaign_id)
        shadow.pop(campaign_id, None)
        return lsn

    def batch(state, claims):
        lsn = log_batch(state, claims)
        counters = shadow.get(state.campaign_id)
        if counters is not None:
            counters[0] += claims.size
            counters[1] += np.bincount(
                claims.users, minlength=counters[1].size
            )
        return lsn

    manager.log_register = register
    manager.log_unregister = unregister
    manager.log_batch = batch
    return shadow
