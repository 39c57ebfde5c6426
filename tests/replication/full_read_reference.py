"""Reference for the replica read: one full reply per read.

Before replies were versioned, a standby answered every ``READ_REQ``
with the whole campaign: the object ids, the truths and seen mask, every
contributor id as one JSON list beside their weights, and the three
counters; the client decoded that into a ``TruthSnapshot``.  This module
freezes that manifest and that decode, over the read semantics replicas
keep — a read serves
:meth:`~repro.service.shard.CampaignState.folded_snapshot`, folding
nothing its log did not.  The versioned read must return what
:func:`full_read` returns at the same moment.
"""

import numpy as np

from repro.service.snapshot import TruthSnapshot
from repro.workers import protocol as proto


def full_reply(service, campaign_id: str) -> bytes:
    """The full ``READ_RESP`` body for one campaign of a replica
    ``service``; call it while nothing is being applied."""
    snapshot = service.campaign_state(campaign_id).folded_snapshot()
    return proto.pack_state(
        {
            "campaign_id": snapshot.campaign_id,
            "object_ids": list(snapshot.object_ids),
            "truths": snapshot.truths,
            "seen_objects": snapshot.seen_objects,
            "weight_users": list(snapshot.contributor_ids),
            "weight_values": snapshot.contributor_weights,
            "claims_ingested": snapshot.claims_ingested,
            "batches_ingested": snapshot.batches_ingested,
            "pending_claims": snapshot.pending_claims,
        }
    )


def decode(blob: bytes) -> TruthSnapshot:
    """The client's decode of a full reply."""
    state = proto.unpack_state(blob)
    return TruthSnapshot(
        campaign_id=state["campaign_id"],
        object_ids=tuple(state["object_ids"]),
        truths=np.asarray(state["truths"], dtype=float),
        seen_objects=np.asarray(state["seen_objects"], dtype=bool),
        contributor_ids=tuple(state["weight_users"]),
        contributor_weights=state["weight_values"],
        claims_ingested=int(state["claims_ingested"]),
        batches_ingested=int(state["batches_ingested"]),
        pending_claims=int(state["pending_claims"]),
    )


def full_read(service, campaign_id: str) -> TruthSnapshot:
    """What a full-reply read of ``campaign_id`` returns now."""
    return decode(full_reply(service, campaign_id))


def assert_same_read(got: TruthSnapshot, expected: TruthSnapshot) -> None:
    """Field-by-field equality, bitwise on the arrays and in key order
    on ``weights_by_user``."""
    assert got.campaign_id == expected.campaign_id
    assert got.object_ids == expected.object_ids
    assert got.truths.tobytes() == expected.truths.tobytes()
    assert got.seen_objects.tobytes() == expected.seen_objects.tobytes()
    assert list(got.contributor_ids) == list(expected.contributor_ids)
    assert (
        got.contributor_weights.tobytes()
        == expected.contributor_weights.tobytes()
    )
    assert list(got.weights_by_user.items()) == list(
        expected.weights_by_user.items()
    )
    assert got.claims_ingested == expected.claims_ingested
    assert got.batches_ingested == expected.batches_ingested
    assert got.pending_claims == expected.pending_claims
