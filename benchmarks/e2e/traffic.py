"""Traffic synthesis: every input the benchmark feeds the program.

All traffic comes from ``repro.service.LoadGenerator`` with
``lambda2=1.0`` (Algorithm 2's exponential-variance noise) seeded from
``--seed``, and is fully materialised before any clock starts.  Each
workload draws from a pool that the drive loop cycles, so a longer run
costs no more memory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.service import LoadGenerator

LAMBDA2 = 1.0


def _generator(campaign_id: str, seed: int, index: int, *, users: int, objects: int, per: int = 8):
    return LoadGenerator(
        campaign_id,
        num_users=users,
        num_objects=objects,
        claims_per_submission=per,
        lambda2=LAMBDA2,
        # One independent stream per campaign of one seed.
        random_state=np.random.SeedSequence([seed, index]),
    )


def _interleave(per_campaign: list[list]) -> list:
    """Round-robin merge, so consecutive items hit different campaigns."""
    return [item for group in zip(*per_campaign) for item in group]


@dataclass
class Traffic:
    """One workload's materialised input pool."""

    generators: list
    #: ``ClaimSubmission`` objects (device shape) or ``ColumnChunk``s.
    pool: list
    sha256: str

    @property
    def campaign_ids(self) -> list[str]:
        return [g.campaign_id for g in self.generators]

    def ground_truth(self) -> dict[str, np.ndarray]:
        return {g.campaign_id: g.truths for g in self.generators}


def device_traffic(seed: int, *, prefix: str, campaigns: int, users: int, objects: int,
                   pool_per_campaign: int) -> Traffic:
    """Protocol submissions of 8 claims, interleaved over campaigns."""
    gens = [
        _generator(f"{prefix}-c{i}", seed, i, users=users, objects=objects)
        for i in range(campaigns)
    ]
    pool = _interleave([g.submissions(pool_per_campaign) for g in gens])
    digest = hashlib.sha256()
    digest.update("\n".join(s.campaign_id + s.user_id for s in pool).encode())
    digest.update("\n".join(",".join(s.object_ids) for s in pool).encode())
    digest.update(np.asarray([s.values for s in pool], dtype=float).tobytes())
    return Traffic(gens, pool, digest.hexdigest())


def bulk_traffic(seed: int, *, campaign_ids: list[str], users: int, objects: int,
                 pool_claims: int, chunk_size: int = 2048) -> Traffic:
    """Pre-resolved columnar chunks, interleaved over campaigns."""
    gens = [
        _generator(cid, seed, i, users=users, objects=objects)
        for i, cid in enumerate(campaign_ids)
    ]
    per_campaign = pool_claims // len(gens) // chunk_size * chunk_size
    pool = _interleave(
        [list(g.column_chunks(per_campaign, chunk_size=chunk_size)) for g in gens]
    )
    digest = hashlib.sha256()
    for chunk in pool:
        digest.update(chunk.campaign_id.encode())
        digest.update(chunk.user_slots.tobytes())
        digest.update(chunk.object_slots.tobytes())
        digest.update(chunk.values.tobytes())
    return Traffic(gens, pool, digest.hexdigest())


def device_columns(traffic: Traffic, campaign_id: str):
    """One campaign's pooled device claims as (user, object, value) columns."""
    subs = [s for s in traffic.pool if s.campaign_id == campaign_id]
    gen = next(g for g in traffic.generators if g.campaign_id == campaign_id)
    user_index = {user: i for i, user in enumerate(gen.user_ids)}
    object_index = {obj: i for i, obj in enumerate(gen.object_ids)}
    users = np.repeat([user_index[s.user_id] for s in subs], len(subs[0].values))
    objects = np.asarray([object_index[o] for s in subs for o in s.object_ids])
    values = np.asarray([s.values for s in subs], dtype=float).reshape(-1)
    return users, objects, values


def bulk_columns(traffic: Traffic, campaign_id: str):
    chunks = [c for c in traffic.pool if c.campaign_id == campaign_id]
    return (
        np.concatenate([c.user_slots for c in chunks]),
        np.concatenate([c.object_slots for c in chunks]),
        np.concatenate([c.values for c in chunks]),
    )
