"""Read-side views of the ingestion service's aggregation state.

The write path (queues, batchers, shards) never hands out references to
its mutable buffers.  Readers instead receive a :class:`TruthSnapshot` —
an immutable copy of one campaign's current truths, weights, and
ingestion counters — so a dashboard or the crowdsensing server can poll
fresh aggregates at any time without racing the hot path.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np


class SlotIds(Sequence):
    """The ids at ``slots`` of a campaign's user table, looked up on access.

    Holds the table, not a copy: a table is only ever appended to (or
    replaced wholesale by recovery) and ``slots`` existed when the view
    was made, so it reads the same later and from any thread.
    """

    __slots__ = ("_table", "_slots")

    def __init__(self, table: Sequence, slots: np.ndarray) -> None:
        self._table = table
        self._slots = slots

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index):
        """One id, or a tuple of the ids when ``index`` is a slice (as
        slicing the tuple form of ``contributor_ids`` gives)."""
        if isinstance(index, slice):
            return tuple(map(self._table.__getitem__, self._slots[index].tolist()))
        return self._table[self._slots[index]]

    def __iter__(self):
        return map(self._table.__getitem__, self._slots.tolist())


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    )


@dataclass(frozen=True, eq=False)
class TruthSnapshot:
    """One campaign's aggregation state at a point in the ingest stream.

    Snapshots compare by value: ``==`` holds when the ids, the counters
    and the three arrays (bitwise, dtype included) are equal, whichever
    form ``contributor_ids`` takes.  They are not hashable.

    Attributes
    ----------
    campaign_id:
        The campaign this snapshot describes.
    object_ids:
        The campaign's object universe; ``truths[i]`` corresponds to
        ``object_ids[i]``.
    truths:
        ``(N,)`` current aggregated values.  Objects with no retained
        claims hold 0.0; consult ``seen_objects`` before trusting them.
    seen_objects:
        ``(N,)`` boolean mask — True where at least one claim has been
        aggregated for the object.
    contributor_ids:
        Every user that has contributed at least one accepted claim,
        in slot order: a sequence (a tuple or a :class:`SlotIds` view).
    contributor_weights:
        Read-only ``float64`` array: ``contributor_weights[i]`` is the
        current reliability weight of ``contributor_ids[i]``.
    claims_ingested:
        Accepted claims aggregated so far (excludes queued/pending).
    batches_ingested:
        Micro-batches the campaign's aggregator has absorbed.
    pending_claims:
        Claims accepted but still sitting in the campaign's partial
        micro-batch (not yet visible in ``truths``).
    """

    campaign_id: str
    object_ids: tuple
    truths: np.ndarray
    seen_objects: np.ndarray
    contributor_ids: Sequence = ()
    contributor_weights: np.ndarray = ()
    claims_ingested: int = 0
    batches_ingested: int = 0
    pending_claims: int = 0

    def __post_init__(self) -> None:
        for name, dtype in (
            ("truths", float), ("seen_objects", bool),
            ("contributor_weights", float),
        ):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=dtype)
            )
        self._freeze()

    @classmethod
    def _owned(
        cls, campaign_id: str, object_ids: tuple, truths: np.ndarray,
        seen_objects: np.ndarray, contributor_ids: Sequence,
        contributor_weights: np.ndarray, claims_ingested: int,
        batches_ingested: int, pending_claims: int,
    ) -> "TruthSnapshot":
        """A snapshot of arrays the caller owns and already typed, for
        the service's read path: ``float64`` truths and weights and a
        ``bool`` seen mask, which nothing else writes to afterwards.
        Checks the dtypes the constructor would convert to and the same
        shapes, and marks the arrays read-only; converts and copies
        nothing."""
        if (truths.dtype, seen_objects.dtype, contributor_weights.dtype) != (
            np.float64, np.bool_, np.float64
        ):
            raise ValueError("snapshot arrays must be float64, bool, float64")
        snapshot = object.__new__(cls)
        snapshot.__dict__.update(
            campaign_id=campaign_id, object_ids=object_ids, truths=truths,
            seen_objects=seen_objects, contributor_ids=contributor_ids,
            contributor_weights=contributor_weights,
            claims_ingested=claims_ingested,
            batches_ingested=batches_ingested, pending_claims=pending_claims,
        )
        snapshot._freeze()
        return snapshot

    def _freeze(self) -> None:
        """Check the arrays' shapes, then make them read-only."""
        truths, seen = self.truths, self.seen_objects
        weights = self.contributor_weights
        if truths.shape != (len(self.object_ids),):
            raise ValueError(
                f"truths has shape {truths.shape} for "
                f"{len(self.object_ids)} objects"
            )
        if seen.shape != truths.shape:
            raise ValueError("seen_objects must match truths in shape")
        if weights.shape != (len(self.contributor_ids),):
            raise ValueError(
                f"contributor_weights has shape {weights.shape} for "
                f"{len(self.contributor_ids)} contributor ids"
            )
        for array in (truths, seen, weights):
            array.setflags(write=False)

    __hash__ = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruthSnapshot):
            return NotImplemented
        if self is other:
            return True
        return (
            self.campaign_id == other.campaign_id
            and self.object_ids == other.object_ids
            and self.claims_ingested == other.claims_ingested
            and self.batches_ingested == other.batches_ingested
            and self.pending_claims == other.pending_claims
            and all(
                _same_bits(mine, theirs)
                for mine, theirs in (
                    (self.truths, other.truths),
                    (self.seen_objects, other.seen_objects),
                    (self.contributor_weights, other.contributor_weights),
                )
            )
            and tuple(self.contributor_ids) == tuple(other.contributor_ids)
        )

    @cached_property
    def weights_by_user(self) -> Mapping[str, float]:
        """``{user id: weight}`` in ``contributor_ids`` order — built on
        first access (the one O(contributors) step of a read) and kept."""
        return dict(
            zip(self.contributor_ids, self.contributor_weights.tolist())
        )

    @property
    def num_contributors(self) -> int:
        """Users with at least one aggregated claim."""
        return len(self.contributor_ids)

    @property
    def coverage(self) -> float:
        """Fraction of the object universe with at least one claim."""
        if len(self.object_ids) == 0:
            return 0.0
        return float(self.seen_objects.mean())

    def truth_for(self, object_id) -> float:
        """Current truth for one object id (KeyError if unknown)."""
        try:
            index = self.object_ids.index(object_id)
        except ValueError:
            raise KeyError(f"unknown object id {object_id!r}") from None
        return float(self.truths[index])

    def summary(self) -> str:
        """One-line human summary (for logs and examples)."""
        return (
            f"campaign {self.campaign_id}: {self.claims_ingested} claims "
            f"in {self.batches_ingested} batches from "
            f"{self.num_contributors} users, coverage {self.coverage:.0%}"
            + (f", {self.pending_claims} pending" if self.pending_claims else "")
        )
