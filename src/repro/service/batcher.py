"""Columnar micro-batching for the ingestion hot path.

The per-message server keeps one Python object per submission and pays
attribute/dispatch overhead per claim at finalise.  The service instead
cuts admitted claim columns — user slot, object index, value — into
batches (:class:`~repro.truthdiscovery.streaming.ClaimBatch`) of
``max_batch`` claims, with no per-claim Python objects.

The batcher takes over the columns it is given.  They were checked at
admission (``submit_columns`` copies its chunk there; the pump builds
``submit()``'s claims into fresh columns) and nothing writes to them
afterwards, so a batch lying inside one of them is emitted as views of
it.  Only a batch that straddles two or more pieces is built, with one
concatenate per column: between admission and the aggregator a claim
is copied at most once more.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.truthdiscovery.streaming import ClaimBatch
from repro.utils.validation import ensure_int


class MicroBatcher:
    """Cuts admitted claim columns into batches of ``max_batch`` claims.

    Parameters
    ----------
    max_batch:
        Claims per emitted batch.  ``add_columns`` keeps the columns it
        is given (a tail shorter than a batch waits for the next call or
        ``flush``) and returns completed batches, as views of those
        columns wherever a batch lies inside one of them.
    """

    def __init__(self, max_batch: int = 1024) -> None:
        self._capacity = ensure_int(max_batch, "max_batch", minimum=1)
        # Pending [users, objects, values] pieces, in arrival order.
        self._pieces: list[list[np.ndarray]] = []
        self._fill = 0
        self.batches_emitted = 0
        self.claims_buffered = 0

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def pending(self) -> int:
        """Claims currently buffered, not yet emitted."""
        return self._fill

    @property
    def buffered_users(self) -> np.ndarray:
        """User slots of the buffered claims (a copy)."""
        if not self._pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([piece[0] for piece in self._pieces])

    # ------------------------------------------------------------------
    def add_columns(
        self,
        user_slots: np.ndarray,
        object_indices: np.ndarray,
        values: np.ndarray,
    ) -> list[ClaimBatch]:
        """Take over aligned, checked claim columns; return any completed
        batches.

        Inputs longer than the remaining room are split across
        consecutive batches, so arbitrarily large chunks are fine.  The
        caller must not write to the columns afterwards: emitted and
        pending batches may be views of them.
        """
        columns = (
            np.asarray(user_slots, dtype=np.int64),
            np.asarray(object_indices, dtype=np.int64),
            np.asarray(values, dtype=float),
        )
        n = len(columns[2])
        if n == 0:
            return []
        self.claims_buffered += n
        cap = self._capacity
        emitted: list[ClaimBatch] = []
        start = 0
        if self._fill:
            # Top up the pending batch first.
            start = min(cap - self._fill, n)
            self._pieces.append([column[:start] for column in columns])
            self._fill += start
            if self._fill == cap:
                emitted.append(self._emit())
        while n - start >= cap:
            stop = start + cap
            emitted.append(
                self._batch(*[column[start:stop] for column in columns])
            )
            start = stop
        if start < n:
            self._pieces.append([column[start:] for column in columns])
            self._fill = n - start
        return emitted

    def flush(self) -> Optional[ClaimBatch]:
        """Emit the partial batch (None when nothing is pending)."""
        if self._fill == 0:
            return None
        return self._emit()

    # ------------------------------------------------------------------
    def _emit(self) -> ClaimBatch:
        pieces = self._pieces
        if len(pieces) == 1:
            batch = self._batch(*pieces[0])
        else:
            batch = self._batch(*[np.concatenate(c) for c in zip(*pieces)])
        self._pieces = []
        self._fill = 0
        return batch

    def _batch(self, users, objects, values) -> ClaimBatch:
        self.batches_emitted += 1
        return ClaimBatch.unchecked(users, objects, values)
