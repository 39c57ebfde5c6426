"""Columnar micro-batching for the ingestion hot path.

The per-message server keeps one Python object per submission and pays
attribute/dispatch overhead per claim at finalise.  The service instead
lands every accepted claim directly into three preallocated NumPy
columns — user slot, object index, value — and emits a
:class:`~repro.truthdiscovery.streaming.ClaimBatch` whenever the buffer
fills.  Between a claim's arrival and its aggregation there is exactly
one array write; no per-claim Python objects survive.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.truthdiscovery.streaming import ClaimBatch
from repro.utils.validation import ensure_int


class MicroBatcher:
    """Fixed-capacity columnar claim buffer emitting full batches.

    Parameters
    ----------
    max_batch:
        Claims per emitted batch.  The buffer is preallocated at this
        size; ``add_columns`` fills it and returns completed batches as
        copies, so the buffer is immediately reusable.
    """

    def __init__(self, max_batch: int = 1024) -> None:
        self._capacity = ensure_int(max_batch, "max_batch", minimum=1)
        self._users = np.empty(self._capacity, dtype=np.int64)
        self._objects = np.empty(self._capacity, dtype=np.int64)
        self._values = np.empty(self._capacity, dtype=float)
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
        """User slots of the buffered claims (a view; valid until the
        next ``add_columns`` or ``flush``)."""
        return self._users[: self._fill]

    # ------------------------------------------------------------------
    def add_columns(
        self,
        user_slots: np.ndarray,
        object_indices: np.ndarray,
        values: np.ndarray,
    ) -> list[ClaimBatch]:
        """Append aligned claim columns; return any completed batches.

        Inputs longer than the remaining buffer space are split across
        consecutive batches, so arbitrarily large chunks are fine.
        """
        emitted: list[ClaimBatch] = []
        n = len(values)
        start = 0
        while n - start > 0:
            take = min(self._capacity - self._fill, n - start)
            stop = start + take
            lo, hi = self._fill, self._fill + take
            self._users[lo:hi] = user_slots[start:stop]
            self._objects[lo:hi] = object_indices[start:stop]
            self._values[lo:hi] = values[start:stop]
            self._fill = hi
            self.claims_buffered += take
            start = stop
            if self._fill == self._capacity:
                emitted.append(self._emit())
        return emitted

    def flush(self) -> Optional[ClaimBatch]:
        """Emit the partial batch (None when the buffer is empty)."""
        if self._fill == 0:
            return None
        return self._emit()

    # ------------------------------------------------------------------
    def _emit(self) -> ClaimBatch:
        batch = ClaimBatch(
            users=self._users[: self._fill].copy(),
            objects=self._objects[: self._fill].copy(),
            values=self._values[: self._fill].copy(),
        )
        self._fill = 0
        self.batches_emitted += 1
        return batch
