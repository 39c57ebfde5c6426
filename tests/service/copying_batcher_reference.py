"""Frozen copying ``MicroBatcher`` and checked refresh merge.

This is the micro-batcher ``repro.service.batcher`` ran before admitted
columns moved by reference: every claim is written into three
preallocated columns and every emitted batch is a checked
``ClaimBatch`` of copies of them.  ``checked_refresh`` is
``StreamingAggregator.refresh`` as it was then, building the merged
batch with the checked constructor.  It exists only as the reference
the equivalence tests compare the library against; do not "modernise"
it.
"""

import time
import types
from typing import Optional

import numpy as np

from repro.truthdiscovery.streaming import ClaimBatch


class CopyingMicroBatcher:
    """Fixed-capacity columnar claim buffer emitting full batches."""

    def __init__(self, max_batch: int = 1024) -> None:
        self._capacity = max_batch
        self._users = np.empty(self._capacity, dtype=np.int64)
        self._objects = np.empty(self._capacity, dtype=np.int64)
        self._values = np.empty(self._capacity, dtype=float)
        self._fill = 0
        self.batches_emitted = 0
        self.claims_buffered = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def pending(self) -> int:
        return self._fill

    @property
    def buffered_users(self) -> np.ndarray:
        return self._users[: self._fill]

    def add_columns(self, user_slots, object_indices, values) -> list:
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
        if self._fill == 0:
            return None
        return self._emit()

    def _emit(self) -> ClaimBatch:
        batch = ClaimBatch(
            users=self._users[: self._fill].copy(),
            objects=self._objects[: self._fill].copy(),
            values=self._values[: self._fill].copy(),
        )
        self._fill = 0
        self.batches_emitted += 1
        return batch


def checked_refresh(self) -> None:
    """``StreamingAggregator.refresh`` with a checked merged batch."""
    if not self._staged:
        return
    start = time.perf_counter()
    if len(self._staged) == 1:
        merged = self._staged[0]
    else:
        merged = ClaimBatch(
            users=np.concatenate([b.users for b in self._staged]),
            objects=np.concatenate([b.objects for b in self._staged]),
            values=np.concatenate([b.values for b in self._staged]),
        )
    self._staged.clear()
    self._staged_claims = 0
    steps = self._claims_since_decay // self._refine_every
    self._claims_since_decay -= steps * self._refine_every
    self._stream.ingest(merged, decay_steps=steps)
    self.version += 1
    self.refreshes += 1
    self.refresh_seconds += time.perf_counter() - start


def install(state) -> None:
    """Give one campaign the copying batcher and the checked merge."""
    state.batcher = CopyingMicroBatcher(state.batcher.capacity)
    state.aggregator.refresh = types.MethodType(
        checked_refresh, state.aggregator
    )
