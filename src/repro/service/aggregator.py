"""Incremental aggregation backends for the ingestion service.

Two interchangeable backends sit behind every campaign:

* :class:`StreamingAggregator` — wraps a streaming
  sufficient-statistics estimator from
  :mod:`repro.truthdiscovery.streaming` (:class:`StreamingCRH`,
  :class:`StreamingGTM`, or :class:`StreamingCATD`, chosen by the
  campaign's ``method``).  Micro-batches are appended to cheap columnar
  staging arrays; the O(S x N) refinement sweeps only run once
  ``refine_every`` claims have accumulated (or a reader asks for fresh
  truths), which keeps per-batch cost near the cost of a memcpy while
  bounding staleness.  Reads are O(S x N) regardless of how many
  claims the campaign has ever ingested.
* :class:`FullRefitAggregator` — retains all claims columnarly and
  refits a registered batch method from scratch, lazily and only when
  the result is actually read — an O(total claims) read path.  The
  right choice for small campaigns, where a full refit is cheaper than
  maintaining streaming statistics, and the *only* choice for methods
  with no streaming counterpart (baselines, ablation variants).

Backend selection (:func:`resolve_backend`, used by
:func:`make_aggregator` and mirrored by the multi-process proxy):

* ``kind="streaming"`` / ``kind="full"`` force a backend; forcing
  streaming for a method without a streaming estimator is an error, as
  is forcing full-refit with ``decay < 1`` (it cannot forget).
* ``kind="auto"`` picks full-refit only for tiny campaigns (dense
  state of at most ``full_refit_max_cells`` cells), for methods absent
  from :data:`~repro.truthdiscovery.streaming.STREAMING_ESTIMATORS`,
  and for campaigns whose ``method_kwargs`` carry batch-only fitting
  knobs the streaming estimator cannot honour (``convergence``,
  ``distance``, ...); every plain CRH/GTM/CATD campaign at scale
  streams.  ``decay < 1`` always forces streaming: the full-refit
  backend retains every claim forever and silently ignoring the
  configured forgetting rate would make two same-config campaigns
  diverge by size alone.

Both backends expose the same surface (``ingest`` / ``refresh`` /
``folded`` / counters), so shards treat them uniformly.  Each also
counts its deferred-work cost — ``refreshes`` and ``refresh_seconds``
— so a benchmark can show what a read actually pays per backend
(``python3 benchmarks/e2e/run.py --workload read_mix`` times dirty and
clean reads on all three streaming methods).

Semantics note: the streaming backend applies its decay once per
``refine_every`` ingested claims — not per micro-batch, and not on
read-forced refreshes, so polling a campaign cannot change its
forgetting rate — and counts duplicate (user, object) claims as
repeated evidence; the full-refit backend keeps the last
claim per (user, object), matching ``ClaimMatrix.from_records``.  With
``decay=1.0`` and duplicate-free dense input the two agree to within
iteration tolerance for every streaming-capable method (asserted by
the service benchmark's per-method RMSE section).
"""

from __future__ import annotations

import functools
import inspect
import time
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.truthdiscovery.streaming import (
    STREAMING_ESTIMATORS,
    ClaimBatch,
)
from repro.utils.validation import ensure_int


class IncrementalAggregator(ABC):
    """Common surface of the per-campaign aggregation backends."""

    def __init__(self, num_users: int, num_objects: int) -> None:
        self._num_users = ensure_int(num_users, "num_users", minimum=1)
        self._num_objects = ensure_int(num_objects, "num_objects", minimum=1)
        self.claims_ingested = 0
        self.batches_ingested = 0
        #: Bumped wherever what the backend reads out can change (an
        #: ingest, a refresh that did work, a restore), never by a read:
        #: a reader that saw version v and sees v again knows the
        #: truths, weights and counters are still what it read.
        self.version = 0
        #: Refreshes that actually did deferred work (refinement folds
        #: for the streaming backend, full refits for the full-refit
        #: backend), and the seconds they cost.  Process-local
        #: observability — not part of :meth:`state_dict`.
        self.refreshes = 0
        self.refresh_seconds = 0.0

    @property
    def num_users(self) -> int:
        return self._num_users

    @property
    def num_objects(self) -> int:
        return self._num_objects

    @abstractmethod
    def ingest(self, batch: ClaimBatch) -> None:
        """Absorb one micro-batch (cheap; heavy work may be deferred)."""

    @abstractmethod
    def refresh(self) -> None:
        """Force deferred work so ``truths``/``weights`` are current."""

    @property
    def refresh_changes_state(self) -> bool:
        """Whether a refresh *now* would alter future aggregate values.

        Durability uses this to decide if a read-forced refresh must be
        write-ahead logged: the streaming backend folds staged claims
        with sweep timing that depends on when refreshes happen, while
        the full-refit backend recomputes from all retained claims and
        is timing-independent (never logged).
        """
        return False

    def truths(self) -> np.ndarray:
        """Current ``(N,)`` truths (0.0 for never-seen objects)."""
        self.refresh()
        return self.folded()[0]

    def weights(self) -> np.ndarray:
        """Current ``(S,)`` user weights (1.0 for silent users)."""
        self.refresh()
        return self.folded()[1]

    def seen_objects(self) -> np.ndarray:
        """``(N,)`` mask of objects with at least one ingested claim."""
        self.refresh()
        return self.folded()[2]

    @abstractmethod
    def folded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(truths, weights, seen_objects)`` as the folds so far left
        them, folding nothing in: what a replica serves, since a fold
        its log does not hold would set it apart from its primary.
        After :meth:`refresh` it is what the three accessors return,
        which is how a read builds from one call.

        The caller owns the three arrays: every call returns new ones
        that share no memory with the backend's state or with an earlier
        call's arrays (they may be read-only), so a reader keeps them or
        slices them without copying again.
        """

    @property
    def staged_claims(self) -> int:
        """Ingested claims :meth:`folded` does not reflect yet."""
        return 0

    @abstractmethod
    def state_dict(self) -> dict:
        """Complete serialisable state (for durable checkpoints).

        ``load_state`` on a freshly constructed aggregator of the same
        configuration restores the stream bit-for-bit — including work
        the backend has deferred (staged batches, retained claims), so
        checkpointing never forces a refinement and cannot perturb the
        stream relative to an uncheckpointed run.
        """

    @abstractmethod
    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this aggregator."""


class StreamingAggregator(IncrementalAggregator):
    """A streaming estimator behind a staging buffer with deferred refinement.

    Parameters
    ----------
    method:
        Registry name of the estimator ("crh", "gtm", "catd") — must
        have a streaming counterpart in
        :data:`~repro.truthdiscovery.streaming.STREAMING_ESTIMATORS`.
    decay:
        Exponential forgetting per refinement (1.0 = never forget).
    refine_sweeps:
        Refinement sweeps per fold; raise it when truths must track the
        batch fixed point closely (see the service benchmark).
    refine_every:
        Staged claims that trigger a refinement.  Larger values trade
        read staleness for throughput.
    method_kwargs:
        Forwarded to the streaming estimator's constructor (the same
        names the batch method accepts, e.g. GTM's priors or CATD's
        ``significance``).
    """

    def __init__(
        self,
        num_users: int,
        num_objects: int,
        *,
        method: str = "crh",
        decay: float = 1.0,
        refine_sweeps: int = 2,
        refine_every: int = 8192,
        **method_kwargs,
    ) -> None:
        super().__init__(num_users, num_objects)
        try:
            estimator_cls = STREAMING_ESTIMATORS[method]
        except KeyError:
            raise ValueError(
                f"no streaming estimator for method {method!r}; "
                f"available: {sorted(STREAMING_ESTIMATORS)}"
            ) from None
        self._method = method
        self._stream = estimator_cls(
            num_users,
            num_objects,
            decay=decay,
            refine_sweeps=refine_sweeps,
            **method_kwargs,
        )
        self._refine_every = ensure_int(refine_every, "refine_every", minimum=1)
        self._staged: list[ClaimBatch] = []
        self._staged_claims = 0
        # Decay is scheduled by claim count, not by refinement count:
        # read-forced refreshes fold claims without forgetting, so how
        # often a campaign is polled cannot change its decay rate.
        self._claims_since_decay = 0

    @property
    def method(self) -> str:
        return self._method

    def ingest(self, batch: ClaimBatch) -> None:
        self._staged.append(batch)
        self._staged_claims += batch.size
        self._claims_since_decay += batch.size
        self.claims_ingested += batch.size
        self.batches_ingested += 1
        self.version += 1
        if self._staged_claims >= self._refine_every:
            self.refresh()

    @property
    def refresh_changes_state(self) -> bool:
        return bool(self._staged)

    def refresh(self) -> None:
        if not self._staged:
            return
        start = time.perf_counter()
        if len(self._staged) == 1:
            merged = self._staged[0]
        else:
            # Every staged batch was checked where it entered the
            # process; their concatenation needs no second check.
            merged = ClaimBatch.unchecked(
                np.concatenate([b.users for b in self._staged]),
                np.concatenate([b.objects for b in self._staged]),
                np.concatenate([b.values for b in self._staged]),
            )
        self._staged.clear()
        self._staged_claims = 0
        # One forgetting step per full refine_every window of claims —
        # a refresh covering several windows' worth applies decay**k.
        steps = self._claims_since_decay // self._refine_every
        self._claims_since_decay -= steps * self._refine_every
        self._stream.ingest(merged, decay_steps=steps)
        self.version += 1
        self.refreshes += 1
        self.refresh_seconds += time.perf_counter() - start

    def folded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        stream = self._stream
        return stream.truths, stream.weights, stream.seen_objects

    @property
    def staged_claims(self) -> int:
        return self._staged_claims

    def state_dict(self) -> dict:
        # Array form: the cell statistics dominate the state and go
        # straight into binary checkpoint entries.
        stream = self._stream.snapshot(arrays=True)
        if self._staged:
            staged_users = np.concatenate([b.users for b in self._staged])
            staged_objects = np.concatenate([b.objects for b in self._staged])
            staged_values = np.concatenate([b.values for b in self._staged])
        else:
            staged_users = np.empty(0, dtype=np.int64)
            staged_objects = np.empty(0, dtype=np.int64)
            staged_values = np.empty(0, dtype=float)
        return {
            "kind": "streaming",
            "method": self._method,
            "claims_ingested": self.claims_ingested,
            "batches_ingested": self.batches_ingested,
            "refine_every": self._refine_every,
            "claims_since_decay": self._claims_since_decay,
            "staged_users": staged_users,
            "staged_objects": staged_objects,
            "staged_values": staged_values,
            "stream": stream,
        }

    def load_state(self, state: dict) -> None:
        if state.get("kind") != "streaming":
            raise ValueError(
                f"state is for a {state.get('kind')!r} backend, "
                f"not 'streaming'"
            )
        # Pre-ISSUE-4 checkpoints carry no "method" entry and store the
        # estimator snapshot under "crh" (CRH was the only streaming
        # backend); accept both spellings so existing durability
        # directories keep recovering.
        method = state.get("method", "crh")
        if method != self._method:
            raise ValueError(
                f"state is for a {method!r} stream, this campaign runs "
                f"{self._method!r}"
            )
        stream_state = state["stream"] if "stream" in state else state["crh"]
        self._stream.restore(stream_state)
        self._refine_every = ensure_int(
            state["refine_every"], "refine_every", minimum=1
        )
        self._claims_since_decay = int(state["claims_since_decay"])
        self.claims_ingested = int(state["claims_ingested"])
        self.batches_ingested = int(state["batches_ingested"])
        users = np.asarray(state["staged_users"], dtype=np.int64)
        objects = np.asarray(state["staged_objects"], dtype=np.int64)
        values = np.asarray(state["staged_values"], dtype=float)
        # Staged batches are merged at refresh regardless of their
        # original boundaries, so restoring them as one batch is exact.
        # They were checked before they were staged; a checkpoint (CRC
        # checked) or a hand-off carries them as their owner wrote them,
        # and the estimator still range-checks them at the fold.
        if users.size:
            self._staged = [ClaimBatch.unchecked(users, objects, values)]
        else:
            self._staged = []
        self._staged_claims = int(users.size)
        self.version += 1


class FullRefitAggregator(IncrementalAggregator):
    """Retain all claims, refit a batch method lazily on read.

    Parameters
    ----------
    method:
        Registry name of the batch method to refit ("crh", "gtm", ...).
    method_kwargs:
        Forwarded to the registry factory on every refit.
    """

    def __init__(
        self,
        num_users: int,
        num_objects: int,
        *,
        method: str = "crh",
        **method_kwargs,
    ) -> None:
        super().__init__(num_users, num_objects)
        self._method = method
        self._method_kwargs = dict(method_kwargs)
        self._users: list[np.ndarray] = []
        self._objects: list[np.ndarray] = []
        self._values: list[np.ndarray] = []
        self._dirty = False
        self._truths = np.zeros(num_objects)
        self._weights = np.ones(num_users)
        self._seen = np.zeros(num_objects, dtype=bool)

    @property
    def method(self) -> str:
        return self._method

    def ingest(self, batch: ClaimBatch) -> None:
        self._users.append(batch.users)
        self._objects.append(batch.objects)
        self._values.append(batch.values)
        self.claims_ingested += batch.size
        self.batches_ingested += 1
        self.version += 1
        self._dirty = True

    def refresh(self) -> None:
        if not self._dirty:
            return
        # Imported here: the registry loads every batch method, and a
        # shard host or standby whose campaigns all stream needs none.
        from repro.truthdiscovery.claims import ClaimMatrix
        from repro.truthdiscovery.registry import create_method

        start = time.perf_counter()
        users = np.concatenate(self._users)
        objects = np.concatenate(self._objects)
        values = np.concatenate(self._values)
        # Refit on the active sub-rectangle only: silent users and unseen
        # objects would violate ClaimMatrix's coverage invariant.
        active_users = np.unique(users)
        seen_objects = np.unique(objects)
        claims = ClaimMatrix.from_columns(
            np.searchsorted(active_users, users),
            np.searchsorted(seen_objects, objects),
            values,
            user_ids=tuple(int(u) for u in active_users),
            object_ids=tuple(int(o) for o in seen_objects),
        )
        result = create_method(self._method, **self._method_kwargs).fit(claims)
        self._truths = np.zeros(self._num_objects)
        self._truths[seen_objects] = result.truths
        self._weights = np.ones(self._num_users)
        self._weights[active_users] = result.weights
        self._seen = np.zeros(self._num_objects, dtype=bool)
        self._seen[seen_objects] = True
        self._dirty = False
        self.version += 1
        self.refreshes += 1
        self.refresh_seconds += time.perf_counter() - start

    def folded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # A refit is timing-independent (refresh_changes_state is always
        # False), so this backend may read through one.
        self.refresh()
        return self._truths.copy(), self._weights.copy(), self._seen.copy()

    def state_dict(self) -> dict:
        if self._users:
            users = np.concatenate(self._users)
            objects = np.concatenate(self._objects)
            values = np.concatenate(self._values)
        else:
            users = np.empty(0, dtype=np.int64)
            objects = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=float)
        return {
            "kind": "full",
            "claims_ingested": self.claims_ingested,
            "batches_ingested": self.batches_ingested,
            "users": users,
            "objects": objects,
            "values": values,
        }

    def load_state(self, state: dict) -> None:
        if state.get("kind") != "full":
            raise ValueError(
                f"state is for a {state.get('kind')!r} backend, not 'full'"
            )
        users = np.asarray(state["users"], dtype=np.int64)
        objects = np.asarray(state["objects"], dtype=np.int64)
        values = np.asarray(state["values"], dtype=float)
        self.claims_ingested = int(state["claims_ingested"])
        self.batches_ingested = int(state["batches_ingested"])
        if users.size:
            self._users = [users]
            self._objects = [objects]
            self._values = [values]
            # The refit is deterministic in the retained claims, so the
            # lazy recompute reproduces the checkpointed results exactly.
            self._dirty = True
        else:
            self._users, self._objects, self._values = [], [], []
            self._dirty = False
            # Nothing to refit: what a fresh backend reads out.
            self._truths = np.zeros(self._num_objects)
            self._weights = np.ones(self._num_users)
            self._seen = np.zeros(self._num_objects, dtype=bool)
        self.version += 1


def _streaming_unsupported_kwargs(method: str, method_kwargs: dict) -> list:
    """Kwargs the method's streaming estimator cannot accept.

    Batch methods take fitting knobs (``convergence``, ``distance``,
    ...) that have no streaming counterpart; a campaign registered
    with them must stay on the full-refit backend rather than crash —
    or, worse, have the knob silently dropped.
    """
    estimator_cls = STREAMING_ESTIMATORS.get(method)
    if estimator_cls is None:
        return sorted(method_kwargs)
    return sorted(set(method_kwargs) - _model_kwargs(estimator_cls))


@functools.lru_cache(maxsize=None)
def _model_kwargs(estimator_cls: type) -> frozenset:
    """The model keywords a streaming estimator's constructor takes, a
    pure function of the class (``inspect.signature`` costs more than
    the rest of a campaign's registration)."""
    accepted = set(inspect.signature(estimator_cls.__init__).parameters)
    accepted -= {"self", "num_users", "num_objects", "decay", "refine_sweeps"}
    return frozenset(accepted)


def resolve_backend(
    num_users: int,
    num_objects: int,
    *,
    kind: str = "auto",
    method: str = "crh",
    decay: float = 1.0,
    full_refit_max_cells: int = 4096,
    method_kwargs: Optional[dict] = None,
) -> str:
    """Resolve ``kind`` to the concrete backend a campaign will run.

    This is :func:`make_aggregator`'s selection logic, split out so a
    caller that is *not* constructing the backend locally — the
    multi-process proxy, which must mirror the worker-side backend's
    behaviour — resolves to exactly the same choice, including the same
    configuration errors.  Pass the campaign's ``method_kwargs`` so
    batch-only fitting knobs route to the full-refit backend (the
    mirror must see them too, or parent and worker could pick
    different backends).
    """
    if kind not in ("auto", "streaming", "full"):
        raise ValueError(f"unknown aggregator kind {kind!r}")
    unsupported = _streaming_unsupported_kwargs(method, method_kwargs or {})
    streamable = method in STREAMING_ESTIMATORS and not unsupported
    if kind == "auto":
        small = num_users * num_objects <= full_refit_max_cells
        if decay < 1.0:
            kind = "streaming"
        else:
            kind = "streaming" if (streamable and not small) else "full"
    if kind == "full" and decay < 1.0:
        raise ValueError(
            "the full-refit backend cannot forget (decay < 1 "
            "requires the streaming backend)"
        )
    if kind == "streaming" and not streamable:
        if method in STREAMING_ESTIMATORS:
            raise ValueError(
                f"streaming {method!r} does not accept "
                f"{unsupported} (batch-only fitting knobs need the "
                f"full-refit backend)"
            )
        raise ValueError(
            f"no streaming estimator for method {method!r}; "
            f"available: {sorted(STREAMING_ESTIMATORS)}"
        )
    return kind


def make_aggregator(
    num_users: int,
    num_objects: int,
    *,
    kind: str = "auto",
    method: str = "crh",
    decay: float = 1.0,
    refine_sweeps: int = 2,
    refine_every: int = 8192,
    full_refit_max_cells: int = 4096,
    **method_kwargs,
) -> IncrementalAggregator:
    """Build an aggregation backend for one campaign.

    ``kind`` is ``"streaming"``, ``"full"``, or ``"auto"`` — see the
    module docstring for the selection rules.  ``method_kwargs`` reach
    whichever backend is built: streaming estimators accept their
    batch counterpart's model hyper-parameters (GTM's priors, CATD's
    ``significance``), while batch-only fitting knobs (``convergence``,
    ``distance``, ...) keep an ``"auto"`` campaign on the full-refit
    backend and are an error with ``kind="streaming"``.
    """
    kind = resolve_backend(
        num_users,
        num_objects,
        kind=kind,
        method=method,
        decay=decay,
        full_refit_max_cells=full_refit_max_cells,
        method_kwargs=method_kwargs,
    )
    if kind == "full":
        return FullRefitAggregator(
            num_users, num_objects, method=method, **method_kwargs
        )
    return StreamingAggregator(
        num_users,
        num_objects,
        method=method,
        decay=decay,
        refine_sweeps=refine_sweeps,
        refine_every=refine_every,
        **method_kwargs,
    )
