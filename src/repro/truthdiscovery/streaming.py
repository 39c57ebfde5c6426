"""Streaming truth discovery (extension subsystem).

Crowd sensing is continuous: claims arrive in batches as users move
through the world, and the server wants fresh aggregates without
refitting from scratch.  Every estimator here maintains *per-(user,
object) sufficient statistics* — small dense arrays that summarise the
whole stream — instead of raw claim history, so memory and per-read
cost are O(S x N), independent of stream length:

* :class:`StreamingCRH` — CRH-style truths and weights: per-cell
  weighted value sums and claim counts, Eq. 3's -log-share weights;
* :class:`StreamingGTM` — the Gaussian Truth Model's EM loop over
  per-cell (count, sum, sum-of-squares) moments: per-object
  standardisation, posterior-mean truth updates, inverse-gamma MAP
  variance updates, all recomputed from the retained moments;
* :class:`StreamingCATD` — confidence-aware weights: exact per-user
  squared residuals from the same moment statistics, chi-squared
  confidence-interval weights ``chi2.ppf(alpha/2, N_s) / distance``.

All three share the :class:`StreamingEstimator` skeleton: statistics
are decayed by ``decay`` per forgetting step (stale claims age out),
each ingested batch is folded with scatter-adds, and a small number of
refinement sweeps (aggregate / re-weight) runs over the retained
statistics as matrix-vector products, allocating no ``(S, N)``
temporary: Eq. 1 is ``(w @ sums) / (w @ counts)``, a per-user squared
distance the expansion ``A - 2 (sums @ t) + counts @ t**2``.

The fold is chosen by density.  Every column is scattered with
``np.add.at``, in claim order.  A batch with at least one claim per
``_DENSE_FOLD_CELLS`` cells is dense: CRH then refills its per-cell
squares in one pass over every cell instead of gathering and
scattering them claim by claim (the crossover of the two is near
claims = cells / 4 at 200 x 48, 400 x 64 and 2000 x 64, and 3 is its
safe side; ``benchmarks/probes/fold_crossover.py`` prints the table).  Counts are
not binned: a count ``np.bincount`` + cast lost to ``np.add.at`` at
every measured density, and adding a binned count equals adding its
claims one at a time only while counts are integers (``decay`` 1).
The sweeps take a mask-free form when every user is active and every
object present (no fancy indexing, no ``np.where``, in-place
temporaries), the masked form otherwise.  Four invariants make all of
that sound:

1. *Cells are 0 or present*: a cell's statistics are all exactly 0 or
   its count exceeds ``_PRESENCE_FLOOR`` (decay and ``restore()`` flush
   fainter cells), so the sweeps need no presence mask.
2. *Caches are pure functions of the statistics*: the active-user mask,
   CRH's per-cell squares and CATD's quantile table are recomputed from
   them — per touched cell at a sparse fold, wholesale at a dense fold
   and after decay or restore — never accumulated by delta.
3. *Both folds and both sweep forms give the same bits*: statistics,
   truths, weights and ``snapshot()`` do not depend on which one ran;
   counts are binned only while integer, i.e. never by this code.  The
   primary, a shard host, a standby's apply and recovery's replay stay
   bitwise equal whatever their batch boundaries
   (``tests/truthdiscovery/test_fold_equivalence.py`` checks it against
   a frozen copy of the sparse fold and masked sweeps).
4. *The snapshot format is unchanged*: no cache is serialised, and
   ``snapshot()`` / ``restore()`` round-trip the complete stream state
   bit-for-bit — the contract the durable checkpoint store relies on.

Duplicate (user, object) claims count as repeated evidence (their
moments accumulate), which is what makes the statistics mergeable and
O(1) per claim; batch refits built on :class:`ClaimMatrix` instead keep
the last claim per cell.  On duplicate-free dense data the streaming
fixed points match their batch counterparts to iteration tolerance
(asserted by ``tests/service`` and the benchmark's ``read_mix`` checks).

The perturbation mechanism is orthogonal: feed perturbed batches and the
stream stays locally private — demonstrated in
``examples/streaming_monitoring.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.utils.validation import ensure_in_range, ensure_int, ensure_positive

_DISTANCE_FLOOR = 1e-8
#: Below this, a decayed count/weight is treated as "no retained claim".
_PRESENCE_FLOOR = 1e-12
#: Integer degrees of freedom a CATD stream memoises quantiles for, and
#: how many it computes at a time (the cap is a multiple of the block).
_QUANTILE_TABLE_CAP = 1 << 16
_QUANTILE_BLOCK = 512
#: A batch with at least one claim per this many cells is folded
#: densely (see the module docstring for the measured crossover).
_DENSE_FOLD_CELLS = 3
#: Cells per block of a whole-cache refill (a 128 KiB temporary).
_FILL_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class ClaimBatch:
    """One arrival: ``(user_index, object_index, value)`` triples."""

    users: np.ndarray
    objects: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        users = np.asarray(self.users, dtype=np.int64)
        objects = np.asarray(self.objects, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if not (users.shape == objects.shape == values.shape):
            raise ValueError("users/objects/values must share a shape")
        if users.ndim != 1:
            raise ValueError("batch arrays must be 1-D")
        if users.size == 0:
            raise ValueError("batch must be non-empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("batch values must be finite")
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "values", values)

    @classmethod
    def unchecked(
        cls, users: np.ndarray, objects: np.ndarray, values: np.ndarray
    ) -> "ClaimBatch":
        """A batch of columns the caller already checked, as they are.

        For a pipeline that admitted its columns once: aligned, non-empty
        1-D ``int64``/``int64``/``float64`` arrays of finite values,
        which nothing writes to afterwards.  No check runs and nothing is
        copied, so a column that breaks the contract reaches the
        estimator as it is (whose index range check still holds).
        """
        batch = object.__new__(cls)
        batch.__dict__.update(users=users, objects=objects, values=values)
        return batch

    @property
    def size(self) -> int:
        return self.users.size

    @classmethod
    def from_records(cls, records: Iterable[tuple]) -> "ClaimBatch":
        """Build from ``(user, object, value)`` triples.

        An ``(n, 3)`` ndarray takes a columnar fast path — sliced
        straight into columns, ~30x faster end-to-end than transposing
        an equivalent tuple list (micro-benched on 100k rows); the
        user/object columns survive a float table exactly (they are
        slot indices, far below 2**53).  Any other iterable goes
        through the per-tuple transpose, whose shape-error behaviour
        callers rely on for malformed rows.
        """
        if isinstance(records, np.ndarray):
            table = records
            if table.ndim != 2 or table.shape[1] != 3:
                raise ValueError(
                    f"record array must have shape (n, 3), got "
                    f"{table.shape}"
                )
            if table.shape[0] == 0:
                raise ValueError("batch must be non-empty")
            return cls(
                users=table[:, 0].astype(np.int64),
                objects=table[:, 1].astype(np.int64),
                values=table[:, 2].astype(float),
            )
        rows = list(records)
        if not rows:
            raise ValueError("batch must be non-empty")
        users, objects, values = zip(*rows)
        return cls(
            users=np.array(users), objects=np.array(objects),
            values=np.array(values, dtype=float),
        )


class StreamingEstimator(ABC):
    """Shared skeleton of the incremental sufficient-statistics estimators.

    Subclasses declare their per-(user, object) statistic arrays in
    ``_STAT_FIELDS`` (each of shape ``(S, N)``; all keep claim counts
    as ``_counts`` and value sums as ``_sums``) and build one refinement
    pass over them (:meth:`_refine`) from the sweep primitives
    :meth:`_alternate` and :meth:`_sq_distances`.  The base class
    owns ingest validation, the decay schedule and cell invariant, the
    fold, derived truths/weights storage, and the generic
    :meth:`snapshot` / :meth:`restore` round-trip (construction
    parameters beyond ``decay``/``refine_sweeps`` ride along via
    ``_PARAMS``).

    Parameters
    ----------
    num_users, num_objects:
        Fixed population/task-universe sizes (indices into them arrive
        in batches).
    decay:
        Multiplicative retention per forgetting step in (0, 1]; 1.0
        never forgets, 0.9 halves a claim's influence every ~6.6 steps.
    refine_sweeps:
        Aggregate/re-weight sweeps applied after ingesting each batch.
    """

    #: Snapshot discriminator; subclasses override ("crh", "gtm", ...).
    kind: str = "abstract"
    #: Snapshot entry -> instance attribute of each (S, N) statistic.
    _STAT_FIELDS: dict = {}
    #: Snapshot entry -> (instance attribute, ``check(value, name)``) of
    #: each construction parameter beyond ``decay``/``refine_sweeps``.
    _PARAMS: dict = {}

    def __init__(
        self,
        num_users: int,
        num_objects: int,
        *,
        decay: float = 0.95,
        refine_sweeps: int = 2,
    ) -> None:
        ensure_int(num_users, "num_users", minimum=1)
        ensure_int(num_objects, "num_objects", minimum=1)
        self._decay = ensure_in_range(
            decay, "decay", 0.0, 1.0, low_inclusive=False
        )
        self._sweeps = ensure_int(refine_sweeps, "refine_sweeps", minimum=1)
        self._num_users = num_users
        self._num_objects = num_objects
        for attr in self._STAT_FIELDS.values():
            setattr(self, attr, np.zeros((num_users, num_objects)))
        self._truths = np.zeros(num_objects)
        self._weights = np.ones(num_users)
        self._per_user = np.zeros(num_users)
        self._active = np.zeros(num_users, dtype=bool)
        self._all_active = False
        self._ones_objects = np.ones(num_objects)
        self._seen_objects = np.zeros(num_objects, dtype=bool)
        self._all_seen = False  # (decay never clears a seen object)
        self._batches = 0

    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return self._num_users

    @property
    def num_objects(self) -> int:
        return self._num_objects

    @property
    def truths(self) -> np.ndarray:
        """Current aggregated results (zeros for never-seen objects)."""
        return self._truths.copy()

    @property
    def weights(self) -> np.ndarray:
        """Current user weights (mean 1 over active users)."""
        return self._weights.copy()

    @property
    def batches_ingested(self) -> int:
        return self._batches

    @property
    def seen_objects(self) -> np.ndarray:
        """Boolean mask of objects ever ingested (decay never clears it)."""
        return self._seen_objects.copy()

    def _stat_arrays(self) -> dict[str, np.ndarray]:
        """The live statistic arrays by snapshot name."""
        return {
            name: getattr(self, attr)
            for name, attr in self._STAT_FIELDS.items()
        }

    # ------------------------------------------------------------------
    def ingest(
        self, batch: ClaimBatch, *, decay_steps: int = 1
    ) -> np.ndarray:
        """Absorb one batch and return the refreshed truths.

        ``decay_steps`` is how many forgetting steps precede the fold:
        0 folds the claims in without forgetting (for callers whose
        batch boundaries are dictated by reads rather than the decay
        schedule), k > 1 applies ``decay**k`` (for callers that batch
        several decay windows' worth of claims into one ingest).  A
        cell whose count decays to ``_PRESENCE_FLOOR`` (1e-12 of a
        claim) or below is flushed to exactly 0, not merely masked.
        """
        if decay_steps < 0:
            raise ValueError(f"decay_steps must be >= 0, got {decay_steps}")
        # One reduction per column: viewed as uint64, a negative index
        # reads as at least 2**63, so ``max() >= bound`` catches both ends.
        # (Reductions call the ufunc: the ndarray method wrappers cost
        # more than a reduction over a few hundred values.)
        if np.maximum.reduce(batch.users.view(np.uint64)) >= self._num_users:
            raise ValueError("batch user index out of range")
        if np.maximum.reduce(batch.objects.view(np.uint64)) >= self._num_objects:
            raise ValueError("batch object index out of range")
        # Forget, then fold the new claims into the retained cells.
        if decay_steps and self._decay < 1.0:
            factor = self._decay**decay_steps
            for array in self._stat_arrays().values():
                array *= factor
            self._settle()
        self._fold(
            batch.users * self._num_objects + batch.objects, batch.values
        )
        if not self._all_seen:
            self._seen_objects |= np.bincount(
                batch.objects, minlength=self._num_objects
            ).astype(bool)
            self._all_seen = bool(np.logical_and.reduce(self._seen_objects))
        self._batches += 1
        self._tally_users()
        if self._all_active or np.logical_or.reduce(self._active):
            self._refine()
        return self.truths

    def _fold(self, cells: np.ndarray, values: np.ndarray) -> None:
        """Scatter-add a batch at flat cells ``user * N + object`` (the
        2-D form's additions in the same order, ~8x faster)."""
        np.add.at(self._counts.reshape(-1), cells, 1.0)
        np.add.at(self._sums.reshape(-1), cells, values)

    def _settle(self) -> None:
        """Re-establish the cell invariant after a wholesale change
        (decay, restore); subclasses also refill their caches."""
        counts = self._counts
        faded = ~(counts > _PRESENCE_FLOOR) & (counts != 0.0)
        if faded.any():
            for array in self._stat_arrays().values():
                array[faded] = 0.0

    def _tally_users(self) -> None:
        """Each user's retained claim count, and whether it is non-zero
        (row sums as a product with ones: ~3x faster than ``sum``)."""
        self._per_user = self._counts @ self._ones_objects
        self._active = self._per_user > 0.0
        self._all_active = bool(np.logical_and.reduce(self._active))

    @abstractmethod
    def _refine(self) -> None:
        """Run ``refine_sweeps`` aggregate/re-weight sweeps over the
        retained statistics (some user is active), updating ``_truths``
        and ``_weights``."""

    def _alternate(self, sq_total, floor, reweigh) -> None:
        """Algorithm 1's sweeps: Eq. 1 truths (cell counts as repeated
        evidence; objects no weighted user covers keep theirs), then
        ``reweigh(distances)`` on each user's floored squared distance,
        which ``reweigh`` may overwrite.  When every object carries
        weight the floor on ``totals`` is the identity and the old
        truths are never kept, so Eq. 1 is one division."""
        weights, truths = self._weights, self._truths
        for _ in range(self._sweeps):
            totals = weights @ self._counts
            spread = weights @ self._sums
            if np.minimum.reduce(totals) > _PRESENCE_FLOOR:
                truths = np.divide(spread, totals, out=spread)
            else:
                truths = np.where(
                    totals > _PRESENCE_FLOOR,
                    spread / np.maximum(totals, _PRESENCE_FLOOR),
                    truths,
                )
            distances = self._sq_distances(sq_total, truths, truths * truths)
            weights = reweigh(np.maximum(distances, floor, out=distances))
        self._weights, self._truths = weights, truths

    def _sq_distances(self, sq_total, lin, quad) -> np.ndarray:
        """Per-user ``sq_total - 2 (sums @ lin) + counts @ quad``.

        With ``sq_total`` a user's summed squared claims, ``lin = t``
        and ``quad = t**2`` this is the squared distance of their claims
        from ``t`` — every cell's ``q - 2 t v + c t**2`` at once, without
        revisiting a claim.  Clipped at 0: the expansion can go slightly
        negative under cancellation when the claims all equal ``t``.
        Built in one fresh array: ``-2 x + a`` is ``a - 2 x`` exactly.
        """
        out = self._sums @ lin
        out *= -2.0
        out += sq_total
        out += self._counts @ quad
        return np.maximum(out, 0.0, out=out)

    # ------------------------------------------------------------------
    def _set_params(self, values: dict) -> None:
        """Set the ``_PARAMS`` entries from ``values`` (constructor
        arguments or a snapshot), validating everything before
        assigning anything (see restore)."""
        checked = [
            (attr, check(values[name], name))
            for name, (attr, check) in self._PARAMS.items()
        ]
        for attr, value in checked:
            setattr(self, attr, value)

    def snapshot(self, *, arrays: bool = False) -> dict:
        """Full serialisable stream state (the checkpoint format).

        By default the dict is JSON-friendly (nested lists of Python
        floats, which round-trip float64 exactly); ``arrays=True``
        keeps the bulk entries as ndarray copies instead — the right
        shape for binary checkpoint stores, which would otherwise pay
        an O(S x N) list round-trip per checkpoint.  Either form
        carries everything :meth:`restore` / :meth:`from_snapshot` need
        to resume the stream bit-for-bit: the retained sufficient
        statistics, the derived truths/weights, and the construction
        parameters.
        """
        convert = (
            (lambda a: a.copy()) if arrays else (lambda a: a.tolist())
        )
        snap = {
            "kind": self.kind,
            "num_users": self._num_users,
            "num_objects": self._num_objects,
            "decay": self._decay,
            "refine_sweeps": self._sweeps,
            "batches": self._batches,
            "truths": convert(self._truths),
            "weights": convert(self._weights),
            "seen_objects": convert(self._seen_objects),
        }
        for name, (attr, _) in self._PARAMS.items():
            snap[name] = getattr(self, attr)
        for name, array in self._stat_arrays().items():
            snap[name] = convert(array)
        return snap

    def restore(self, snapshot: dict) -> None:
        """Overwrite this stream's state from a :meth:`snapshot` dict.

        The snapshot must describe the same estimator kind and the same
        ``(num_users, num_objects)`` universe; decay, sweep, and model
        settings are taken from the snapshot so a restored stream
        behaves at the checkpointed configuration.  Array entries may
        be lists (JSON round-trip) or ndarrays.
        """
        snap_kind = snapshot.get("kind", self.kind)
        if snap_kind != self.kind:
            raise ValueError(
                f"snapshot is for a {snap_kind!r} stream; this is "
                f"{self.kind!r}"
            )
        num_users = ensure_int(snapshot["num_users"], "num_users", minimum=1)
        num_objects = ensure_int(
            snapshot["num_objects"], "num_objects", minimum=1
        )
        if (num_users, num_objects) != (self._num_users, self._num_objects):
            raise ValueError(
                f"snapshot is for a ({num_users}, {num_objects}) universe; "
                f"this stream is ({self._num_users}, {self._num_objects})"
            )
        shape = (num_users, num_objects)
        stats = {}
        for name, attr in self._STAT_FIELDS.items():
            array = np.asarray(snapshot[name], dtype=float)
            if array.shape != shape:
                raise ValueError(
                    "snapshot cell statistics have the wrong shape"
                )
            stats[attr] = array
        truths = np.asarray(snapshot["truths"], dtype=float)
        weights = np.asarray(snapshot["weights"], dtype=float)
        seen = np.asarray(snapshot["seen_objects"], dtype=bool)
        if (truths.shape != (num_objects,) or seen.shape != (num_objects,)
                or weights.shape != (num_users,)):
            raise ValueError("snapshot vectors have the wrong shape")
        decay = ensure_in_range(
            snapshot["decay"], "decay", 0.0, 1.0, low_inclusive=False
        )
        sweeps = ensure_int(
            snapshot["refine_sweeps"], "refine_sweeps", minimum=1
        )
        batches = ensure_int(snapshot["batches"], "batches", minimum=0)
        # Subclass hyper-parameters validate-then-assign atomically, and
        # run before any base mutation: a rejected snapshot must leave
        # the live estimator exactly as it was, never in a torn hybrid.
        self._set_params(snapshot)
        self._decay = decay
        self._sweeps = sweeps
        self._batches = batches
        for attr, array in stats.items():
            setattr(self, attr, array.copy())
        self._truths = truths.copy()
        self._weights = weights.copy()
        self._seen_objects = seen.copy()
        self._all_seen = bool(np.logical_and.reduce(seen))
        # (Older snapshots may carry sub-floor residue: settle it.)
        self._settle()
        self._tally_users()

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "StreamingEstimator":
        """Rebuild a stream from a :meth:`snapshot` dict (checkpoint load)."""
        stream = cls(
            num_users=int(snapshot["num_users"]),
            num_objects=int(snapshot["num_objects"]),
            decay=float(snapshot["decay"]),
            refine_sweeps=int(snapshot["refine_sweeps"]),
        )
        stream.restore(snapshot)
        return stream

    # ------------------------------------------------------------------
    def _normalised_weights(self) -> np.ndarray:
        """A fresh array of the weights at mean 1 over active users;
        inactive users read 1.  With every user active that is one
        product, ``w * (S / sum(w))``: the masked form's sum and scale,
        bit for bit."""
        weights, active = self._weights, self._active
        if self._all_active:
            total = np.add.reduce(weights)
            if total > 0:
                return weights * (weights.size / total)
        out = np.ones(weights.size)
        if np.logical_or.reduce(active):
            total = np.add.reduce(weights[active])
            if total > 0:
                out[active] = weights[active] * (np.add.reduce(active) / total)
        return out


class StreamingCRH(StreamingEstimator):
    """Incremental CRH over claim batches with exponential forgetting.

    Retained statistics: per-cell weighted value sums (``value_sum``)
    and claim counts (``value_weight``).  Each sweep re-derives truths
    as count-and-weight-weighted cell-mean averages and user weights
    with Eq. 3's -log-share rule over the retained squared residuals.
    """

    kind = "crh"
    _STAT_FIELDS = {"value_sum": "_sums", "value_weight": "_counts"}
    #: Per-cell ``value_sum**2 / value_weight`` (0 where empty), whose
    #: row sums are the ``sq_total`` of ``sum_n (mean - t)**2 * weight``.
    #: Allocated at the first refine, kept current per touched cell by
    #: a sparse fold, refilled by a dense fold and after decay and
    #: restore.
    _sq_cache = None

    def _fold(self, cells: np.ndarray, values: np.ndarray) -> None:
        super()._fold(cells, values)
        if self._sq_cache is None:
            return
        if cells.size * _DENSE_FOLD_CELLS >= self._sq_cache.size:
            self._fill_sq_cache()  # dense: one pass over every cell
        else:
            sums = self._sums.reshape(-1)[cells]
            self._sq_cache.reshape(-1)[cells] = (
                sums * sums / self._counts.reshape(-1)[cells]
            )

    def _settle(self) -> None:
        super()._settle()
        if self._sq_cache is not None:
            self._fill_sq_cache()

    def _fill_sq_cache(self) -> None:
        """``sums**2 / counts`` in every cell.  Dividing by the floored
        count is dividing by the count in a present cell and gives 0 in
        an empty one (invariant 1), ~4x cheaper than ``where=``.  Rows
        go in blocks of about ``_FILL_BLOCK_CELLS``, so the floored
        counts never take a whole ``(S, N)`` temporary."""
        rows = max(1, _FILL_BLOCK_CELLS // self._num_objects)
        for start in range(0, self._num_users, rows):
            block = slice(start, start + rows)
            sums = self._sums[block]
            squares = np.multiply(sums, sums, out=self._sq_cache[block])
            squares /= np.maximum(self._counts[block], _PRESENCE_FLOOR)

    def _refine(self) -> None:
        if self._sq_cache is None:
            self._sq_cache = np.empty_like(self._sums)
            self._fill_sq_cache()
        self._alternate(
            self._sq_cache @ self._ones_objects, _DISTANCE_FLOOR,
            self._log_shares,
        )

    def _log_shares(self, distances: np.ndarray) -> np.ndarray:
        """Eq. 3's -log-share weights, mean 1 over active users (the
        whole vector, in place, when every user is active)."""
        raw = distances if self._all_active else distances[self._active]
        raw /= np.add.reduce(raw)
        # The clip as two in-place ufuncs (np.clip's wrapper costs more
        # than both on a few hundred values).
        np.maximum(raw, 1e-300, out=raw)
        np.minimum(raw, 1.0 - 1e-12, out=raw)
        np.log(raw, out=raw)
        # The negation folds into the scale: -x * (n / sum(-x)) is
        # x * (n / sum(x)) exactly, IEEE rounding being sign-symmetric.
        raw *= raw.size / np.add.reduce(raw)
        if self._all_active:
            return raw
        weights = np.ones(self._num_users)
        weights[self._active] = raw
        return weights


class _MomentStreamingEstimator(StreamingEstimator):
    """Base for estimators over per-cell (count, sum, sum-of-squares):
    the sufficient statistics of every squared-residual quantity the
    GTM and CATD updates need (see :meth:`_sq_distances`), so per-user
    distances and EM residuals come exactly from O(S x N) state."""

    _STAT_FIELDS = {"counts": "_counts", "sums": "_sums", "sumsq": "_sumsq"}

    def _fold(self, cells: np.ndarray, values: np.ndarray) -> None:
        super()._fold(cells, values)
        np.add.at(self._sumsq.reshape(-1), cells, values**2)

    @property
    def weights(self) -> np.ndarray:
        """Raw model weights, mean-1 normalised over active users."""
        return self._normalised_weights()


class StreamingGTM(_MomentStreamingEstimator):
    """Incremental Gaussian Truth Model over moment statistics.

    Mirrors :class:`~repro.truthdiscovery.gtm.GTM` — per-object
    standardisation, posterior-mean truth updates, inverse-gamma MAP
    variance updates — but against retained per-cell moments instead of
    a claim matrix.  Each refinement recomputes the per-object z-score
    parameters from the retained column moments (the batch model
    computes them once per fit from the same evidence), then runs the
    EM sweeps in standardised space and maps the truths back.

    ``weights`` exposes precisions normalised to mean 1 over active
    users (the batch fit's reporting convention); the raw precisions —
    the EM state the posterior-mean shrinkage depends on — persist
    internally and in snapshots.

    Parameters
    ----------
    prior_mean, prior_variance, alpha, beta, variance_floor:
        As in :class:`~repro.truthdiscovery.gtm.GTM` (priors live in
        standardised claim space).
    """

    kind = "gtm"
    _PARAMS = {
        "prior_mean": ("_mu0", lambda value, name: float(value)),
        "prior_variance": ("_sigma0_sq", ensure_positive),
        "alpha": ("_alpha", ensure_positive),
        "beta": ("_beta", ensure_positive),
        "variance_floor": ("_var_floor", ensure_positive),
    }

    def __init__(
        self,
        num_users: int,
        num_objects: int,
        *,
        decay: float = 0.95,
        refine_sweeps: int = 2,
        prior_mean: float = 0.0,
        prior_variance: float = 1.0,
        alpha: float = 2.0,
        beta: float = 0.5,
        variance_floor: float = 1e-8,
    ) -> None:
        super().__init__(
            num_users, num_objects, decay=decay, refine_sweeps=refine_sweeps
        )
        self._set_params({
            "prior_mean": prior_mean, "prior_variance": prior_variance,
            "alpha": alpha, "beta": beta, "variance_floor": variance_floor,
        })
        self._ones_users = np.ones(num_users)

    def _refine(self) -> None:
        counts, sums, sumsq = self._counts, self._sums, self._sumsq
        # Per-object standardisation from the column moments, matching
        # ClaimMatrix.object_means / object_stds (population variance,
        # std floored at 1e-12) on duplicate-free data.  An unseen
        # column's cells are all exactly 0 (invariant 1), so dividing by
        # the floored count gives it m = 0 without a mask.
        ones = self._ones_users
        col_counts = ones @ counts
        seen = col_counts > _PRESENCE_FLOOR
        safe_counts = np.maximum(col_counts, _PRESENCE_FLOOR)
        m = (ones @ sums) / safe_counts
        var = np.maximum((ones @ sumsq) / safe_counts - m**2, 0.0)
        s = np.sqrt(np.maximum(var, 1e-24))
        # Standardised claims are z = x * r - shift.  A column at the
        # std floor reads as all-zero z-scores (r = 0): its deviations
        # are rounding noise, and 1e24-scaled terms in a dot product
        # would drown every other column of the same user.
        r = np.where(var > 1e-24, 1.0 / s, 0.0)
        shift = m * r
        sq_total = sumsq @ (r * r)
        prior = self._mu0 / self._sigma0_sq
        prior_precision = 1.0 / self._sigma0_sq
        shape = self._alpha + 1.0 + 0.5 * self._per_user
        precisions = self._weights
        for _ in range(self._sweeps):
            # Truth update: posterior mean of mu_n given precisions.
            mass = precisions @ counts
            num = prior + ((precisions @ sums) * r - mass * shift)
            mu = num / (prior_precision + mass)
            # Quality update: MAP of the inverse-gamma posterior from
            # the exact standardised residuals around mu.
            centre = shift + mu
            variances = self._sq_distances(sq_total, centre * r, centre**2)
            variances *= 0.5
            variances += self._beta
            variances /= shape
            np.maximum(variances, self._var_floor, out=variances)
            if self._all_active:
                precisions = np.divide(1.0, variances, out=variances)
            else:
                precisions = np.where(self._active, 1.0 / variances, 1.0)
        self._weights = precisions
        truths = mu * s + m
        self._truths = truths if np.logical_and.reduce(seen) else np.where(
            seen, truths, self._truths
        )


class StreamingCATD(_MomentStreamingEstimator):
    """Incremental CATD (squared distance) over moment statistics.

    Mirrors :class:`~repro.truthdiscovery.catd.CATD` with its default
    squared distance: truths are Eq. 1 weighted averages (cell counts
    weighting repeated evidence), and user weights are the chi-squared
    confidence bound ``chi2.ppf(significance / 2, df=N_s) / distance``
    with the *exact* per-user squared distance recovered from the
    moments.  ``N_s`` is the user's retained claim count (fractional
    under decay; scipy's ``chi2.ppf`` accepts real df).

    ``weights`` exposes the mean-1 normalisation over active users;
    raw chi-squared weights persist internally (Eq. 1 is scale
    invariant, so this is presentation only).

    Parameters
    ----------
    significance, distance_floor:
        As in :class:`~repro.truthdiscovery.catd.CATD`.
    """

    kind = "catd"
    _PARAMS = {
        "significance": ("_significance", lambda value, name: ensure_in_range(
            value, name, 0.0, 1.0, low_inclusive=False, high_inclusive=False
        )),
        "distance_floor": ("_floor", ensure_positive),
    }

    def __init__(
        self,
        num_users: int,
        num_objects: int,
        *,
        decay: float = 0.95,
        refine_sweeps: int = 2,
        significance: float = 0.05,
        distance_floor: float = 1e-8,
    ) -> None:
        super().__init__(
            num_users, num_objects, decay=decay, refine_sweeps=refine_sweeps
        )
        self._set_params({
            "significance": significance, "distance_floor": distance_floor,
        })

    def _set_params(self, values: dict) -> None:
        super()._set_params(values)
        self._quantile_table = np.empty(0)  # per significance

    def _quantiles(self, dof: np.ndarray) -> np.ndarray:
        """``chi2.ppf(significance / 2, dof)``.  Integer dofs (claim
        counts without decay) below the cap come from a table indexed by
        dof, extended a block at a time: ``ppf`` costs ~0.15 ms a call
        before its first element.  Others go straight to scipy."""
        from scipy import stats

        half = self._significance / 2.0
        index = dof.astype(np.int64)
        top = int(np.maximum.reduce(index))
        if top >= _QUANTILE_TABLE_CAP or np.logical_or.reduce(index != dof):
            return stats.chi2.ppf(half, df=dof)
        held = self._quantile_table.size
        if top >= held:
            more = np.arange(
                held, _QUANTILE_BLOCK * (top // _QUANTILE_BLOCK + 1), dtype=float
            )
            self._quantile_table = np.append(
                self._quantile_table, stats.chi2.ppf(half, df=more)
            )
        return self._quantile_table[index]

    def _refine(self) -> None:
        # The df never changes within a refinement, so the (relatively
        # expensive) chi-squared quantile is looked up once per refine,
        # not once per sweep.
        quantiles = np.maximum(
            self._quantiles(np.maximum(self._per_user, 1.0)), 1e-12
        )
        # Confidence-aware weights from the exact squared distances.
        if self._all_active:
            def reweigh(distances):
                return np.divide(quantiles, distances, out=distances)
        else:
            def reweigh(distances):
                return np.where(self._active, quantiles / distances, 1.0)
        self._alternate(
            self._sumsq @ self._ones_objects, self._floor, reweigh
        )


#: Streaming estimator per batch-method registry name.  Methods absent
#: here (baselines, ablation variants) have no streaming counterpart
#: and fall back to the full-refit backend in the service layer.
STREAMING_ESTIMATORS: dict[str, type] = {
    "crh": StreamingCRH,
    "gtm": StreamingGTM,
    "catd": StreamingCATD,
}
