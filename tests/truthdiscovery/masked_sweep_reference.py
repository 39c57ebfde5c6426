"""Frozen sparse fold and masked sweeps of the three streaming estimators.

This is the arithmetic ``repro.truthdiscovery.streaming`` used before a
batch covering a large share of the cells was folded densely and before
the sweeps dropped their masks when every user is active and every
object present: counts and value columns are scattered claim by claim,
CRH's ``sums**2 / counts`` cache is gathered and scattered per claim,
seen objects are or-ed in from a bincount on every ingest, and every
sweep builds its active-user and present-object masks.  It exists only
as the reference the bitwise-equivalence property compares the library
against; do not "modernise" it.

Each class puts :class:`MaskedSweeps` ahead of the library estimator in
its MRO, so construction, ``snapshot()``, ``restore()`` and the CATD
quantile memo are the library's, and every fold and sweep step is this
file's.
"""

import numpy as np

from repro.truthdiscovery.streaming import (
    StreamingCATD,
    StreamingCRH,
    StreamingGTM,
)

DISTANCE_FLOOR = 1e-8
PRESENCE_FLOOR = 1e-12


class MaskedSweeps:
    """The shared ingest, fold and sweep primitives, as frozen."""

    def ingest(self, batch, *, decay_steps=1):
        if decay_steps < 0:
            raise ValueError(f"decay_steps must be >= 0, got {decay_steps}")
        if batch.users.max() >= self._num_users or batch.users.min() < 0:
            raise ValueError("batch user index out of range")
        if batch.objects.max() >= self._num_objects or batch.objects.min() < 0:
            raise ValueError("batch object index out of range")
        if decay_steps and self._decay < 1.0:
            factor = self._decay**decay_steps
            for array in self._stat_arrays().values():
                array *= factor
            self._settle()
        self._fold_claims(
            batch.users * self._num_objects + batch.objects, batch.values
        )
        self._seen_objects |= np.bincount(
            batch.objects, minlength=self._num_objects
        ).astype(bool)
        self._batches += 1
        self._tally_users()
        if self._active.any():
            self._refine()
        return self.truths

    def _fold_claims(self, cells, values):
        np.add.at(self._counts.reshape(-1), cells, 1.0)
        np.add.at(self._sums.reshape(-1), cells, values)

    def _settle(self):
        counts = self._counts
        faded = ~(counts > PRESENCE_FLOOR) & (counts != 0.0)
        if faded.any():
            for array in self._stat_arrays().values():
                array[faded] = 0.0

    def _tally_users(self):
        self._per_user = self._counts @ self._ones_objects
        self._active = self._per_user > 0.0

    def _alternate(self, sq_total, floor, reweigh):
        weights, truths = self._weights, self._truths
        for _ in range(self._sweeps):
            totals = weights @ self._counts
            truths = np.where(
                totals > PRESENCE_FLOOR,
                (weights @ self._sums) / np.maximum(totals, PRESENCE_FLOOR),
                truths,
            )
            weights = reweigh(np.maximum(
                self._sq_distances(sq_total, truths, truths * truths), floor
            ))
        self._weights, self._truths = weights, truths

    def _sq_distances(self, sq_total, lin, quad):
        return np.maximum(
            sq_total - 2.0 * (self._sums @ lin) + self._counts @ quad, 0.0
        )


class MaskedCRH(MaskedSweeps, StreamingCRH):
    _sq_cache = None

    def _fold_claims(self, cells, values):
        super()._fold_claims(cells, values)
        if self._sq_cache is not None:
            sums = self._sums.reshape(-1)[cells]
            self._sq_cache.reshape(-1)[cells] = (
                sums * sums / self._counts.reshape(-1)[cells]
            )

    def _settle(self):
        super()._settle()
        if self._sq_cache is not None:
            self._fill_sq_cache()

    def _fill_sq_cache(self):
        np.multiply(self._sums, self._sums, out=self._sq_cache)
        np.divide(
            self._sq_cache, self._counts, out=self._sq_cache,
            where=self._counts > 0.0,
        )

    def _refine(self):
        if self._sq_cache is None:
            self._sq_cache = np.empty_like(self._sums)
            self._fill_sq_cache()
        self._alternate(
            self._sq_cache @ self._ones_objects, DISTANCE_FLOOR,
            self._log_shares,
        )

    def _log_shares(self, distances):
        picked = distances[self._active]
        raw = -np.log(np.clip(picked / picked.sum(), 1e-300, 1.0 - 1e-12))
        weights = np.ones(self._num_users)
        weights[self._active] = raw * (raw.size / raw.sum())
        return weights


class MaskedMoments(MaskedSweeps):
    def _fold_claims(self, cells, values):
        super()._fold_claims(cells, values)
        np.add.at(self._sumsq.reshape(-1), cells, values**2)


class MaskedGTM(MaskedMoments, StreamingGTM):
    def _refine(self):
        counts, sums, sumsq = self._counts, self._sums, self._sumsq
        ones = np.ones(self._num_users)
        col_counts = ones @ counts
        seen = col_counts > PRESENCE_FLOOR
        safe_counts = np.maximum(col_counts, PRESENCE_FLOOR)
        m = np.where(seen, (ones @ sums) / safe_counts, 0.0)
        var = np.maximum((ones @ sumsq) / safe_counts - m**2, 0.0)
        s = np.sqrt(np.maximum(var, 1e-24))
        r = np.where(var > 1e-24, 1.0 / s, 0.0)
        shift = m * r
        sq_total = sumsq @ (r * r)
        precisions = self._weights
        for _ in range(self._sweeps):
            mass = precisions @ counts
            num = self._mu0 / self._sigma0_sq + (
                (precisions @ sums) * r - mass * shift
            )
            mu = num / (1.0 / self._sigma0_sq + mass)
            centre = shift + mu
            residual = self._sq_distances(sq_total, centre * r, centre**2)
            variances = (self._beta + 0.5 * residual) / (
                self._alpha + 1.0 + 0.5 * self._per_user
            )
            variances = np.maximum(variances, self._var_floor)
            precisions = np.where(self._active, 1.0 / variances, 1.0)
        self._weights = precisions
        self._truths = np.where(seen, mu * s + m, self._truths)


class MaskedCATD(MaskedMoments, StreamingCATD):
    def _refine(self):
        quantiles = np.maximum(
            self._quantiles(np.maximum(self._per_user, 1.0)), 1e-12
        )
        self._alternate(
            self._sumsq @ self._ones_objects, self._floor,
            lambda distances: np.where(
                self._active, quantiles / distances, 1.0
            ),
        )


MASKED = {"crh": MaskedCRH, "gtm": MaskedGTM, "catd": MaskedCATD}
