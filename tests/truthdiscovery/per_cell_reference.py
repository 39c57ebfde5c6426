"""Frozen per-cell refinement of the three streaming estimators.

This is the arithmetic ``repro.truthdiscovery.streaming`` used before
its sweeps became matrix-vector products: every quantity is formed cell
by cell under an explicit presence mask, and sub-floor residue is
masked, never flushed.  It exists only as the reference the equivalence
tests compare the library against; do not "modernise" it.

The one addition is a diagnostic, ``conditioning``: the smallest
distance above the distance floor that a CRH/CATD sweep met, as a share
of that user's summed squared claims.  A moment expansion resolves a
distance to about ``eps / conditioning`` relative, so a test can tell a
stream on which two roundings of it may legitimately part (a user
sitting within 1e-6 of the truths, short of the floor) from a defect.
"""

import numpy as np
from scipy import stats

FLOOR = 1e-12  # presence
DISTANCE_FLOOR = 1e-8  # CRH and CATD (default distance_floor)


def normalise_active(weights, active):
    out = np.ones(weights.shape[0])
    if active.any() and weights[active].sum() > 0:
        out[active] = weights[active] * (active.sum() / weights[active].sum())
    return out


class PerCellReference:
    """``kind`` in {"crh", "gtm", "catd"} at the library's default
    hyper-parameters; ``raw_weights`` is what a snapshot stores."""

    def __init__(self, kind, num_users, num_objects, *, decay, sweeps=2):
        self.kind, self.decay, self.sweeps = kind, decay, sweeps
        self.counts = np.zeros((num_users, num_objects))
        self.sums = np.zeros((num_users, num_objects))
        self.sumsq = np.zeros((num_users, num_objects))
        self.truths = np.zeros(num_objects)
        self.raw_weights = np.ones(num_users)
        self.conditioning = np.inf

    @property
    def weights(self):
        if self.kind == "crh":
            return self.raw_weights
        return normalise_active(
            self.raw_weights, self.counts.sum(axis=1) > FLOOR
        )

    def ingest(self, batch, decay_steps=1):
        for array, addend in (
            (self.counts, 1.0),
            (self.sums, batch.values),
            (self.sumsq, batch.values**2),
        ):
            array *= self.decay**decay_steps
            np.add.at(array, (batch.users, batch.objects), addend)
        present = self.counts > FLOOR
        if present.any():
            getattr(self, f"_refine_{self.kind}")(present, present.any(axis=1))

    def _note_conditioning(self, distances, sq_total, active):
        live = active & (distances > 0.5 * DISTANCE_FLOOR)
        if live.any():
            shares = distances[live] / np.maximum(sq_total[live], 1e-300)
            self.conditioning = min(self.conditioning, float(shares.min()))

    def _residual_sq(self, truths, present):
        res = self.sumsq - 2.0 * truths * self.sums + self.counts * truths**2
        return np.maximum(np.where(present, res, 0.0), 0.0)

    def _refine_crh(self, present, active):
        means = np.where(present, self.sums / np.maximum(self.counts, FLOOR), 0.0)
        for _ in range(self.sweeps):
            w = np.where(present, self.raw_weights[:, None] * self.counts, 0.0)
            totals = w.sum(axis=0)
            self.truths = np.where(
                totals > FLOOR,
                (w * means).sum(axis=0) / np.maximum(totals, FLOOR),
                self.truths,
            )
            distances = np.where(
                present, (means - self.truths) ** 2 * self.counts, 0.0
            ).sum(axis=1)
            self._note_conditioning(
                distances, (means**2 * self.counts).sum(axis=1), active
            )
            distances = np.maximum(distances, DISTANCE_FLOOR)
            shares = distances[active] / distances[active].sum()
            weights = np.ones(active.size)
            weights[active] = -np.log(np.clip(shares, 1e-300, 1.0 - 1e-12))
            self.raw_weights = normalise_active(weights, active)

    def _refine_gtm(self, present, active, mu0=0.0, sigma0_sq=1.0,
                    alpha=2.0, beta=0.5, var_floor=1e-8):
        col_counts = self.counts.sum(axis=0)
        seen = col_counts > FLOOR
        safe = np.maximum(col_counts, FLOOR)
        m = np.where(seen, self.sums.sum(axis=0) / safe, 0.0)
        var = np.maximum(self.sumsq.sum(axis=0) / safe - m**2, 0.0)
        s = np.sqrt(np.maximum(var, 1e-24))
        z_sum = np.where(present, (self.sums - self.counts * m) / s, 0.0)
        z_sumsq = self._residual_sq(m, present) / s**2
        precisions = self.raw_weights
        for _ in range(self.sweeps):
            p = precisions[:, None]
            mu = (
                mu0 / sigma0_sq + np.where(present, p * z_sum, 0.0).sum(axis=0)
            ) / (
                1.0 / sigma0_sq
                + np.where(present, p * self.counts, 0.0).sum(axis=0)
            )
            residual = np.where(
                present, z_sumsq - 2.0 * mu * z_sum + self.counts * mu**2, 0.0
            )
            residual = np.maximum(residual, 0.0).sum(axis=1)
            variances = (beta + 0.5 * residual) / (
                alpha + 1.0 + 0.5 * self.counts.sum(axis=1)
            )
            precisions = np.where(
                active, 1.0 / np.maximum(variances, var_floor), 1.0
            )
        self.raw_weights = precisions
        self.truths = np.where(seen, mu * s + m, self.truths)

    def _refine_catd(self, present, active, significance=0.05):
        quantiles = np.maximum(stats.chi2.ppf(
            significance / 2.0, df=np.maximum(self.counts.sum(axis=1), 1.0)
        ), 1e-12)
        for _ in range(self.sweeps):
            w = self.raw_weights[:, None]
            totals = np.where(present, w * self.counts, 0.0).sum(axis=0)
            self.truths = np.where(
                totals > FLOOR,
                np.where(present, w * self.sums, 0.0).sum(axis=0)
                / np.maximum(totals, FLOOR),
                self.truths,
            )
            distances = self._residual_sq(self.truths, present).sum(axis=1)
            self._note_conditioning(
                distances, np.where(present, self.sumsq, 0.0).sum(axis=1),
                active,
            )
            self.raw_weights = np.where(
                active, quantiles / np.maximum(distances, DISTANCE_FLOOR), 1.0
            )
