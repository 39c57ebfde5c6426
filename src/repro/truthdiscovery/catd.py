"""CATD — Confidence-Aware Truth Discovery (Li et al., VLDB 2015).

A third continuous-data truth discovery method, included to back the
paper's claim that the perturbation mechanism "can work with any truth
discovery method that can handle continuous data" (Section 3.1).

CATD addresses the long-tail phenomenon: most users contribute few
claims, so point estimates of their quality are unreliable.  Instead of
the plain inverse-distance weight, CATD uses the upper bound of a
(1 - alpha) confidence interval of the error-variance estimate:

    w_s = chi2.ppf(alpha/2, df=N_s) / sum_n d(x^s_n, x*_n)

where ``N_s`` is the number of claims by user ``s``.  Users with few
observations get shrunk toward lower weight because the chi-squared
quantile grows sub-linearly in the claim count.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.truthdiscovery.base import TruthDiscoveryMethod
from repro.truthdiscovery.claims import ClaimMatrix
from repro.truthdiscovery.convergence import ConvergenceCriterion
from repro.truthdiscovery.distance import DistanceFn, get_distance
from repro.utils.validation import ensure_in_range, ensure_positive


class CATD(TruthDiscoveryMethod):
    """Confidence-aware truth discovery for continuous data.

    Parameters
    ----------
    significance:
        The ``alpha`` of the chi-squared confidence interval (default
        0.05, i.e. a 95% interval, the value used in the CATD paper).
    distance:
        Distance function; default plain squared distance, matching the
        CATD formulation (variance estimation, not normalised loss).
    distance_floor:
        Lower clip on per-user total distance (same role as in CRH).
    """

    name = "catd"

    def __init__(
        self,
        *,
        significance: float = 0.05,
        distance: Union[str, DistanceFn] = "squared",
        distance_floor: float = 1e-8,
        convergence: Optional[ConvergenceCriterion] = None,
    ) -> None:
        super().__init__(convergence=convergence)
        self._significance = ensure_in_range(
            significance, "significance", 0.0, 1.0,
            low_inclusive=False, high_inclusive=False,
        )
        self._distance = get_distance(distance)
        self._floor = ensure_positive(distance_floor, "distance_floor")

    def estimate_weights(
        self, claims: ClaimMatrix, truths: np.ndarray
    ) -> np.ndarray:
        from scipy import stats

        distances = np.maximum(self._distance(claims, truths), self._floor)
        counts = np.maximum(claims.observation_counts, 1)
        quantiles = stats.chi2.ppf(self._significance / 2.0, df=counts)
        # chi2.ppf can be 0 for tiny df at extreme significance; floor so
        # every participating user retains a positive weight.
        quantiles = np.maximum(quantiles, 1e-12)
        return quantiles / distances

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CATD(significance={self._significance})"
