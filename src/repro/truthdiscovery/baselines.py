"""Naive aggregation baselines: mean, median, trimmed mean.

Sections 1 and 3 of the paper contrast truth discovery with "the naive
approach that regards all the users equally in aggregation" and with
"traditional aggregation methods, such as mean or median, which do not
consider user weights".  These baselines make that comparison runnable
(see ``repro run ablation-methods``).

They are implemented as degenerate :class:`TruthDiscoveryMethod`
subclasses — uniform weights, one iteration — so that every experiment can
treat them interchangeably with CRH/GTM/CATD.
"""

from __future__ import annotations

import numpy as np

from repro.truthdiscovery.base import TruthDiscoveryMethod
from repro.truthdiscovery.claims import ClaimMatrix
from repro.truthdiscovery.convergence import FixedIterationsCriterion
from repro.utils.validation import ensure_in_range


class MeanAggregator(TruthDiscoveryMethod):
    """Unweighted per-object mean (the canonical naive baseline)."""

    name = "mean"

    def __init__(self) -> None:
        super().__init__(convergence=FixedIterationsCriterion(iterations=1))

    def estimate_weights(
        self, claims: ClaimMatrix, truths: np.ndarray
    ) -> np.ndarray:
        return np.ones(claims.num_users)


class MedianAggregator(TruthDiscoveryMethod):
    """Per-object median of observed claims (robust naive baseline)."""

    name = "median"

    def __init__(self) -> None:
        super().__init__(convergence=FixedIterationsCriterion(iterations=1))

    def estimate_weights(
        self, claims: ClaimMatrix, truths: np.ndarray
    ) -> np.ndarray:
        return np.ones(claims.num_users)

    def aggregate(self, claims: ClaimMatrix, weights: np.ndarray) -> np.ndarray:
        out = np.empty(claims.num_objects)
        for n in range(claims.num_objects):
            out[n] = float(np.median(claims.claims_for_object(n)))
        return out


class TrimmedMeanAggregator(TruthDiscoveryMethod):
    """Per-object mean after trimming a fraction from each tail.

    ``trim=0.0`` reduces to the mean; ``trim`` approaching 0.5 approaches
    the median.  A standard robust-statistics midpoint between the two
    naive baselines.
    """

    name = "trimmed_mean"

    def __init__(self, trim: float = 0.1) -> None:
        super().__init__(convergence=FixedIterationsCriterion(iterations=1))
        self._trim = ensure_in_range(
            trim, "trim", 0.0, 0.5, high_inclusive=False
        )

    def estimate_weights(
        self, claims: ClaimMatrix, truths: np.ndarray
    ) -> np.ndarray:
        return np.ones(claims.num_users)

    def aggregate(self, claims: ClaimMatrix, weights: np.ndarray) -> np.ndarray:
        out = np.empty(claims.num_objects)
        for n in range(claims.num_objects):
            vals = np.sort(claims.claims_for_object(n))
            k = int(len(vals) * self._trim)
            trimmed = vals[k : len(vals) - k] if len(vals) > 2 * k else vals
            out[n] = float(trimmed.mean())
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrimmedMeanAggregator(trim={self._trim})"
