"""Weight-estimation quality metrics (Fig. 7 support).

The paper's Fig. 7 compares, for selected users, the weight a truth
discovery method *estimates* against the "true weight" — the weight the
same method would assign if it knew the ground truth ("we obtain the
groundtruth distance by measuring the hallway segments manually. This
enables us to derive the true weight of each user").

:func:`true_weights` formalises that: run the method's weight-estimation
step once with the ground truth in place of the learned truths.
Correlation metrics summarise how well estimated weights track true
weights across the whole population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.truthdiscovery.base import TruthDiscoveryMethod
from repro.truthdiscovery.claims import ClaimMatrix


def true_weights(
    method: TruthDiscoveryMethod,
    claims: ClaimMatrix,
    ground_truth: np.ndarray,
) -> np.ndarray:
    """Weights the method would assign given oracle truths.

    Applies the method's own ``estimate_weights`` with ``ground_truth``
    as the aggregated results, then normalises to mean 1 (the same
    normalisation :meth:`TruthDiscoveryMethod.fit` applies), so values
    are directly comparable to ``fit(...).weights``.
    """
    ground_truth = np.asarray(ground_truth, dtype=float)
    if ground_truth.shape != (claims.num_objects,):
        raise ValueError(
            f"ground_truth must have shape ({claims.num_objects},), got "
            f"{ground_truth.shape}"
        )
    weights = np.asarray(
        method.estimate_weights(claims, ground_truth), dtype=float
    )
    total = weights.sum()
    if total <= 0:
        return np.ones_like(weights)
    return weights * (len(weights) / total)


@dataclass(frozen=True)
class WeightComparison:
    """Estimated-vs-true weight agreement summary."""

    pearson: float
    spearman: float
    mean_absolute_gap: float

    @classmethod
    def compare(
        cls, estimated: np.ndarray, true: np.ndarray
    ) -> "WeightComparison":
        estimated = np.asarray(estimated, dtype=float)
        true = np.asarray(true, dtype=float)
        if estimated.shape != true.shape:
            raise ValueError(
                f"shape mismatch: {estimated.shape} vs {true.shape}"
            )
        if estimated.size < 2:
            raise ValueError("need at least two users to correlate")
        if np.std(estimated) == 0 or np.std(true) == 0:
            pearson = 0.0
            spearman = 0.0
        else:
            from scipy import stats

            pearson = float(stats.pearsonr(estimated, true).statistic)
            spearman = float(stats.spearmanr(estimated, true).statistic)
        return cls(
            pearson=pearson,
            spearman=spearman,
            mean_absolute_gap=float(np.mean(np.abs(estimated - true))),
        )


def weight_rank_agreement(
    estimated: np.ndarray, true: np.ndarray, *, top_k: int = 10
) -> float:
    """Fraction of the true top-k users recovered in the estimated top-k.

    A deployment-relevant view: servers often shortlist reliable users
    for follow-up tasks; this measures whether perturbation preserves
    that shortlist.
    """
    estimated = np.asarray(estimated, dtype=float)
    true = np.asarray(true, dtype=float)
    if estimated.shape != true.shape:
        raise ValueError(f"shape mismatch: {estimated.shape} vs {true.shape}")
    k = min(top_k, estimated.size)
    if k == 0:
        return 1.0
    top_est = set(np.argsort(estimated)[-k:].tolist())
    top_true = set(np.argsort(true)[-k:].tolist())
    return len(top_est & top_true) / k
