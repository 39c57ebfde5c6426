"""Evaluation metrics: aggregation accuracy, weight quality, empirical privacy."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AccuracyReport": "repro.metrics.accuracy",
    "EmpiricalEpsilonEstimate": "repro.metrics.empirical_privacy",
    "WeightComparison": "repro.metrics.weights",
    "distinguishing_advantage": "repro.metrics.empirical_privacy",
    "empirical_epsilon": "repro.metrics.empirical_privacy",
    "mae": "repro.metrics.accuracy",
    "max_abs_error": "repro.metrics.accuracy",
    "relative_mae": "repro.metrics.accuracy",
    "rmse": "repro.metrics.accuracy",
    "true_weights": "repro.metrics.weights",
    "weight_rank_agreement": "repro.metrics.weights",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
