"""Truth discovery substrate: data model, framework, and methods.

Implements the paper's Algorithm 1 (the generic aggregation /
weight-estimation loop) and the concrete methods used or referenced in the
evaluation: CRH (Eq. 3), GTM, CATD, and the naive mean/median baselines.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AccuracyEM": "repro.truthdiscovery.categorical",
    "CATD": "repro.truthdiscovery.catd",
    "CRH": "repro.truthdiscovery.crh",
    "CategoricalClaimMatrix": "repro.truthdiscovery.categorical",
    "CategoricalResult": "repro.truthdiscovery.categorical",
    "ClaimBatch": "repro.truthdiscovery.streaming",
    "MajorityVoting": "repro.truthdiscovery.categorical",
    "STREAMING_ESTIMATORS": "repro.truthdiscovery.streaming",
    "StreamingCATD": "repro.truthdiscovery.streaming",
    "StreamingCRH": "repro.truthdiscovery.streaming",
    "StreamingEstimator": "repro.truthdiscovery.streaming",
    "StreamingGTM": "repro.truthdiscovery.streaming",
    "WeightedVoting": "repro.truthdiscovery.categorical",
    "generate_categorical_dataset": "repro.truthdiscovery.categorical",
    "ClaimMatrix": "repro.truthdiscovery.claims",
    "CombinedCriterion": "repro.truthdiscovery.convergence",
    "ConvergenceCriterion": "repro.truthdiscovery.convergence",
    "FixedIterationsCriterion": "repro.truthdiscovery.convergence",
    "GTM": "repro.truthdiscovery.gtm",
    "GTMWeightedAggregateOnly": "repro.truthdiscovery.gtm",
    "MeanAggregator": "repro.truthdiscovery.baselines",
    "MedianAggregator": "repro.truthdiscovery.baselines",
    "TrimmedMeanAggregator": "repro.truthdiscovery.baselines",
    "TruthChangeCriterion": "repro.truthdiscovery.convergence",
    "TruthDiscoveryMethod": "repro.truthdiscovery.base",
    "TruthDiscoveryResult": "repro.truthdiscovery.base",
    "WeightChangeCriterion": "repro.truthdiscovery.convergence",
    "available_distances": "repro.truthdiscovery.distance",
    "available_methods": "repro.truthdiscovery.registry",
    "create_method": "repro.truthdiscovery.registry",
    "default_criterion": "repro.truthdiscovery.convergence",
    "get_distance": "repro.truthdiscovery.distance",
    "register_distance": "repro.truthdiscovery.distance",
    "register_method": "repro.truthdiscovery.registry",
    "stack_claims": "repro.truthdiscovery.claims",
    "weighted_aggregate": "repro.truthdiscovery.base",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
