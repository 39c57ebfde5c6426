"""Truth discovery substrate: data model, framework, and methods.

Implements the paper's Algorithm 1 (the generic aggregation /
weight-estimation loop) and the concrete methods used or referenced in the
evaluation: CRH (Eq. 3), GTM, CATD, and the naive mean/median baselines.
"""

from repro.truthdiscovery.base import (
    TruthDiscoveryMethod,
    TruthDiscoveryResult,
    weighted_aggregate,
)
from repro.truthdiscovery.categorical import (
    AccuracyEM,
    CategoricalClaimMatrix,
    CategoricalResult,
    MajorityVoting,
    WeightedVoting,
    generate_categorical_dataset,
)
from repro.truthdiscovery.baselines import (
    MeanAggregator,
    MedianAggregator,
    TrimmedMeanAggregator,
)
from repro.truthdiscovery.catd import CATD
from repro.truthdiscovery.claims import ClaimMatrix, stack_claims
from repro.truthdiscovery.convergence import (
    CombinedCriterion,
    ConvergenceCriterion,
    FixedIterationsCriterion,
    TruthChangeCriterion,
    WeightChangeCriterion,
    default_criterion,
)
from repro.truthdiscovery.crh import CRH
from repro.truthdiscovery.distance import (
    available_distances,
    get_distance,
    register_distance,
)
from repro.truthdiscovery.gtm import GTM, GTMWeightedAggregateOnly
from repro.truthdiscovery.registry import (
    available_methods,
    create_method,
    register_method,
)
from repro.truthdiscovery.streaming import (
    STREAMING_ESTIMATORS,
    ClaimBatch,
    StreamingCATD,
    StreamingCRH,
    StreamingEstimator,
    StreamingGTM,
)

__all__ = [
    "AccuracyEM",
    "CATD",
    "CRH",
    "CategoricalClaimMatrix",
    "CategoricalResult",
    "ClaimBatch",
    "MajorityVoting",
    "STREAMING_ESTIMATORS",
    "StreamingCATD",
    "StreamingCRH",
    "StreamingEstimator",
    "StreamingGTM",
    "WeightedVoting",
    "generate_categorical_dataset",
    "ClaimMatrix",
    "CombinedCriterion",
    "ConvergenceCriterion",
    "FixedIterationsCriterion",
    "GTM",
    "GTMWeightedAggregateOnly",
    "MeanAggregator",
    "MedianAggregator",
    "TrimmedMeanAggregator",
    "TruthChangeCriterion",
    "TruthDiscoveryMethod",
    "TruthDiscoveryResult",
    "WeightChangeCriterion",
    "available_distances",
    "available_methods",
    "create_method",
    "default_criterion",
    "get_distance",
    "register_distance",
    "register_method",
    "stack_claims",
    "weighted_aggregate",
]
