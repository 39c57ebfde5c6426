"""repro — Differentially Private Truth Discovery for Crowd Sensing Systems.

A full reproduction of Li et al., "Towards Differentially Private Truth
Discovery for Crowd Sensing Systems" (ICDCS 2020): the perturbation
mechanism (Algorithm 2), the truth discovery substrate (CRH, GTM, CATD,
naive baselines), the Section 4 theory, dataset generators standing in
for the paper's synthetic and indoor-floorplan evaluations, a simulated
crowd sensing system, and an experiment harness regenerating every
figure.

Quickstart
----------
>>> import numpy as np
>>> from repro import ClaimMatrix, PrivateTruthDiscovery
>>> rng = np.random.default_rng(7)
>>> claims = ClaimMatrix(rng.normal(20.0, 2.0, size=(50, 12)))
>>> pipeline = PrivateTruthDiscovery(method="crh", lambda2=1.0)
>>> outcome = pipeline.run(claims, random_state=7)
>>> outcome.truths.shape
(12,)
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CATD": "repro.truthdiscovery.catd",
    "CRH": "repro.truthdiscovery.crh",
    "ClaimMatrix": "repro.truthdiscovery.claims",
    "ExponentialVarianceGaussianMechanism": "repro.privacy.mechanisms",
    "FixedGaussianMechanism": "repro.privacy.mechanisms",
    "GTM": "repro.truthdiscovery.gtm",
    "LDPGuarantee": "repro.privacy.ldp",
    "LaplaceMechanism": "repro.privacy.mechanisms",
    "MeanAggregator": "repro.truthdiscovery.baselines",
    "MedianAggregator": "repro.truthdiscovery.baselines",
    "PrivacyAccountant": "repro.privacy.accountant",
    "PrivacyConfig": "repro.core.config",
    "PrivateAggregationOutcome": "repro.core.results",
    "PrivateTruthDiscovery": "repro.core.mechanism",
    "TruthDiscoveryMethod": "repro.truthdiscovery.base",
    "TruthDiscoveryResult": "repro.truthdiscovery.base",
    "UtilityEvaluation": "repro.core.results",
    "available_methods": "repro.truthdiscovery.registry",
    "create_method": "repro.truthdiscovery.registry",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
