"""Privacy substrate: perturbation mechanisms, LDP accounting, sensitivity.

Implements the client side of the paper's Algorithm 2 (the
exponential-variance Gaussian mechanism), the (epsilon, delta)-local-DP
accounting of Section 4.2, the sensitivity definitions of Definition 4.6
and Lemma 4.7, and baseline mechanisms for ablations.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AttackReport": "repro.privacy.attacks",
    "CategoricalPerturbationResult": "repro.privacy.randomized_response",
    "ExponentialVarianceGaussianMechanism": "repro.privacy.mechanisms",
    "LikelihoodRatioAttacker": "repro.privacy.attacks",
    "PrivatePreferenceRandomizedResponse": "repro.privacy.randomized_response",
    "RandomizedResponseMechanism": "repro.privacy.randomized_response",
    "ThresholdAttacker": "repro.privacy.attacks",
    "audit_mechanism": "repro.privacy.attacks",
    "debias_vote_counts": "repro.privacy.randomized_response",
    "epsilon_for_keep_probability": "repro.privacy.randomized_response",
    "keep_probability": "repro.privacy.randomized_response",
    "marginal_density": "repro.privacy.attacks",
    "theoretical_marginal_advantage": "repro.privacy.attacks",
    "FixedGaussianMechanism": "repro.privacy.mechanisms",
    "LDPGuarantee": "repro.privacy.ldp",
    "LaplaceMechanism": "repro.privacy.mechanisms",
    "NullMechanism": "repro.privacy.mechanisms",
    "PerturbationMechanism": "repro.privacy.mechanisms",
    "PerturbationResult": "repro.privacy.mechanisms",
    "PrivacyAccountant": "repro.privacy.accountant",
    "PrivacyEvent": "repro.privacy.accountant",
    "SensitivityBound": "repro.privacy.sensitivity",
    "create_mechanism": "repro.privacy.mechanisms",
    "epsilon_for_variance": "repro.privacy.ldp",
    "epsilon_of_mechanism": "repro.privacy.ldp",
    "expected_absolute_noise": "repro.privacy.noise",
    "gamma_factor": "repro.privacy.sensitivity",
    "gaussian_absolute_moment": "repro.privacy.noise",
    "global_claim_range": "repro.privacy.sensitivity",
    "guarantee_of_mechanism": "repro.privacy.ldp",
    "lambda2_for_epsilon": "repro.privacy.ldp",
    "lambda2_for_expected_noise": "repro.privacy.noise",
    "laplace_epsilon": "repro.privacy.ldp",
    "marginal_laplace_epsilon": "repro.privacy.ldp",
    "lemma47_bound": "repro.privacy.sensitivity",
    "normalized_sensitivity": "repro.privacy.sensitivity",
    "per_user_claim_range": "repro.privacy.sensitivity",
    "sample_exponential_variances": "repro.privacy.noise",
    "sample_gaussian_noise": "repro.privacy.noise",
    "strict_gaussian_epsilon": "repro.privacy.ldp",
    "variance_for_epsilon": "repro.privacy.ldp",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
