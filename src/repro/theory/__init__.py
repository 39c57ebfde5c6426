"""Theoretical results of the paper (Section 4 and appendices).

Every theorem, lemma, and bound is implemented as an executable function
with its derivation documented, and cross-checked against numerical
integration or Monte Carlo in the test suite.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PairDeviationDistribution": "repro.theory.distributions",
    "TradeoffWindow": "repro.theory.tradeoff",
    "alpha_feasibility_floor": "repro.theory.tradeoff",
    "alpha_threshold": "repro.theory.utility",
    "alpha_threshold_c1": "repro.theory.utility",
    "alpha_threshold_paper": "repro.theory.utility",
    "chebyshev_sum_gap": "repro.theory.lemmas",
    "choose_noise_level": "repro.theory.tradeoff",
    "epsilon_from_noise_level": "repro.theory.privacy",
    "expected_pairwise_gap": "repro.theory.distributions",
    "gaussian_tail_bound": "repro.theory.lemmas",
    "gaussian_tail_probability_exact": "repro.theory.lemmas",
    "lambda2_for_noise_level": "repro.theory.tradeoff",
    "matched_lambda1": "repro.theory.tradeoff",
    "max_noise_level": "repro.theory.utility",
    "mean_absolute_gaussian": "repro.theory.lemmas",
    "min_alpha_for_beta": "repro.theory.utility",
    "min_noise_level": "repro.theory.privacy",
    "min_noise_level_from_sensitivity": "repro.theory.privacy",
    "min_noise_level_paper": "repro.theory.privacy",
    "noise_level_window": "repro.theory.tradeoff",
    "pair_deviation_from_noise_level": "repro.theory.distributions",
    "satisfies_utility": "repro.theory.utility",
    "utility_failure_bound": "repro.theory.utility",
    "utility_failure_bound_c1": "repro.theory.utility",
    "weighted_average_bound_holds": "repro.theory.lemmas",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
