"""Core: the paper's privacy-preserving truth discovery mechanism.

:class:`PrivateTruthDiscovery` is the Algorithm 2 pipeline; the config
and result types round out the public API.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PrivacyConfig": "repro.core.config",
    "PrivateAggregationOutcome": "repro.core.results",
    "PrivateTruthDiscovery": "repro.core.mechanism",
    "UtilityEvaluation": "repro.core.results",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
