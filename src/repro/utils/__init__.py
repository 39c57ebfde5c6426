"""Shared low-level utilities: RNG handling, validation, logging.

These helpers are deliberately small and dependency-free so that every
other subpackage can import them without creating cycles.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "as_generator": "repro.utils.rng",
    "ensure_1d": "repro.utils.validation",
    "ensure_2d": "repro.utils.validation",
    "ensure_in_range": "repro.utils.validation",
    "ensure_positive": "repro.utils.validation",
    "ensure_probability": "repro.utils.validation",
    "get_logger": "repro.utils.logging",
    "spawn_generators": "repro.utils.rng",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
