"""Shared low-level utilities: RNG handling, validation, logging.

These helpers are deliberately small and dependency-free so that every
other subpackage can import them without creating cycles.
"""

from repro.utils.logging import get_logger
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    ensure_1d,
    ensure_2d,
    ensure_in_range,
    ensure_positive,
    ensure_probability,
)

__all__ = [
    "as_generator",
    "ensure_1d",
    "ensure_2d",
    "ensure_in_range",
    "ensure_positive",
    "ensure_probability",
    "get_logger",
    "spawn_generators",
]
