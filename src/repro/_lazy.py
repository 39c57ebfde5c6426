"""One lazy re-export table per package (PEP 562).

Every package ``__init__`` here names its public surface in one
``_EXPORTS`` table, public name -> defining module, and imports
nothing else.  A name's module is imported the first time the name is
read, and the value is then bound on the package, so later reads are
plain attribute lookups.  ``__all__``, ``dir()`` and every ``from
repro.X import Y`` behave as with eager imports.

Two reasons it is lazy.  A spawned shard host, standby or watchdog
imports the one module it runs, and that import passes through every
package ``__init__`` above it; eager re-exports there would load the
whole library (the simulation, the batch methods, the attacks) into
every child and onto every failover.  And the worker tier imports
:mod:`repro.net.framing` while the fabric modules import the worker
tier, so eager re-exports in :mod:`repro.net` would close an import
cycle.  Code inside the library imports from the defining module, never
through a package, so no hot path resolves a name here.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, whose public
    names resolve through ``exports`` (name -> defining module)."""

    def __getattr__(name: str) -> object:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module_name), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
