"""Lazy package exports (PEP 562).

A package ``__init__`` lists which submodule defines each public name
and installs the pair returned by :func:`lazy_exports`.  ``import
repro.engine`` then loads nothing but that table; the first access to
``repro.engine.ExperimentEngine`` (attribute access, ``from repro.engine
import ExperimentEngine``, or ``from repro.engine import *``) imports
only ``repro.engine.runner``.  Each entry point thus pays for the
modules it uses: a cached CLI sweep never loads NumPy, the HTTP store
client, or the work queue.

Names are not cached in the package namespace: every access reads the
defining submodule, so a later rebinding there (a test's monkeypatch, a
tracer's wrapper) is seen through the package too.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a relative submodule name (``".runner"``) to the
    public names it defines.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(import_module(module, package), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | origin.keys())

    return __getattr__, __dir__
