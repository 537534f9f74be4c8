"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules pays
for importing every one of them, even when the caller needs one.  The
one-shot CLI imports a handful of modules per call, so the packages
below ``repro`` re-export through :func:`lazy_exports` instead: a name
is imported on first access and then cached in the package namespace.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Dict, List, Sequence, Tuple


def lazy_exports(package: str, table: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], object]:
    """``(__all__, __getattr__)`` for ``package``, whose re-exports are
    ``table`` = {submodule: names}.  A name equal to its submodule's
    (``{"arena": ("arena",)}``) resolves to the submodule itself."""
    where = {name: module for module, names in table.items()
             for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module_name = where.get(name)
        if module_name is None:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name))
        module = import_module("." + module_name, package)
        value = module if name == module_name else getattr(module, name)
        namespace[name] = value
        return value

    return list(where), __getattr__
