"""Lazy package re-exports (PEP 562) and lazily imported modules.

A package ``__init__`` that re-exports names from its submodules pays
for importing every one of them, even when the caller needs one.  The
one-shot CLI imports a handful of modules per call, so the packages
below ``repro`` re-export through :func:`lazy_exports` instead: a name
is imported on first access and then cached in the package namespace.

:class:`LazyModule` does the same for a module that a process may
never run, such as the python kernel tier or the widening's Python
loop: code calls through the stand-in, and the module is imported on
the first call.
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


class LazyModule:
    """Stand-in for the module ``name``, imported on first attribute
    access.  Each attribute read is then cached on the stand-in, so a
    later read is one instance-dict lookup with no import machinery.
    Meant for functions and classes: a module global that the module
    rebinds later would go stale here."""

    def __init__(self, name: str) -> None:
        self._name = name

    def __getattr__(self, attr: str):
        value = getattr(import_module(self._name), attr)
        setattr(self, attr, value)
        return value

    def __repr__(self) -> str:
        return "<lazy module %r>" % (self._name,)
