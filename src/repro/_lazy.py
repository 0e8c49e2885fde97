"""Lazy re-exports for package ``__init__`` files (PEP 562).

A package lists the submodules a study never runs, each with the names it
re-exports from it, and binds the module-level ``__getattr__`` this
returns::

    from .. import _lazy

    __getattr__ = _lazy.lazy_exports(__name__, {"rulegen": ("BlockingStrategy",)})

The first access to ``package.BlockingStrategy`` (or ``from package import
BlockingStrategy``, or ``from package import *``) imports ``.rulegen`` and
caches the value in the package namespace, so later lookups never come
back here.  ``import repro`` for a study therefore never loads, nor pays
the class construction of, the feature modules it does not use.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> Callable[[str], object]:
    """A PEP 562 module ``__getattr__`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    names the package re-exports from it.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
