"""PEP 562 lazy exports for package ``__init__`` modules.

A package that re-exports names from heavy submodules binds them on
first access instead of at import, so importing one light submodule
does not pay for its siblings::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "build_scenario": "repro.synth.scenario",
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each exported name to the module defining it.  The
    first access imports that module and caches the value in the
    package namespace, so later lookups never reach ``__getattr__``.
    Any other missing name raises :class:`AttributeError`, which lets
    ``from package import submodule`` fall through to the import system.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
