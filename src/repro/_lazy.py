"""On-demand package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules
declares them with :func:`lazy_exports` instead of importing every
submodule up front.  ``from repro.analysis import ContentionExperiment``
and ``repro.analysis.ContentionExperiment`` work as before, but import
only the submodule that defines the name, on first use; a plain
``repro run`` therefore never loads the packages it does not need.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *exports* maps each submodule (relative to *package*) to the public
    names it defines.  The submodules resolve as attributes too, so
    ``repro.analysis.stats`` works without importing it first.  A
    resolved value is stored on the package, so each name is looked up
    once.
    """
    origin = {name: (module, name) for module, names in exports.items()
              for name in names}
    origin.update((module, (module, None)) for module in exports)

    def __getattr__(name: str) -> object:
        try:
            module, attr = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = import_module(f"{package}.{module}")
        if attr is not None:
            value = getattr(value, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, [name for names in exports.values()
                                  for name in names]
