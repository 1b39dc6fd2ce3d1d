"""Exact arithmetic for finite inverse semigroups, their partial actions,
groupoids of germs, Steinberg algebras, crossed products, Leavitt path
algebras, and continuous orbit equivalence.

Submodules are imported on first use, so `from germkit import invsemi`
loads only what invsemi needs."""

import importlib

__all__ = [
    "acceptance",
    "algebra",
    "catalog",
    "cli",
    "germs",
    "graph",
    "invsemi",
    "orbit",
    "paction",
    "rings",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
