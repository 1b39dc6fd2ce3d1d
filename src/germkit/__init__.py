"""Exact arithmetic for finite inverse semigroups, their partial actions,
groupoids of germs, Steinberg algebras, crossed products, Leavitt path
algebras, and continuous orbit equivalence.

Submodules are imported on first use, so `from germkit import invsemi`
loads only what invsemi needs.  Every error they raise is a GermkitError,
whose `kind` tells a refutation from a resource limit (a ResourceLimit)
and from a request germkit does not serve."""

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


class GermkitError(ValueError):
    """A claim germkit refuted, such as a table that is not an inverse
    semigroup or a map that is not an isomorphism; witness, when not None,
    is what refutes it.  Every error class of the germkit modules but
    cli.ParseError, which marks malformed input, derives from this one.

    kind says what the failure is: "mathematical" (a refutation),
    "limit" (a resource limit was reached, so nothing was decided) or
    "unsupported" (a request germkit does not serve, such as a cyclic
    graph where a finite boundary is needed).  A CLI command that ends on
    any of them exits 1 and reports its kind."""

    kind = "mathematical"

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class ResourceLimit(GermkitError):
    """A size or search limit was reached before the claim was decided."""

    kind = "limit"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
