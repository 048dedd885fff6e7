"""Exact classification of orthogonal coordinate webs in flat 2D geometries.

The package computes isometry-group invariants of second-order Killing
tensors on the Euclidean and Minkowski planes with exact rational
arithmetic, derives the group actions and their infinitesimal generators
from first principles, and uses them to classify the orthogonal web
(separable coordinate system) a given tensor determines.

Classification runs on the exact layer alone; the polynomial type (`poly`),
the sign classifier (`signs`) and the symbolic layer run on first use.
"""

import importlib.util
import sys


def _lazy(name: str, bind: bool = True):
    """The submodule `name`, registered in sys.modules (and, with `bind`, as
    a package attribute) but run only on first attribute access.  A module
    already imported is returned as it is."""
    full = f"{__name__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        if bind:
            globals()[name] = module
    return sys.modules[full]


def _forward(owner: str, **homes: str):
    """A module `__getattr__` for the module `owner` that serves each name
    listed (space-separated) in homes[m] from the lazy submodule m."""
    home = {name: m for m, names in homes.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        return getattr(_lazy(home[name]), name)
    return __getattr__


# The package attribute `poly` is the `poly` function, served below.  The
# module stays unbound, and being in sys.modules, no later import binds it.
_lazy("poly", bind=False)
_lazy("signs")
_lazy("symbolic")

from .spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams, KVParams,
                     NontrivialKT, PolynomialError, Space, decompose,
                     dtt_dimension, metric_params, parse_rational,
                     reconstruct, space_by_name)
from .invariants import SignClass, fundamental_invariants, invariant_report

__getattr__ = _forward(__name__, poly="MultiPoly poly var",
                       signs="quadratic_sign_class",
                       symbolic="fundamental_covariants joint_invariants")

__all__ = [
    "MultiPoly", "PolynomialError", "parse_rational", "poly", "var",
    "EUCLIDEAN", "MINKOWSKI", "DomainError", "KTParams", "KVParams",
    "NontrivialKT", "Space", "decompose", "dtt_dimension", "metric_params",
    "reconstruct", "space_by_name", "SignClass", "quadratic_sign_class",
    "fundamental_covariants", "fundamental_invariants", "invariant_report",
    "joint_invariants",
]

__version__ = "0.1.0"
