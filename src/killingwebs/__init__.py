"""Exact classification of orthogonal coordinate webs in flat 2D geometries.

The package computes isometry-group invariants of second-order Killing
tensors on the Euclidean and Minkowski planes with exact rational
arithmetic, derives the group actions and their infinitesimal generators
from first principles, and uses them to classify the orthogonal web
(separable coordinate system) a given tensor determines.
"""

from .poly import MultiPoly, PolynomialError, parse_rational, poly, var
from .spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams, KVParams,
                     NontrivialKT, Space, decompose, dtt_dimension,
                     metric_params, reconstruct, space_by_name)
from .signs import SignClass, quadratic_sign_class
from .invariants import (fundamental_covariants, fundamental_invariants,
                         invariant_report, joint_invariants)

__all__ = [
    "MultiPoly", "PolynomialError", "parse_rational", "poly", "var",
    "EUCLIDEAN", "MINKOWSKI", "DomainError", "KTParams", "KVParams",
    "NontrivialKT", "Space", "decompose", "dtt_dimension", "metric_params",
    "reconstruct", "space_by_name", "SignClass", "quadratic_sign_class",
    "fundamental_covariants", "fundamental_invariants", "invariant_report",
    "joint_invariants",
]

__version__ = "0.1.0"
