"""Infinitesimal generators on parameter space and their algebra.

The generators are *derived* from the one closed-form group action of
`isometry`: each is minus the derivative of the action at the identity
along a one-parameter subgroup (the two translations, and the
rotation/boost, whose tangent at the identity is d/ds).  Applying the
coordinate Killing vectors to the general field by the Lie derivative and
re-extracting gives the same fields and is the test oracle.  Printed closed
forms are used downstream only as test vectors.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache

from .isometry import _GROUP_VARS, _kt_action, _kv_action
from .poly import MultiPoly, var
from .spaces import KV_PARAM_VARS, DomainError, Space
from .symbolic import kv_components


class LinearVectorField(namedtuple("LinearVectorField",
                                   "domain coefficients")):
    """A vector field sum_i coeff_i d/d(domain_i) with polynomial
    coefficients.  domain: tuple[str, ...]; coefficients:
    tuple[MultiPoly, ...]."""
    __slots__ = ()

    def __new__(cls, domain, coefficients):
        if len(domain) != len(coefficients):
            raise DomainError("one coefficient per domain symbol required")
        return super().__new__(cls, domain, coefficients)

    def coefficient(self, symbol: str) -> MultiPoly:
        return self.coefficients[self.domain.index(symbol)]

    def apply(self, f: MultiPoly) -> MultiPoly:
        """Directional derivative V(f)."""
        extra = set(f.variables) - set(self.domain)
        if extra:
            raise DomainError(f"function uses symbols outside the domain: {extra}")
        out = MultiPoly.zero()
        for sym, coeff in zip(self.domain, self.coefficients):
            out = out + coeff * f.diff(sym)
        return out

    def evaluate(self, point: Mapping[str, Fraction]) -> list[Fraction]:
        assignment = {sym: Fraction(point.get(sym, 0)) for sym in self.domain}
        return [c.evaluate(assignment) if not c.is_zero() else Fraction(0)
                for c in self.coefficients]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)

    def pretty(self) -> str:
        parts = [f"({c.pretty()}) d/d{sym}"
                 for sym, c in zip(self.domain, self.coefficients)
                 if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __add__(self, other: "LinearVectorField") -> "LinearVectorField":
        if self.domain != other.domain:
            raise DomainError("domain mismatch")
        return LinearVectorField(self.domain, tuple(
            a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "LinearVectorField") -> "LinearVectorField":
        return self + other.scale(-1)

    def scale(self, factor) -> "LinearVectorField":
        return LinearVectorField(self.domain, tuple(
            factor * c for c in self.coefficients))


def sigma_structure_constants(space: Space
                              ) -> dict[tuple[int, int], dict[int, int]]:
    """[V_i, V_j] = sum_k c[i, j][k] V_k for the derived parameter-space
    generators, keyed by i < j only, so antisymmetry holds by construction.

    The coordinate Killing vectors commute as [X,R] = Y, [Y,R] = -X in the
    Euclidean basis (X, Y, R) and as [T,H] = X, [X,H] = T in the Minkowski
    basis (T, X, H).  The map sending a matrix A to the linear vector field
    (A b)^i d/db^i reverses Lie brackets, so the derived fields realize
    that table with one global sign on every structure constant.
    """
    return {(0, 1): {}, (0, 2): {1: -1}, (1, 2): {0: space.eps}}


def coordinate_killing_vectors(space: Space) -> list[tuple[MultiPoly, MultiPoly]]:
    """Components of the three coordinate generators of the isometry algebra:
    the two translations, and the rotation or boost scaled to (-eps w, u)."""
    return [kv_components(space, e)
            for e in ((1, 0, 0), (0, 1, 0), (0, 0, -space.eps))]


@lru_cache(maxsize=None)
def sigma_generators(space: Space, valence: int
                     ) -> tuple[LinearVectorField, ...]:
    """The isometry generators pushed to parameter space: minus the
    derivative of the closed-form action at the identity in a, b and s,
    derived once per (space, valence); the tuple is shared by every
    caller."""
    if valence == 2:
        domain, action = space.param_vars, _kt_action
    elif valence == 1:
        domain, action = KV_PARAM_VARS, _kv_action
    else:
        raise DomainError("valence must be 1 or 2")
    moved = action(space.eps, [var(v) for v in domain],
                   *(var(g) for g in _GROUP_VARS))
    identity = {"c": 1, "s": 0, "a": 0, "b": 0}
    return tuple(LinearVectorField(domain, tuple(
        -f.diff(g).subst(identity) for f in moved)) for g in ("a", "b", "s"))


def extended_generators(space: Space) -> list[LinearVectorField]:
    """Generators on the extended (parameters + point) space.

    These are the fields whose kernels are exactly the covariants.  The
    point block carries the sign opposite to the parameter block: the
    parameter fields encode the Lie derivative (a pushforward direction)
    while the covariance law moves the evaluation point forward, so the
    two blocks must differentiate in opposite senses to cancel.
    """
    domain = space.param_vars + space.point_vars
    fields = []
    for V, X in zip(sigma_generators(space, 2),
                    coordinate_killing_vectors(space)):
        coeffs = tuple(V.coefficients) + tuple(-c for c in X)
        fields.append(LinearVectorField(domain, coeffs))
    return fields


def joint_generators(space: Space, valences: Sequence[int]
                     ) -> list[LinearVectorField]:
    """The per-valence generators side by side on the product parameter
    space, whose per-valence symbols must be disjoint."""
    if not valences:
        raise DomainError("need at least one valence")
    per_valence = [sigma_generators(space, v) for v in valences]
    domain = sum((fields[0].domain for fields in per_valence), ())
    for i, sym in enumerate(domain):
        if sym in domain[:i]:
            raise DomainError("joint generators need disjoint parameter "
                              f"symbols; {sym} appears twice")
    return [LinearVectorField(domain, sum(
        (fields[i].coefficients for fields in per_valence), ()))
        for i in range(3)]


def commutator(V: LinearVectorField, W: LinearVectorField) -> LinearVectorField:
    """Lie bracket [V, W] = V(W) - W(V), exactly: component i is
    V^k d_k W^i - W^k d_k V^i."""
    if V.domain != W.domain:
        raise DomainError("domain mismatch")
    return LinearVectorField(V.domain, tuple(
        V.apply(w) - W.apply(v)
        for v, w in zip(V.coefficients, W.coefficients)))


def structure_residuals(fields: Sequence[LinearVectorField],
                        table: Mapping[tuple[int, int], Mapping[int, int]]
                        ) -> dict[tuple[int, int], LinearVectorField]:
    """[V_i, V_j] - sum_k c[i, j][k] V_k for each pair of the table,
    exactly; the fields realize the table iff every residual is zero."""
    residuals = {}
    for (i, j), row in table.items():
        residual = commutator(fields[i], fields[j])
        for k, coeff in row.items():
            residual = residual - fields[k].scale(coeff)
        residuals[i, j] = residual
    return residuals


def orbit_dimension(fields: Sequence[LinearVectorField],
                    at: Mapping[str, Fraction]) -> int:
    """Rank over the rationals of the generator values at a point."""
    matrix = [field.evaluate(at) for field in fields]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(matrix))
                      if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        head = matrix[rank][col]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col] / head
                matrix[r] = [x - factor * y
                             for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
        if rank == len(matrix):
            break
    return rank
