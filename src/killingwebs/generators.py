"""Infinitesimal generators on parameter space and their algebra.

The generators are *derived*: each coordinate Killing vector is applied to
the general (symbolically parametrized) Killing tensor via the Lie
derivative, and the resulting tensor is re-extracted as a linear vector
field on parameter space.  Printed closed forms are used downstream only as
test vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from .poly import MultiPoly, Q, poly, var
from .spaces import (KV_PARAM_VARS, DomainError, Space, extract_kt_params,
                     extract_kv_params, kv_components, symbolic_killing_tensor)


class LinearVectorField(NamedTuple("LinearVectorField",
                                   [("domain", tuple[str, ...]),
                                    ("coefficients", tuple[MultiPoly, ...])])):
    """A vector field sum_i coeff_i d/d(domain_i) with polynomial coefficients."""
    __slots__ = ()

    def __new__(cls, domain, coefficients):
        if len(domain) != len(coefficients):
            raise DomainError("one coefficient per domain symbol required")
        return super().__new__(cls, domain, coefficients)

    def coefficient(self, symbol: str) -> MultiPoly:
        return self.coefficients[self.domain.index(symbol)]

    def apply(self, f: MultiPoly) -> MultiPoly:
        """Directional derivative V(f)."""
        extra = set(f.used_variables()) - set(self.domain)
        if extra:
            raise DomainError(f"function uses symbols outside the domain: {extra}")
        out = MultiPoly.zero()
        for sym, coeff in zip(self.domain, self.coefficients):
            out = out + coeff * f.diff(sym)
        return out

    def evaluate(self, point: Mapping[str, Fraction]) -> list[Fraction]:
        assignment = {sym: Fraction(point.get(sym, 0)) for sym in self.domain}
        return [c.evaluate(assignment) if not c.is_zero() else Q(0)
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
        if self.domain != other.domain:
            raise DomainError("domain mismatch")
        return LinearVectorField(self.domain, tuple(
            a - b for a, b in zip(self.coefficients, other.coefficients)))

    def scale(self, factor) -> "LinearVectorField":
        return LinearVectorField(self.domain, tuple(
            factor * c for c in self.coefficients))

    def on_domain(self, domain: Sequence[str]) -> "LinearVectorField":
        """Extend to a larger domain with zero coefficients elsewhere."""
        domain = tuple(domain)
        zero = MultiPoly.zero()
        coeffs = []
        for sym in domain:
            coeffs.append(self.coefficient(sym) if sym in self.domain else zero)
        return LinearVectorField(domain, tuple(coeffs))


class StructureConstants(NamedTuple("StructureConstants", [("c", tuple)])):
    """[e_i, e_j] = sum_k c^k_ij e_k as the table c[i][j][k], 0-indexed."""
    __slots__ = ()

    def __new__(cls, c: tuple):
        r = len(c)
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if c[i][j][k] != -c[j][i][k]:
                        raise DomainError("structure constants must be antisymmetric")
        return super().__new__(cls, c)

    def bracket_coeffs(self, i: int, j: int) -> tuple[Fraction, ...]:
        return tuple(self.c[i][j])

    def scale(self, factor) -> "StructureConstants":
        return StructureConstants(tuple(
            tuple(tuple(factor * x for x in row) for row in plane)
            for plane in self.c))


def _constants(r: int, entries: dict[tuple[int, int, int], Fraction]
               ) -> StructureConstants:
    c = [[[Q(0)] * r for _ in range(r)] for _ in range(r)]
    for (i, j, k), value in entries.items():
        c[i][j][k] = Fraction(value)
        c[j][i][k] = -Fraction(value)
    return StructureConstants(tuple(tuple(tuple(row) for row in plane)
                                    for plane in c))


def coordinate_structure_constants(space: Space) -> StructureConstants:
    """Commutator table of the coordinate Killing vector basis.

    Euclidean basis (X, Y, R): [X,R] = Y, [Y,R] = -X.
    Minkowski basis (T, X, H): [T,H] = X, [X,H] = T.
    """
    return _constants(3, {(0, 2, 1): Q(1), (1, 2, 0): Q(-space.eps)})


def sigma_structure_constants(space: Space) -> StructureConstants:
    """Commutator table satisfied by the derived parameter-space generators.

    The map sending a matrix A to the linear vector field (A b)^i d/db^i
    reverses Lie brackets, so the derived fields realize the coordinate
    algebra with one global sign on every structure constant.
    """
    return coordinate_structure_constants(space).scale(Q(-1))


def coordinate_killing_vectors(space: Space) -> list[tuple[MultiPoly, MultiPoly]]:
    """Components of the three coordinate generators of the isometry algebra."""
    u, w = (var(v) for v in space.point_vars)
    zero, one = MultiPoly.zero(), poly(1)
    return [(one, zero), (zero, one), (-space.eps * w, u)]


def _lie_derivative_tensor(space: Space, X: tuple[MultiPoly, MultiPoly],
                           comps: tuple[MultiPoly, MultiPoly, MultiPoly]):
    """(L_X K)^{ij} = X^k d_k K^{ij} - K^{kj} d_k X^i - K^{ik} d_k X^j."""
    u, w = space.point_vars
    d = (u, w)
    K = {(0, 0): comps[0], (0, 1): comps[1], (1, 0): comps[1], (1, 1): comps[2]}
    out = {}
    for i in range(2):
        for j in range(i, 2):
            term = MultiPoly.zero()
            for k in range(2):
                term = term + X[k] * K[(i, j)].diff(d[k])
                term = term - K[(k, j)] * X[i].diff(d[k])
                term = term - K[(i, k)] * X[j].diff(d[k])
            out[(i, j)] = term
    return (out[(0, 0)], out[(0, 1)], out[(1, 1)])


def _lie_derivative_vector(space: Space, X, V):
    """[X, V] componentwise for vector fields on the plane."""
    u, w = space.point_vars
    d = (u, w)
    out = []
    for i in range(2):
        term = MultiPoly.zero()
        for k in range(2):
            term = term + X[k] * V[i].diff(d[k]) - V[k] * X[i].diff(d[k])
        out.append(term)
    return tuple(out)


@lru_cache(maxsize=None)
def sigma_generators(space: Space, valence: int
                     ) -> tuple[LinearVectorField, ...]:
    """The isometry generators pushed to parameter space, derived once per
    (space, valence); the tuple is shared by every caller."""
    if valence == 2:
        domain = space.param_vars
        comps = symbolic_killing_tensor(space).components
        lie_derivative, extract = _lie_derivative_tensor, extract_kt_params
    elif valence == 1:
        domain = KV_PARAM_VARS
        comps = kv_components(space, [var(v) for v in domain])
        lie_derivative, extract = _lie_derivative_vector, extract_kv_params
    else:
        raise DomainError("valence must be 1 or 2")
    fields = []
    for X in coordinate_killing_vectors(space):
        extracted = extract(space, lie_derivative(space, X, comps))
        fields.append(LinearVectorField(domain, tuple(
            c.on_variables(c.used_variables()) for c in extracted)))
    return tuple(fields)


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
    """Block sums of per-valence generators on the product parameter space."""
    if not valences:
        raise DomainError("need at least one valence")
    per_valence = [sigma_generators(space, v) for v in valences]
    domain: tuple[str, ...] = ()
    for fields in per_valence:
        for sym in fields[0].domain:
            if sym in domain:
                raise DomainError(
                    "joint generators need disjoint parameter symbols; "
                    f"{sym} appears twice")
        domain = domain + fields[0].domain
    out = []
    for i in range(3):
        total = per_valence[0][i].on_domain(domain)
        for fields in per_valence[1:]:
            total = total + fields[i].on_domain(domain)
        out.append(total)
    return out


def commutator(V: LinearVectorField, W: LinearVectorField) -> LinearVectorField:
    """Lie bracket [V, W] = V(W) - W(V), exactly."""
    if V.domain != W.domain:
        raise DomainError("domain mismatch")
    coeffs = []
    for k in range(len(V.domain)):
        term = MultiPoly.zero()
        for i, sym in enumerate(V.domain):
            term = term + V.coefficients[i] * W.coefficients[k].diff(sym)
            term = term - W.coefficients[i] * V.coefficients[k].diff(sym)
        coeffs.append(term)
    return LinearVectorField(V.domain, tuple(coeffs))


class StructureCheck(NamedTuple):
    i: int
    j: int
    passed: bool
    residual: LinearVectorField


def verify_structure_constants(fields: Sequence[LinearVectorField],
                               expected: StructureConstants
                               ) -> list[StructureCheck]:
    """Check [V_i, V_j] = sum_k c^k_ij V_k pair by pair, exactly."""
    report = []
    r = len(fields)
    for i in range(r):
        for j in range(i + 1, r):
            lhs = commutator(fields[i], fields[j])
            rhs = fields[0].scale(Q(0))
            for k, coeff in enumerate(expected.bracket_coeffs(i, j)):
                if coeff != 0:
                    rhs = rhs + fields[k].scale(coeff)
            residual = lhs - rhs.on_domain(fields[i].domain)
            report.append(StructureCheck(i, j, residual.is_zero(), residual))
    return report


def orbit_dimension(fields: Sequence[LinearVectorField],
                    at: Mapping[str, Fraction]) -> int:
    """Rank over the rationals of the generator values at a point."""
    rows = [field.evaluate(at) for field in fields]
    return _exact_rank(rows)


def _exact_rank(rows: list[list[Fraction]]) -> int:
    matrix = [list(map(Fraction, row)) for row in rows]
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


def annihilation_check(V: LinearVectorField, F: MultiPoly) -> MultiPoly:
    """V(F); identically zero certifies invariance under the connected group."""
    return V.apply(F)


def jacobian_rank(functions: Sequence[MultiPoly], symbols: Sequence[str],
                  at: Mapping[str, Fraction]) -> int:
    """Exact rank of the Jacobian of the functions at a rational point."""
    rows = []
    for f in functions:
        assignment = {sym: Fraction(at.get(sym, 0))
                      for sym in f.used_variables()}
        row = []
        for sym in symbols:
            d = f.diff(sym)
            row.append(d.evaluate({s: Fraction(at.get(s, 0))
                                   for s in d.used_variables()})
                       if not d.is_zero() else Q(0))
        rows.append(row)
    return _exact_rank(rows)
