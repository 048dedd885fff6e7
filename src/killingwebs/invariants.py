"""Fundamental invariants, covariants, joint and auxiliary invariants.

All quantities are exact polynomial evaluations.  The symbolic versions of
each invariant/covariant double as self-test material: the generator fields
must annihilate them identically.  For the per-input quantities they are
compiled once per space (`compile_table`) and evaluated at the parameters;
substituting into the symbolic versions gives the same values and serves
as the test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .poly import MultiPoly, compile_table, var
from .signs import MONOMIALS, SignClass, row_sign_class
from .spaces import (EUCLIDEAN, KV_PARAM_VARS, DomainError, KTParams,
                     KVParams, Space)


class SubmanifoldError(DomainError):
    """Raised when a slice-only invariant is requested off its slice."""


# -- symbolic invariant polynomials -----------------------------------------

def _quad_cross(space: Space) -> tuple[MultiPoly, MultiPoly]:
    """The quadratics quad and cross in the parameters; (quad, 2 cross)
    turns with weight 2 under the rotation (Euclidean) or boost."""
    eps = space.eps
    p1, p2, p3, p4, p5, p6 = (var(v) for v in space.param_vars)
    return (eps * (p6 * p1 - p4 ** 2) - (p6 * p2 - p5 ** 2),
            p3 * p6 + eps * p4 * p5)


@lru_cache(maxsize=None)
def invariant_polynomials(space: Space) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(I1, I2, I3) as polynomials in the six parameter symbols."""
    eps = space.eps
    p1, p2, _, p4, p5, p6 = (var(v) for v in space.param_vars)
    quad, cross = _quad_cross(space)
    return (quad ** 2 + 4 * eps * cross ** 2,
            p6 * (p1 + eps * p2) - p4 ** 2 - eps * p5 ** 2,
            p6)


@lru_cache(maxsize=None)
def covariant_polynomials(space: Space) -> tuple[MultiPoly, MultiPoly]:
    """(C1, C2) as polynomials in parameters and the point coordinates."""
    eps = space.eps
    u, w = (var(v) for v in space.point_vars)
    _, _, _, p4, p5, p6 = (var(v) for v in space.param_vars)
    lu, lw = p6 * u + p5, p6 * w + p4
    quad, cross = _quad_cross(space)
    return (lu ** 2 + eps * lw ** 2,
            (lu ** 2 - eps * lw ** 2) * quad + 4 * lu * lw * cross)


@lru_cache(maxsize=None)
def _invariant_table(space: Space):
    return compile_table(invariant_polynomials(space), space.param_vars)


@lru_cache(maxsize=None)
def _covariant_table(space: Space):
    """C1 and C2 as two rows of their coefficients of the point monomials
    `MONOMIALS`, in the parameters, compiled as one table."""
    rows = [c.coefficients_in(space.point_vars)
            for c in covariant_polynomials(space)]
    return compile_table([row.get(m, MultiPoly.zero())
                          for row in rows for m in MONOMIALS],
                         space.param_vars)


def fundamental_invariants(p: KTParams) -> tuple[Fraction, Fraction, Fraction]:
    nums, den = _invariant_table(p.space)(p.values)
    return tuple([Fraction(n, den) for n in nums])


def fundamental_covariants(p: KTParams) -> tuple[MultiPoly, MultiPoly]:
    """C1, C2 with the parameters bound, as polynomials in the point vars."""
    nums, den = _covariant_table(p.space)(p.values)
    pv = p.space.point_vars
    return tuple(MultiPoly._trusted(pv, {m: Fraction(n, den) for m, n in
                                         zip(MONOMIALS, nums[k:k + 6])})
                 for k in (0, 6))


def covariant_sign_classes(p: KTParams) -> tuple[SignClass, SignClass]:
    """The sign classes of C1 and C2, read off the table's integer rows:
    their common denominator is positive, so it keeps every sign."""
    nums, _ = _covariant_table(p.space)(p.values)
    return row_sign_class(nums[:6]), row_sign_class(nums[6:])


# -- joint invariants -------------------------------------------------------

def _j2_candidates() -> dict[str, MultiPoly]:
    """Candidate expressions for the sixth fundamental joint invariant.

    The tabulated closed form for this invariant is corrupt at the source:
    it references a vector parameter that does not exist, and a weight
    count under the rotation generator shows that no expression linear in
    the vector parameters can be rotation invariant at all.  The plausible
    one-symbol repairs of the tabulated form are therefore kept in the
    pool (and expected to fail), alongside the completion derived by
    solving the annihilation system directly: with

        P = beta6 alpha1 - beta4 alpha3,   Q = beta6 alpha2 + beta5 alpha3,
        D = beta6 (beta1 - beta2) + beta5^2 - beta4^2,
        X = beta3 beta6 + beta4 beta5,

    the pairs (P, Q) and (D, 2X) rotate with weights 1 and 2, so
    (P^2 - Q^2) D + 4 P Q X closes the fundamental set.
    """
    a = {i: var(f"alpha{i}") for i in (1, 2, 3)}
    b = {i: var(f"beta{i}") for i in range(1, 7)}
    p = b[6] * a[1] - b[4] * a[3]
    q = b[6] * a[2] + b[5] * a[3]
    dd, cross = _quad_cross(EUCLIDEAN)
    tail = 2 * cross * p
    s2 = b[6] * b[2] - b[5] ** 2
    return {
        "tabulated, alpha5 read as beta5": q * s2 + tail,
        "tabulated, alpha5 read as beta4": (b[6] * a[2] + a[3] * b[4]) * s2 + tail,
        "tabulated, alpha5 read as -beta5": (b[6] * a[2] - a[3] * b[5]) * s2 + tail,
        "derived weight-matched completion": (p ** 2 - q ** 2) * dd + 4 * p * q * cross,
    }


@lru_cache(maxsize=None)
def j2_oracle() -> tuple[str, MultiPoly, tuple[str, ...]]:
    """Select J2 by exact annihilation under the joint generators.

    Returns (selected name, polynomial, rejected names); raises if the
    pool does not contain exactly one annihilated candidate.
    """
    from .generators import joint_generators
    fields = joint_generators(EUCLIDEAN, (1, 2))
    survivors, rejected = [], []
    for name, j2 in _j2_candidates().items():
        if all(f.apply(j2.on_variables(f.domain)).is_zero() for f in fields):
            survivors.append((name, j2))
        else:
            rejected.append(name)
    if len(survivors) != 1:
        raise DomainError(
            f"J2 oracle selected {len(survivors)} candidate readings; "
            "expected exactly one")
    name, j2 = survivors[0]
    return (name, j2, tuple(rejected))


@lru_cache(maxsize=None)
def joint_invariant_polynomials() -> tuple[MultiPoly, ...]:
    """(I1, I2, I3, I4, J1, J2) on the 9-symbol Euclidean product space."""
    a = {i: var(f"alpha{i}") for i in (1, 2, 3)}
    b = {i: var(f"beta{i}") for i in range(1, 7)}
    i1, i2, i3 = invariant_polynomials(EUCLIDEAN)
    i4 = a[3]
    j1 = (b[6] * a[2] + b[5] * a[3]) ** 2 + (b[6] * a[1] - b[4] * a[3]) ** 2
    return (i1, i2, i3, i4, j1, j2_oracle()[1])


@lru_cache(maxsize=None)
def _joint_table():
    return compile_table(joint_invariant_polynomials(),
                         KV_PARAM_VARS + EUCLIDEAN.param_vars)


def joint_invariants(kv: KVParams, kt: KTParams) -> tuple[Fraction, ...]:
    if kv.space.kind != "euclidean" or kt.space.kind != "euclidean":
        raise DomainError("joint invariants are defined for the Euclidean plane")
    nums, den = _joint_table()(kv.values + kt.values)
    return tuple([Fraction(n, den) for n in nums])


# -- auxiliary Minkowski invariants -----------------------------------------

class AuxInvariants(NamedTuple):
    i1_prime: Fraction
    i2_prime: Optional[Fraction]          # None off the defining slice


def _i2_prime(values) -> Optional[Fraction]:
    """The second auxiliary invariant on {alpha6 = 0, I1' = 0}, else None."""
    a1, a2, a3, a4, a5, a6 = values
    if a6 != 0 or a4 * a4 != a5 * a5:
        return None
    return 2 * a3 * a4 * a5 - (a1 + a2) * a4 * a4


def slice_invariant_i2(p: KTParams) -> Fraction:
    """The second auxiliary invariant, defined only on {I3 = 0, I1' = 0}."""
    if p.space.kind != "minkowski":
        raise DomainError("auxiliary invariants live on the Minkowski plane")
    i2p = _i2_prime(p.values)
    if i2p is None:
        raise SubmanifoldError("not on invariant submanifold")
    return i2p


def auxiliary_invariants(p: KTParams) -> AuxInvariants:
    """The auxiliary Minkowski invariants I1' and I2', both exact."""
    if p.space.kind != "minkowski":
        raise DomainError("auxiliary invariants live on the Minkowski plane")
    return _auxiliary(p.values)


def _auxiliary(values) -> AuxInvariants:
    a4, a5 = values[3:5]
    return AuxInvariants(a4 * a4 - a5 * a5, _i2_prime(values))


# -- report container --------------------------------------------------------

class InvariantReport(NamedTuple):
    space: Space
    i1: Fraction
    i2: Fraction
    i3: Fraction
    sign_c1: SignClass
    sign_c2: SignClass
    aux: Optional[AuxInvariants]


def invariant_report(p: KTParams) -> InvariantReport:
    """Every per-input quantity, each computed once."""
    i1, i2, i3 = fundamental_invariants(p)
    s1, s2 = covariant_sign_classes(p)
    aux = _auxiliary(p.values) if p.space.kind == "minkowski" else None
    return InvariantReport(p.space, i1, i2, i3, s1, s2, aux)
