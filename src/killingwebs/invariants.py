"""Fundamental invariants, covariants, joint and auxiliary invariants.

I1-I3 and the covariants' coefficient rows are closed forms in epsilon and
the parameters, written once for any ring: evaluated on the integer
numerators of an input over their common denominator d (a form of degree
k takes d^k times its value), or on `var` symbols for the symbolic
versions, which the generators must annihilate and which serve as the
substitution oracle.  The joint invariants are compiled (`compile_table`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .poly import MultiPoly, common_numerators, compile_table, var
from .signs import MONOMIALS, SignClass, row_sign_class
from .spaces import (EUCLIDEAN, KV_PARAM_VARS, DomainError, KTParams,
                     KVParams, Space)


class SubmanifoldError(DomainError):
    """Raised when a slice-only invariant is requested off its slice."""


# -- invariants and covariants, in any ring ---------------------------------

def _quad_cross(eps, p1, p2, p3, p4, p5, p6):
    """The quadratics quad and cross; (quad, 2 cross) turns with weight 2
    under the rotation (Euclidean) or boost."""
    return (eps * (p6 * p1 - p4 * p4) - (p6 * p2 - p5 * p5),
            p3 * p6 + eps * p4 * p5)


def _invariants(eps, p):
    """(I1, I2, I3), homogeneous of degrees 4, 2 and 1."""
    p1, p2, _, p4, p5, p6 = p
    quad, cross = _quad_cross(eps, *p)
    return (quad * quad + 4 * eps * cross * cross,
            p6 * (p1 + eps * p2) - p4 * p4 - eps * p5 * p5,
            p6)


def _covariant_rows(eps, p):
    """The coefficients of C1 and C2 at the point monomials `MONOMIALS`,
    homogeneous of degrees 2 and 4.  With lu = p6 u + p5, lw = p6 w + p4:
    C1 = lu^2 + eps lw^2 and C2 = (lu^2 - eps lw^2) quad + 4 lu lw cross."""
    _, _, _, p4, p5, p6 = p
    quad, cross = _quad_cross(eps, *p)
    sq, x4 = p6 * p6, 4 * cross
    return ((sq, 0, eps * sq, 2 * p6 * p5, 2 * eps * p6 * p4,
             p5 * p5 + eps * p4 * p4),
            (sq * quad, sq * x4, -eps * sq * quad,
             p6 * (2 * p5 * quad + p4 * x4),
             p6 * (p5 * x4 - 2 * eps * p4 * quad),
             (p5 * p5 - eps * p4 * p4) * quad + p4 * p5 * x4))


@lru_cache(maxsize=None)
def invariant_polynomials(space: Space) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(I1, I2, I3) as polynomials in the six parameter symbols."""
    return _invariants(space.eps, [var(v) for v in space.param_vars])


@lru_cache(maxsize=None)
def covariant_polynomials(space: Space) -> tuple[MultiPoly, MultiPoly]:
    """(C1, C2) as polynomials in parameters and the point coordinates."""
    u, w = (var(v) for v in space.point_vars)
    monomials = [u ** i * w ** j for i, j in MONOMIALS]
    rows = _covariant_rows(space.eps, [var(v) for v in space.param_vars])
    return tuple(sum((c * m for c, m in zip(row, monomials)), MultiPoly.zero())
                 for row in rows)


def fundamental_invariants(p: KTParams) -> tuple[Fraction, Fraction, Fraction]:
    nums, d = common_numerators(p.values)
    i1, i2, i3 = _invariants(p.space.eps, nums)
    return Fraction(i1, d ** 4), Fraction(i2, d * d), Fraction(i3, d)


def fundamental_covariants(p: KTParams) -> tuple[MultiPoly, MultiPoly]:
    """C1, C2 with the parameters bound, as polynomials in the point vars."""
    nums, d = common_numerators(p.values)
    pv = p.space.point_vars
    return tuple(MultiPoly._trusted(pv, {m: Fraction(n, d ** k) for m, n in
                                         zip(MONOMIALS, row)})
                 for row, k in zip(_covariant_rows(p.space.eps, nums), (2, 4)))


def covariant_sign_classes(p: KTParams) -> tuple[SignClass, SignClass]:
    """The sign classes of C1 and C2, decided on their integer rows."""
    nums, _ = common_numerators(p.values)
    return tuple(map(row_sign_class, _covariant_rows(p.space.eps, nums)))


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
    dd, cross = _quad_cross(EUCLIDEAN.eps, *b.values())
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
    return (*survivors[0], tuple(rejected))


@lru_cache(maxsize=None)
def joint_invariant_polynomials() -> tuple[MultiPoly, ...]:
    """(I1, I2, I3, I4, J1, J2) on the 9-symbol Euclidean product space."""
    a = {i: var(f"alpha{i}") for i in (1, 2, 3)}
    b = {i: var(f"beta{i}") for i in range(1, 7)}
    i1, i2, i3 = invariant_polynomials(EUCLIDEAN)
    j1 = (b[6] * a[2] + b[5] * a[3]) ** 2 + (b[6] * a[1] - b[4] * a[3]) ** 2
    return (i1, i2, i3, a[3], j1, j2_oracle()[1])


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


def slice_invariant_i2(p: KTParams) -> Fraction:
    """The second auxiliary invariant, defined only on {I3 = 0, I1' = 0}."""
    i2p = auxiliary_invariants(p).i2_prime
    if i2p is None:
        raise SubmanifoldError("not on invariant submanifold")
    return i2p


def auxiliary_invariants(p: KTParams) -> AuxInvariants:
    """The auxiliary Minkowski invariants I1' and I2', both exact."""
    if p.space.kind != "minkowski":
        raise DomainError("auxiliary invariants live on the Minkowski plane")
    return _auxiliary(p.values)


def _auxiliary(values) -> AuxInvariants:
    """I1', and I2' on its slice {alpha6 = 0, I1' = 0} (else None)."""
    a1, a2, a3, a4, a5, a6 = values
    i1p = a4 * a4 - a5 * a5
    return AuxInvariants(i1p, None if a6 or i1p else
                         2 * a3 * a4 * a5 - (a1 + a2) * a4 * a4)


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
