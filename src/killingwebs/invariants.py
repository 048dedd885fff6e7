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

from .poly import MultiPoly, compile_table, rational_sqrt, var
from .signs import SignClass, quadratic_sign_class
from .spaces import (EUCLIDEAN, KV_PARAM_VARS, DomainError, KTParams,
                     KVParams, Space, general_killing_tensor,
                     symbolic_killing_tensor)


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


def _param_assignment(p: KTParams) -> dict[str, Fraction]:
    return dict(zip(p.space.param_vars, p.values))


@lru_cache(maxsize=None)
def _invariant_table(space: Space):
    return compile_table(invariant_polynomials(space), space.param_vars)


@lru_cache(maxsize=None)
def _covariant_table(space: Space):
    """The point monomials of C1 and of C2, and their coefficients (in the
    parameters) compiled as one table."""
    c1, c2 = (c.coefficients_in(space.point_vars)
              for c in covariant_polynomials(space))
    coeffs = tuple(c1.values()) + tuple(c2.values())
    return tuple(c1), tuple(c2), compile_table(coeffs, space.param_vars)


def fundamental_invariants(p: KTParams) -> tuple[Fraction, Fraction, Fraction]:
    return _invariant_table(p.space)(p.values)


def fundamental_covariants(p: KTParams) -> tuple[MultiPoly, MultiPoly]:
    """C1, C2 with the parameters bound, as polynomials in the point vars."""
    monos1, monos2, table = _covariant_table(p.space)
    values = table(p.values)
    point_vars = p.space.point_vars
    return (MultiPoly(point_vars, dict(zip(monos1, values))),
            MultiPoly(point_vars, dict(zip(monos2, values[len(monos1):]))))


def _sign_classes(space: Space, c1: MultiPoly, c2: MultiPoly
                  ) -> tuple[SignClass, SignClass]:
    return (quadratic_sign_class(c1, space.point_vars),
            quadratic_sign_class(c2, space.point_vars))


def covariant_sign_classes(p: KTParams) -> tuple[SignClass, SignClass]:
    return _sign_classes(p.space, *fundamental_covariants(p))


def trace_identity_check(p: KTParams | None = None) -> MultiPoly:
    """C1 - (I3 tr(K g^{-1}) - I2), identically zero for the Euclidean plane.

    With no argument the identity is checked fully symbolically.
    """
    space = EUCLIDEAN if p is None else p.space
    if space.kind != "euclidean":
        raise DomainError("the trace identity is a Euclidean statement")
    if p is None:
        comps = symbolic_killing_tensor(space).components
        assignment = None
    else:
        comps = general_killing_tensor(p).components
        assignment = _param_assignment(p)
    g0, g1 = space.metric_diag
    trace = g0 * comps[0] + g1 * comps[2]
    i1, i2, i3 = invariant_polynomials(space)
    c1 = covariant_polynomials(space)[0]
    if assignment is not None:
        i2, i3 = i2.subst(assignment), i3.subst(assignment)
        c1 = c1.subst(assignment)
    return c1 - (i3 * trace - i2)


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
    return _joint_table()(kv.values + kt.values)


# -- auxiliary Minkowski invariants -----------------------------------------

class K2Candidate(NamedTuple):
    value: Fraction | float
    exact: bool          # True when the radicand was a perfect rational square


class AuxInvariants(NamedTuple):
    i1_prime: Fraction
    i2_prime: Optional[Fraction]          # None off the defining slice
    k2_candidates: tuple[K2Candidate, ...]
    istar_literal: Optional[Fraction]     # from the I1 < 0 branch k, rational
    istar_canonical: Optional[Fraction | float]  # k^4 I3 + I1 with supplied k2
    notes: tuple[str, ...] = ()


def slice_invariant_i2(p: KTParams) -> Fraction:
    """The second auxiliary invariant, defined only on {I3 = 0, I1' = 0}."""
    if p.space.kind != "minkowski":
        raise DomainError("auxiliary invariants live on the Minkowski plane")
    a1, a2, a3, a4, a5, a6 = p.values
    if a6 != 0 or a4 * a4 - a5 * a5 != 0:
        raise SubmanifoldError("not on invariant submanifold")
    return 2 * a3 * a4 * a5 - (a1 + a2) * a4 * a4


def auxiliary_invariants(p: KTParams,
                         k2: Fraction | None = None) -> AuxInvariants:
    """Auxiliary data used by the Minkowski classification.

    The k^2 candidate follows the published square-root formulas; it is kept
    exact when the radicand is a perfect rational square and surfaced as a
    float otherwise, never rounded silently.  Both readings of the EC6/EC8
    separator are reported: the literal one (a function of I1, I3 alone) and,
    when a canonical k^2 is supplied, the canonical-form one.
    """
    if p.space.kind != "minkowski":
        raise DomainError("auxiliary invariants live on the Minkowski plane")
    i1, _, i3 = fundamental_invariants(p)
    return _auxiliary(p, i1, i3, k2)


def _auxiliary(p: KTParams, i1: Fraction, i3: Fraction,
               k2: Fraction | None) -> AuxInvariants:
    a1, a2, a3, a4, a5, a6 = p.values
    i1p = a4 * a4 - a5 * a5
    notes = []
    try:
        i2p: Optional[Fraction] = slice_invariant_i2(p)
    except SubmanifoldError:
        i2p = None

    candidates = []
    if i1 != 0 and i3 != 0:
        radicand = i1 if i1 > 0 else -i1
        root = rational_sqrt(radicand)
        if root is not None:
            candidates.append(K2Candidate(root / i3, True))
        else:
            candidates.append(K2Candidate(float(radicand) ** 0.5 / float(i3),
                                          False))
        if candidates[0].value < 0:
            notes.append("k2 formula yields a negative value here "
                         "(the published square-root formula does not "
                         "produce a positive k2 for this sign pattern)")

    istar_literal = None
    if i1 < 0 and i3 != 0:
        # k^4 = -I1 / I3^2 from the I1 < 0 branch, so the literal separator
        # depends on (I1, I3) only.
        istar_literal = -i1 / i3 + i1
    istar_canonical = None
    if k2 is not None and i3 != 0:
        istar_canonical = k2 * k2 * i3 + i1
    return AuxInvariants(i1p, i2p, tuple(candidates), istar_literal,
                         istar_canonical, tuple(notes))


# -- report container --------------------------------------------------------

class InvariantReport(NamedTuple):
    space: Space
    i1: Fraction
    i2: Fraction
    i3: Fraction
    c1: MultiPoly
    c2: MultiPoly
    sign_c1: SignClass
    sign_c2: SignClass
    aux: Optional[AuxInvariants]


def invariant_report(p: KTParams, k2: Fraction | None = None) -> InvariantReport:
    """Every per-input quantity, each computed once."""
    i1, i2, i3 = fundamental_invariants(p)
    c1, c2 = fundamental_covariants(p)
    s1, s2 = _sign_classes(p.space, c1, c2)
    aux = _auxiliary(p, i1, i3, k2) if p.space.kind == "minkowski" else None
    return InvariantReport(p.space, i1, i2, i3, c1, c2, s1, s2, aux)
