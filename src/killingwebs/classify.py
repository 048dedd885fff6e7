"""Decision procedures for the orthogonal-web equivalence classes.

Euclidean inputs are classified twice, once through the invariant zero
pattern and once through the covariant sign classes, and the two verdicts
must agree.  Minkowski inputs run through a decision tree over the
invariants, the covariant sign classes, and the auxiliary slice invariant,
with the two published ambiguities (EC5 vs EC10, EC6 vs EC8) reported
honestly as merged tags.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import NamedTuple, Optional

from .invariants import InvariantReport, invariant_report, slice_invariant_i2
from .poly import compile_table
from .signs import SignClass
from .spaces import (DomainError, KTParams, NontrivialKT, Space, decompose,
                     embed_nontrivial, field_discriminant,
                     symbolic_killing_tensor)

EUCLIDEAN_TAGS = ("Cartesian", "Polar", "Parabolic", "EllipticHyperbolic")


class WebClass(NamedTuple):
    tag: str
    subtag: Optional[str] = None


class ClassificationReport(NamedTuple):
    params: KTParams
    l0: Fraction
    invariants: InvariantReport
    web: Optional[WebClass]        # None for trivial (metric-multiple) input
    eigen_precondition: str
    caveats: tuple[str, ...]

    def to_json_dict(self) -> dict:
        inv = self.invariants
        aux = inv.aux
        data = {
            "space": self.params.space.kind,
            "input": [str(v) for v in self.params.values],
            "l0": str(self.l0),
            "invariants": {"I1": str(inv.i1), "I2": str(inv.i2),
                           "I3": str(inv.i3)},
            "sign_classes": {"C1": inv.sign_c1.value, "C2": inv.sign_c2.value},
            "class": self.web.tag if self.web else "trivial",
            "subtag": self.web.subtag if self.web else None,
            "caveats": list(self.caveats),
            "eigen_precondition": self.eigen_precondition,
        }
        if aux is not None:
            data["auxiliary"] = {
                "I1_prime": str(aux.i1_prime),
                "I2_prime": None if aux.i2_prime is None else str(aux.i2_prime),
                "Istar_literal": None if aux.istar_literal is None
                else str(aux.istar_literal),
            }
        return data


def _classify_euclidean_by_invariants(i1: Fraction, i3: Fraction) -> str:
    if i1 == 0:
        return "Cartesian" if i3 == 0 else "Polar"
    return "Parabolic" if i3 == 0 else "EllipticHyperbolic"


def _classify_euclidean_by_covariants(s1: SignClass, s2: SignClass) -> str:
    """The covariant rows: C1 zero / positive with C2 zero / both constant /
    positive with C2 indefinite."""
    if s1 == SignClass.ZERO:
        return "Cartesian"
    if s1 == SignClass.NONZERO_CONST and s2 in (SignClass.NONZERO_CONST,
                                                SignClass.ZERO):
        return "Parabolic"
    if s1 == SignClass.POS and s2 == SignClass.ZERO:
        return "Polar"
    if s1 == SignClass.POS and s2 == SignClass.INDEF:
        return "EllipticHyperbolic"
    raise DomainError(
        f"covariant sign pattern (C1={s1.value}, C2={s2.value}) matches no "
        "tabulated row")


def _checked_input(nt: NontrivialKT, kind: str) -> KTParams:
    if nt.space.kind != kind:
        raise DomainError(f"classify_{kind} expects a {kind.capitalize()} input")
    if nt.is_zero():
        raise DomainError("cannot classify the zero tensor")
    return embed_nontrivial(nt)


def classify_euclidean(nt: NontrivialKT) -> WebClass:
    return _euclidean_web(invariant_report(_checked_input(nt, "euclidean")))


def classify_minkowski(nt: NontrivialKT) -> tuple[WebClass, tuple[str, ...]]:
    """Table-based decision tree; returns the class and any caveats."""
    p = _checked_input(nt, "minkowski")
    return _minkowski_web(p, invariant_report(p))


# The decision procedures read I1, I3 and the covariant sign classes from a
# report on the input.  None of these changes when a metric multiple is
# added, and I1, C1, C2 are even in the parameters, so one report on the
# full input serves the nontrivial part and its negation too.

def _euclidean_web(inv: InvariantReport) -> WebClass:
    by_inv = _classify_euclidean_by_invariants(inv.i1, inv.i3)
    by_cov = _classify_euclidean_by_covariants(inv.sign_c1, inv.sign_c2)
    if by_inv != by_cov:
        raise DomainError(
            f"invariant table ({by_inv}) and covariant table ({by_cov}) "
            "disagree; input outside the tables' common domain")
    return WebClass(by_inv)


def _minkowski_web(p: KTParams, inv: InvariantReport
                   ) -> tuple[WebClass, tuple[str, ...]]:
    caveats: list[str] = []
    i1, i3, s2 = inv.i1, inv.i3, inv.sign_c2
    if i3 < 0:
        # K and -K generate the same web; fix the overall sign so that the
        # tabulated sign predicates read off a normalized representative.
        p = p.scale(Fraction(-1))
        i3 = -i3
        caveats.append("parameters negated to normalize I3 > 0")

    if i3 == 0:
        if i1 != 0:
            return WebClass("EC4"), tuple(caveats)
        # Here I1 = (alpha4^2 - alpha5^2)^2, so the slice condition holds.
        i2p = slice_invariant_i2(p)
        return WebClass("EC1" if i2p == 0 else "EC3"), tuple(caveats)

    if i1 == 0:
        if s2 == SignClass.ZERO:
            return WebClass("EC2"), tuple(caveats)
        if s2 == SignClass.POS:
            return WebClass("EC7"), tuple(caveats)
        raise DomainError(
            f"sign pattern (I1=0, C2={s2.value}) matches no tabulated row")
    if i1 > 0:
        if s2 == SignClass.POS:
            return WebClass("EC5_or_EC10"), tuple(caveats) + (
                "EC5 and EC10 share all tabulated values; they cover "
                "disjoint regions of the same plane",)
        if s2 == SignClass.NEG:
            return WebClass("EC9"), tuple(caveats)
        raise DomainError(
            f"sign pattern (I1>0, C2={s2.value}) matches no tabulated row")
    # I1 < 0: the tables separate EC6 from EC8 via an auxiliary quantity
    # that depends on external data (the canonical scale); the literal
    # reading (auxiliary_invariants' istar_literal of the normalized input)
    # is a function of I1 and I3 alone and cannot separate general
    # representatives, so the pair is merged with an advisory subtag.
    subtag = "EC8" if -i1 / i3 + i1 == 0 else "EC6"
    caveats.append(
        "EC6/EC8 separation relies on the canonical-form scale; the literal "
        "auxiliary invariant used for the subtag depends only on I1 and I3 "
        "and real boosts plus reflections connect the two canonical shapes")
    return WebClass("EC6_or_EC8", subtag), tuple(caveats)


# The sampled grid: u, w in {-2, -3/2, ..., 2}, scaled by 2 to integers.
_GRID = tuple((i - 4, j - 4) for i in range(9) for j in range(9))


@lru_cache(maxsize=None)
def _discriminant_grid(space: Space):
    """The eigenvalue discriminant's coefficients in the point variables,
    compiled as a table in the parameters, and for each grid point the
    integer weights that turn those coefficients into 2^degree times the
    discriminant's value there."""
    disc = field_discriminant(symbolic_killing_tensor(space))
    coeffs = disc.coefficients_in(space.point_vars)
    degree = disc.total_degree(restrict=space.point_vars)
    weights = tuple(tuple(u ** i * w ** j * 2 ** (degree - i - j)
                          for i, j in coeffs)
                    for u, w in _GRID)
    return compile_table(tuple(coeffs.values()), space.param_vars), weights


def _eigen_precondition(p: KTParams) -> str:
    """Sample the eigenvalue discriminant on a rational grid over [-2, 2]^2.

    Values are compared to zero only, so each is taken as an integer
    multiple of the true value: coefficients over their common denominator,
    point coordinates doubled.
    """
    table, weights = _discriminant_grid(p.space)
    coeffs = table(p.values)
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    seen_zero = False
    for row in weights:
        value = sum(map(mul, ints, row))
        if value < 0:
            return "complex"
        if value == 0:
            seen_zero = True
    return "degenerate" if seen_zero else "satisfied on sampled region"


def classify_full(p: KTParams) -> ClassificationReport:
    """The two-step procedure: strip the metric multiple, then classify."""
    l0, nt = decompose(p)
    inv = invariant_report(p)
    precondition = _eigen_precondition(p)
    caveats: list[str] = []
    if nt.is_zero():
        caveats.append("trivial (multiple of metric), no web")
        return ClassificationReport(p, l0, inv, None, precondition,
                                    tuple(caveats))
    if p.space.kind == "euclidean":
        web = _euclidean_web(inv)
    else:
        web, tree_caveats = _minkowski_web(p, inv)
        caveats.extend(tree_caveats)
        if precondition == "complex":
            caveats.append(
                "eigenvalues complex on part of the sampled region; the "
                "tensor does not generate a web there")
    return ClassificationReport(p, l0, inv, web, precondition, tuple(caveats))
