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
from typing import NamedTuple, Optional

from .invariants import InvariantReport, invariant_report
from .signs import SignClass
from .spaces import DomainError, KTParams, NontrivialKT, embed_nontrivial

class WebClass(NamedTuple):
    tag: str


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
            "caveats": list(self.caveats),
            "eigen_precondition": self.eigen_precondition,
        }
        if aux is not None:
            data["auxiliary"] = {
                "I1_prime": str(aux.i1_prime),
                "I2_prime": None if aux.i2_prime is None else str(aux.i2_prime),
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
    return _minkowski_web(invariant_report(_checked_input(nt, "minkowski")))


# The decision procedures read I1, I3, the covariant sign classes and
# (Minkowski, on I3 = I1 = 0) whether I2' vanishes from a report on the
# input.  None of these changes when a metric multiple is added, and I1,
# C1, C2 are even in the parameters and I2' is odd, so one report on the
# full input serves the nontrivial part and its negation too.

def _euclidean_web(inv: InvariantReport) -> WebClass:
    by_inv = _classify_euclidean_by_invariants(inv.i1, inv.i3)
    by_cov = _classify_euclidean_by_covariants(inv.sign_c1, inv.sign_c2)
    if by_inv != by_cov:
        raise DomainError(
            f"invariant table ({by_inv}) and covariant table ({by_cov}) "
            "disagree; input outside the tables' common domain")
    return WebClass(by_inv)


def _minkowski_web(inv: InvariantReport) -> tuple[WebClass, tuple[str, ...]]:
    caveats: list[str] = []
    i1, i3, s2 = inv.i1, inv.i3, inv.sign_c2
    if i3 < 0:
        # K and -K generate the same web; the tabulated sign predicates
        # read off the normalized representative -K.  Of the quantities
        # below only I3 is odd, and only whether it vanishes is read.
        caveats.append("parameters negated to normalize I3 > 0")

    if i3 == 0:
        if i1 != 0:
            return WebClass("EC4"), tuple(caveats)
        # Here I1 = (alpha4^2 - alpha5^2)^2, so the input lies on the slice
        # where I2' is defined.
        return (WebClass("EC1" if inv.aux.i2_prime == 0 else "EC3"),
                tuple(caveats))

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
    return WebClass("EC6_or_EC8"), tuple(caveats)        # I1 < 0


def _signs(a: int, b: int, c: int) -> set[int]:
    """The signs that a s^2 + 2 b s + c takes as s runs over the reals."""
    d = b * b - a * c
    if d > 0:                   # a simple real root
        return {-1, 0, 1}
    # Else the sign of a, or of c when a = 0 (which forces b = 0), and 0 at
    # a double root.
    lead = a or c
    sign = (lead > 0) - (lead < 0)
    return {sign, 0} if d == 0 and a else {sign}


def _eigen_precondition(inv: InvariantReport) -> str:
    """The sign of the eigenvalue discriminant over the whole plane, read
    from the report's integer numerators of the input (the same signs):
    "complex" if negative somewhere, else "degenerate" if zero somewhere,
    else "satisfied".

    Euclidean: disc = (k00 - k11)^2 + 4 k01^2, and the two quadratics share
    a real zero unless v4 = v5 = v6 = 0, when disc is constant.  Minkowski:
    disc = f(t - x) g(t + x) for the two quadratics below, and the null
    coordinates t - x, t + x are independent, so disc takes exactly the
    products of their signs.
    """
    v1, v2, v3, v4, v5, v6 = inv.numerators
    if inv.space.eps > 0:
        if v4 == v5 == v6 == 0 and (v1 != v2 or v3 != 0):
            return "satisfied"
        return "degenerate"
    signs = {x * y for x in _signs(v6, v5 - v4, v1 + v2 - 2 * v3)
             for y in _signs(v6, v5 + v4, v1 + v2 + 2 * v3)}
    if -1 in signs:
        return "complex"
    return "degenerate" if 0 in signs else "satisfied"


def classify_full(p: KTParams) -> ClassificationReport:
    """The two-step procedure: strip the metric multiple, then classify.
    From the numerators: l0 = eps v2; trivial iff n1 = eps n2, n3..n6 = 0."""
    eps = p.space.eps
    inv = invariant_report(p)
    n1, n2, n3, n4, n5, n6 = inv.numerators
    l0 = p.values[1] if eps > 0 else -p.values[1]
    precondition = _eigen_precondition(inv)
    if n1 == eps * n2 and n3 == n4 == n5 == n6 == 0:
        return ClassificationReport(p, l0, inv, None, precondition,
                                    ("trivial (multiple of metric), no web",))
    if eps > 0:
        return ClassificationReport(p, l0, inv, _euclidean_web(inv),
                                    precondition, ())
    web, caveats = _minkowski_web(inv)
    if precondition == "complex":
        caveats += ("eigenvalues complex on an open region of the plane; the "
                    "tensor does not generate a web there",)
    return ClassificationReport(p, l0, inv, web, precondition, caveats)
