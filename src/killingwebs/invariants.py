"""Fundamental invariants, covariant sign classes, auxiliary invariants.

I1-I3 and the covariants' coefficient rows are closed forms in epsilon and
the parameters, written once for any ring: evaluated here on the integer
numerators of an input over their common denominator d (a form of degree
k takes d^k times its value), and in `symbolic` on `var` symbols.  The
polynomials and the joint invariants live there; this module serves only
`invariant_polynomials`, `covariant_polynomials` and
`fundamental_covariants`, which the benchmark reaches through it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import _forward
from .signs import SignClass, row_sign_class
from .spaces import DomainError, KTParams, Space, common_numerators


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


def fundamental_invariants(p: KTParams) -> tuple[Fraction, Fraction, Fraction]:
    return _scaled_invariants(p.space.eps, *common_numerators(p.values))


def _scaled_invariants(eps, nums, d):
    """(I1, I2, I3) of the input with numerators `nums` over d."""
    i1, i2, i3 = _invariants(eps, nums)
    return Fraction(i1, d ** 4), Fraction(i2, d * d), Fraction(i3, d)


def covariant_sign_classes(p: KTParams) -> tuple[SignClass, SignClass]:
    """The sign classes of C1 and C2, decided on their integer rows."""
    nums, _ = common_numerators(p.values)
    return tuple(map(row_sign_class, _covariant_rows(p.space.eps, nums)))


# -- auxiliary Minkowski invariants -----------------------------------------

class AuxInvariants(NamedTuple):
    i1_prime: Fraction
    i2_prime: Optional[Fraction]          # None off the defining slice


def auxiliary_invariants(p: KTParams) -> AuxInvariants:
    """The auxiliary Minkowski invariants I1' and I2', both exact."""
    if p.space.kind != "minkowski":
        raise DomainError("auxiliary invariants live on the Minkowski plane")
    return _auxiliary(*common_numerators(p.values))


def _auxiliary(nums, d) -> AuxInvariants:
    """I1', and I2' on its slice {alpha6 = 0, I1' = 0} (else None), of the
    input with numerators `nums` over d."""
    n1, n2, n3, n4, n5, n6 = nums
    i1p = n4 * n4 - n5 * n5
    return AuxInvariants(Fraction(i1p, d * d), None if n6 or i1p else
                         Fraction(2 * n3 * n4 * n5 - (n1 + n2) * n4 * n4,
                                  d * d * d))


# -- report container --------------------------------------------------------

class InvariantReport(NamedTuple):
    space: Space
    i1: Fraction
    i2: Fraction
    i3: Fraction
    sign_c1: SignClass
    sign_c2: SignClass
    aux: Optional[AuxInvariants]
    numerators: tuple[int, ...]    # the input over its common denominator

    def to_json_dict(self, fmt=str) -> dict:
        """The invariants, the sign classes and, on the Minkowski plane,
        the auxiliary invariants, each value written by `fmt`."""
        data = {"invariants": {"I1": fmt(self.i1), "I2": fmt(self.i2),
                               "I3": fmt(self.i3)},
                "sign_classes": {"C1": self.sign_c1.value,
                                 "C2": self.sign_c2.value}}
        if self.aux is not None:
            i2p = self.aux.i2_prime
            data["auxiliary"] = {"I1_prime": fmt(self.aux.i1_prime),
                                 "I2_prime": None if i2p is None else fmt(i2p)}
        return data


def invariant_report(p: KTParams) -> InvariantReport:
    """Every per-input quantity, each computed once, and the integer
    numerators they are computed from."""
    nums, d = common_numerators(p.values)
    eps = p.space.eps
    i1, i2, i3 = _scaled_invariants(eps, nums, d)
    s1, s2 = map(row_sign_class, _covariant_rows(eps, nums))
    aux = _auxiliary(nums, d) if eps < 0 else None
    return InvariantReport(p.space, i1, i2, i3, s1, s2, aux, tuple(nums))


__getattr__ = _forward(__name__, symbolic="""
    invariant_polynomials covariant_polynomials fundamental_covariants""")
