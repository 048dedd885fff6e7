"""Fundamental invariants, covariant sign classes, auxiliary invariants.

I1-I3 are closed forms in epsilon, the parameters and the quadratics quad
and cross, written once for any ring: evaluated here on the integer
numerators of an input over their common denominator d (a form of degree
k takes d^k times its value), and in `symbolic` on `var` symbols.  The
covariants' sign classes are read off quad and cross; their coefficient
rows, the polynomials and the joint invariants live in `symbolic`.  This
module serves only `invariant_polynomials`, `covariant_polynomials` and
`fundamental_covariants`, which the benchmark reaches through it.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction

from . import _forward
from .spaces import DomainError, KTParams, Space, common_numerators


class SignClass(enum.Enum):
    ZERO = "zero"
    NONZERO_CONST = "nonzero_const"
    POS = "positive"
    NEG = "negative"
    INDEF = "indefinite"


# The exponents in the point variables (u, w) of the six coefficients of a
# row (A, B, C, D, E, F): u^2, uw, w^2, u, w, 1.  Here, beside the class
# the report carries, so that `symbolic` reads them without running `signs`.
MONOMIALS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))


# -- invariants and covariants, in any ring ---------------------------------

def _quad_cross(eps, p1, p2, p3, p4, p5, p6):
    """The quadratics quad and cross; (quad, 2 cross) turns with weight 2
    under the rotation (Euclidean) or boost."""
    return (eps * (p6 * p1 - p4 * p4) - (p6 * p2 - p5 * p5),
            p3 * p6 + eps * p4 * p5)


def _invariants(eps, p, quad, cross):
    """(I1, I2, I3) from quad and cross at p, of degrees 4, 2 and 1."""
    p1, p2, _, p4, p5, p6 = p
    return (quad * quad + 4 * eps * cross * cross,
            p6 * (p1 + eps * p2) - p4 * p4 - eps * p5 * p5,
            p6)


def _numerators(p: KTParams):
    """eps, p's numerators over their lcm d, and quad and cross at them."""
    nums, d = common_numerators(p.values)
    eps = p.space.eps
    return eps, nums, d, *_quad_cross(eps, *nums)


def _scaled_invariants(p, eps, nums, d, quad, cross):
    """(I1, I2, I3) of p; I3 = v6 is p's own Fraction."""
    i1, i2, _ = _invariants(eps, nums, quad, cross)
    return Fraction(i1, d ** 4), Fraction(i2, d * d), p.values[5]


def fundamental_invariants(p: KTParams) -> tuple[Fraction, Fraction, Fraction]:
    return _scaled_invariants(p, *_numerators(p))


# The classes as module globals, which are read faster than enum members.
_ZERO, _CONST, _POS, _NEG, _INDEF = SignClass


def _sign_classes(eps, p, quad, cross):
    """The sign classes of C1 and C2 at integers p, given quad and cross
    there.  If p6 = 0, C1 = p5^2 + eps p4^2 and C2 = C1^2.  Else
    lu = p6 u + p5 and lw = p6 w + p4 run over the plane.  Euclidean:
    C1 = lu^2 + lw^2, and C2 is a form in (lu, lw) of determinant
    -I1 = -(quad^2 + 4 cross^2).  Minkowski, with s, t = lu -+ lw and
    Df, Dg = quad +- 2 cross: C1 = s t and 2 C2 = s^2 Dg + t^2 Df."""
    if not p[5]:
        c1 = _CONST if p[4] * p[4] + eps * p[3] * p[3] else _ZERO
        return c1, c1
    if eps > 0:
        return _POS, _INDEF if quad or cross else _ZERO
    df, dg = quad + 2 * cross, quad - 2 * cross
    if df >= 0 and dg >= 0:
        return _INDEF, _POS if df or dg else _ZERO
    return _INDEF, _NEG if df <= 0 and dg <= 0 else _INDEF


def covariant_sign_classes(p: KTParams) -> tuple[SignClass, SignClass]:
    """The sign classes of C1 and C2."""
    eps, nums, _, quad, cross = _numerators(p)
    return _sign_classes(eps, nums, quad, cross)


# -- auxiliary Minkowski invariants -----------------------------------------

# i1_prime: Fraction; i2_prime: Fraction | None, None off the defining slice.
AuxInvariants = namedtuple("AuxInvariants", "i1_prime i2_prime")


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

class InvariantReport(namedtuple(
        "InvariantReport", "space i1 i2 i3 sign_c1 sign_c2 aux numerators")):
    """space: Space; i1, i2, i3: Fraction; sign_c1, sign_c2: SignClass;
    aux: AuxInvariants | None; numerators: tuple[int, ...], the input over
    its common denominator."""
    __slots__ = ()

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
    eps, nums, d, quad, cross = _numerators(p)
    i1, i2, i3 = _scaled_invariants(p, eps, nums, d, quad, cross)
    s1, s2 = _sign_classes(eps, nums, quad, cross)
    aux = _auxiliary(nums, d) if eps < 0 else None
    return InvariantReport(p.space, i1, i2, i3, s1, s2, aux, tuple(nums))


__getattr__ = _forward(__name__, symbolic="""
    invariant_polynomials covariant_polynomials fundamental_covariants""")
