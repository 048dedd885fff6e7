"""Fundamental invariants, the cell table, auxiliary invariants.

I1-I3 are closed forms in epsilon, the parameters and the quadratics quad
and cross, written once for any ring: evaluated here on the integer
numerators of an input over their common denominator d (a form of degree
k takes d^k times its value), and in `symbolic` on `var` symbols.  Each
input's cell is decided once from the same numerators, quad and cross;
`_CELLS` maps it to the covariants' sign classes and the web class.  The
covariants' rows, the polynomials and the joint invariants live in
`symbolic`.  This
module serves only `invariant_polynomials`, `covariant_polynomials` and
`fundamental_covariants`, which the benchmark reaches through it.

The invariants are the coefficients of a pencil: with
A = [[v1, v3, -eps v4], [v3, v2, v5], [-eps v4, v5, v6]] and
D = diag(1, eps, 0), det(A - lam D) = det A - eps I2 lam + eps I3 lam^2,
and I1 = I2^2 - 4 eps I3 det A (both proven as polynomial identities in
the tests, in both planes).  The closed forms stay the ones evaluated.
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


# -- the cell: one decision per input ---------------------------------------

def _quadratic(disc) -> str:
    return "two" if disc > 0 else "none" if disc < 0 else "double"


def _affine(b, c) -> str:
    return "linear" if b else "const" if c else "zero"


def _cell(eps, nums, quad, cross):
    """The root types of the factors of the eigenvalue discriminant, from
    the integer numerators and quad and cross there.  Euclidean (a str):
    the focal polynomial h(z) = -v6 z^2 - 2 (v5 + i v4) z + (v1 - v2
    + 2 i v3), of quarter discriminant quad + 2 i cross.  Minkowski (a
    sorted tuple): the null-coordinate factors f(s), g(s) = v6 s^2
    + 2 (v5 -+ v4) s + (v1 + v2 -+ 2 v3), of quarter discriminants
    quad +- 2 cross, and the sign pattern of two nonzero constants."""
    v1, v2, v3, v4, v5, v6 = nums
    if eps > 0:
        if v6:
            return "two" if quad or cross else "double"
        return _affine(v4 or v5, v1 != v2 or v3)
    if v6:
        f, g = _quadratic(quad + 2 * cross), _quadratic(quad - 2 * cross)
    else:
        f0, g0 = v1 + v2 - 2 * v3, v1 + v2 + 2 * v3
        f, g = _affine(v5 - v4, f0), _affine(v5 + v4, g0)
        if f == g == "const":
            return f, g, "same" if (f0 > 0) == (g0 > 0) else "opposite"
    return (f, g) if f <= g else (g, f)


_ZERO, _CONST, _POS, _NEG, _INDEF = SignClass
_TRIVIAL = ("trivial (multiple of metric), no web",)

# cell -> (the sign classes of C1 and C2, which are functions of the cell;
# the class tag, or None for a multiple of the metric; the verdict, the
# sign of the eigenvalue discriminant over the plane: "complex" if negative
# somewhere, else "degenerate" if zero somewhere, else "satisfied"; the
# row's caveats).  The paper's EC1 row is split by its verdict.  On
# (double, none), which no tabulated row covers, disc = f g is nowhere
# negative and vanishes on the null line of the double root.
_CELLS = {
    "zero": (_ZERO, _ZERO, None, "degenerate", _TRIVIAL),
    "const": (_ZERO, _ZERO, "Cartesian", "satisfied", ()),
    "linear": (_CONST, _CONST, "Parabolic", "degenerate", ()),
    "double": (_POS, _ZERO, "Polar", "degenerate", ()),
    "two": (_POS, _INDEF, "EllipticHyperbolic", "degenerate", ()),
    ("two", "two"): (_INDEF, _POS, "EC5_or_EC10", "complex", (
        "EC5 and EC10 share all tabulated values; they cover disjoint "
        "regions of the same plane",)),
    ("none", "two"): (_INDEF, _INDEF, "EC6_or_EC8", "complex", ()),
    ("double", "two"): (_INDEF, _POS, "EC7", "complex", ()),
    ("double", "none"): (_INDEF, _NEG, "outside_tables", "degenerate", (
        "one null-coordinate factor has a double root and the other no real "
        "root (I1 = 0, C2 negative): no tabulated row covers this cell",)),
    ("none", "none"): (_INDEF, _NEG, "EC9", "satisfied", ()),
    ("double", "double"): (_INDEF, _ZERO, "EC2", "degenerate", ()),
    ("linear", "linear"): (_CONST, _CONST, "EC4", "complex", ()),
    ("const", "linear"): (_ZERO, _ZERO, "EC3", "complex", ()),
    ("const", "const", "same"): (_ZERO, _ZERO, "EC1", "satisfied", ()),
    ("const", "const", "opposite"): (_ZERO, _ZERO, "no_real_web", "complex",
                                     ()),
    ("const", "zero"): (_ZERO, _ZERO, "no_web_repeated_eigenvalue",
                        "degenerate", ()),
    ("linear", "zero"): (_ZERO, _ZERO, "no_web_repeated_eigenvalue",
                         "degenerate", ()),
    ("zero", "zero"): (_ZERO, _ZERO, None, "degenerate", _TRIVIAL),
}


def covariant_sign_classes(p: KTParams) -> tuple[SignClass, SignClass]:
    """The sign classes of C1 and C2, read from the cell's row."""
    eps, nums, _, quad, cross = _numerators(p)
    return _CELLS[_cell(eps, nums, quad, cross)][:2]


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
        "InvariantReport",
        "space i1 i2 i3 cell sign_c1 sign_c2 aux numerators")):
    """space: Space; i1, i2, i3: Fraction; cell: str | tuple[str, ...], the
    key of the input's row of `_CELLS`; sign_c1, sign_c2: SignClass;
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
    cell = _cell(eps, nums, quad, cross)
    row = _CELLS[cell]
    aux = _auxiliary(nums, d) if eps < 0 else None
    return InvariantReport(p.space, i1, i2, i3, cell, row[0], row[1], aux,
                           tuple(nums))


__getattr__ = _forward(__name__, symbolic="""
    invariant_polynomials covariant_polynomials fundamental_covariants""")
