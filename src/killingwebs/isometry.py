"""Isometry groups of the two planes and their induced parameter actions.

Group elements carry an exact rational point on the rotation/boost curve
(c, s with c^2 +/- s^2 = 1) and a rational translation, stored as five
integers in lowest terms: numerators over one denominator.  The actions on
Killing tensor and Killing vector parameters are closed forms in epsilon,
the parameters and (c, s, a, b), written once for any ring: evaluated on
integer numerators for the exact actions, on floats for the moving frames
and on `var` symbols for the parameter-space generators, which
`generators` derives from them at the identity.  The map derived from the
point map by exact polynomial substitution and re-extraction
(`derived_kt_action`) is their test oracle, as are the parameter laws
printed elsewhere.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .poly import MultiPoly, poly, var
from .spaces import (DomainError, KTParams, KVParams, Space,
                     common_numerators)
from .symbolic import extract_kt_params, kt_components


ExactRotation = namedtuple("ExactRotation", "c s")     # c, s: Fraction


class IsometryElement(namedtuple("IsometryElement", "space c s a b m")):
    """rot = (c, s)/m, then the translation trans = (a, b)/m: integers over
    one positive denominator m with gcd(c, s, a, b, m) = 1, so equal
    elements are equal tuples; rot and trans are read as Fractions.  The
    five are the numerators of the element's matrix on the Killing vectors.
    space: Space; c, s, a, b, m: int."""
    __slots__ = ()

    def __new__(cls, space: Space, rot: ExactRotation, trans: tuple):
        nums, m = common_numerators((*rot, *trans))
        return _element(space, *nums, m)

    def __getnewargs__(self):
        return self.space, self.rot, self.trans

    @property
    def rot(self) -> ExactRotation:
        return ExactRotation(Fraction(self.c, self.m),
                             Fraction(self.s, self.m))

    @property
    def trans(self) -> tuple:
        return Fraction(self.a, self.m), Fraction(self.b, self.m)

    def matrix(self):
        return _matrix(self.space, *self.rot)


def _element(space: Space, c, s, a, b, m) -> IsometryElement:
    """The element (c, s, a, b)/m, for m > 0: divided by the gcd of the
    five, and (c, s) checked on the curve."""
    g = gcd(c, s, a, b, m)
    c, s, a, b, m = c // g, s // g, a // g, b // g, m // g
    if space.kind == "euclidean":
        if c * c + s * s != m * m:
            raise DomainError("exact rotation must satisfy c^2 + s^2 = 1")
    elif c * c - s * s != m * m or c < m:
        raise DomainError(
            "exact boost must satisfy c^2 - s^2 = 1 with c >= 1")
    return tuple.__new__(IsometryElement, (space, c, s, a, b, m))


def _matrix(space: Space, c, s):
    """The rotation/boost matrix at (c, s); (c, -s) gives its inverse."""
    return ((c, -space.eps * s), (s, c))


@lru_cache(maxsize=None)
def identity(space: Space) -> IsometryElement:
    return _element(space, 1, 0, 0, 0, 1)


def rotation_from_parameter(space: Space, u: Fraction,
                            trans: tuple = (0, 0)) -> IsometryElement:
    """Exact element from a rational point on the rotation/boost curve.

    Euclidean: the tangent half-angle parametrization of the circle;
    Minkowski: c = (u + 1/u)/2, s = (u - 1/u)/2 sweeps the unit hyperbola
    branch with c >= 1 for u > 0 (u and 1/u give opposite boosts).
    """
    n, d = u.as_integer_ratio()
    if space.kind == "euclidean":
        c, s, q = d * d - n * n, 2 * n * d, d * d + n * n
    else:
        if n == 0:
            raise DomainError("boost parameter must be nonzero")
        # u < 0 lands on the far branch (c <= -1); negated back onto
        # c >= 1 it is the boost of |u|, hence the |n|.
        c, s, q = n * n + d * d, n * n - d * d, 2 * abs(n) * d
    (a, b), m = common_numerators(trans)
    return _element(space, c * m, s * m, a * q, b * q, q * m)


def act_point(g: IsometryElement, pt: Sequence) -> tuple:
    (j00, j01), (j10, j11) = g.matrix()
    a, b = g.trans
    u, w = pt
    return (j00 * u + j01 * w + a, j10 * u + j11 * w + b)


def compose(g1: IsometryElement, g2: IsometryElement) -> IsometryElement:
    """Semidirect-product law: act_point(compose(g1, g2)) = g1 after g2."""
    if g1.space != g2.space:
        raise DomainError("cannot compose elements of different spaces")
    space, c1, s1, a1, b1, m1 = g1
    _, c2, s2, a2, b2, m2 = g2
    eps = space.eps
    # g1.rot (a2, b2) + (a1, b1), over m1 m2.
    return _element(space, c1 * c2 - eps * s1 * s2, s1 * c2 + c1 * s2,
                    c1 * a2 - eps * s1 * b2 + a1 * m2,
                    s1 * a2 + c1 * b2 + b1 * m2, m1 * m2)


def inverse(g: IsometryElement) -> IsometryElement:
    """(c, -s), then minus (c, -s) applied to the translation, over m^2."""
    space, c, s, a, b, m = g
    return _element(space, c * m, -s * m, -c * a - space.eps * s * b,
                    s * a - c * b, m * m)


# -- parameter actions, in any ring ----------------------------------------

def _kt_action(eps, p, c, s, a, b, one=1):
    """The six parameters p moved by the element (c, s, a, b), homogeneous
    of degrees 2, 2, 2, 1, 1 and 0 in (c, s, a, b, one).

    At c = C/m, s = S/m, a = A/m, b = B/m the k-th value at (C, S, A, B)
    with one = m is m^k times the value.  Each sum starts from 0 and runs
    over the terms of `derived_kt_action` in its dict order, each a
    coefficient times the parameter and the powers of (a, b, c, s) in
    that order: at floats these are the operations, and so the rounding,
    of `MultiPoly.evaluate` on the derived polynomials.
    """
    p1, p2, p3, p4, p5, p6 = p
    one2, s2 = one * one, s ** 2
    return (0 + p1 * one2 - eps * p1 * s2 - 2 * p4 * b * c + p6 * b ** 2
            - 2 * eps * p3 * c * s - 2 * p5 * b * s + p2 * s2,
            0 + p1 * s2 + 2 * p3 * c * s + 2 * eps * p4 * a * s + p2 * one2
            - eps * p2 * s2 - 2 * p5 * a * c + p6 * a ** 2,
            0 + p1 * c * s - p4 * b * s + p3 * one2 - 2 * eps * p3 * s2
            + eps * p4 * a * c + eps * p5 * a * s + eps * p5 * b * c
            - eps * p6 * a * b - eps * p2 * c * s,
            0 + p4 * c - p6 * b + p5 * s,
            0 - eps * p4 * s + p5 * c - p6 * a,
            0 + p6)


def _kv_action(eps, v, c, s, a, b, one=1):
    """The three Killing vector parameters v moved by the element,
    homogeneous of degrees 1, 1 and 0 in (c, s, a, b); `one`, taken as
    `_kt_action` takes it, appears in no term."""
    v1, v2, v3 = v
    return (v1 * c - v3 * b - eps * v2 * s,
            v1 * s + v2 * c + eps * v3 * a,
            v3)


def _act_exact(action, degrees, g: IsometryElement, p):
    """`action` on the numerators of p over d and the element's five
    integers, its k-th value put over d m^degrees[k]."""
    if p.space != g.space:
        raise DomainError("element and parameters of different spaces")
    nums, d = common_numerators(p.values)
    space, c, s, a, b, m = g
    dens = (d, d * m, d * m * m)
    return type(p)(space, [Fraction(n, dens[k]) for n, k in zip(
        action(space.eps, nums, c, s, a, b, m), degrees)])


def act_kt_params(g: IsometryElement, p: KTParams) -> KTParams:
    """Induced action on the six parameters, exact: `_kt_action` on
    integers.

    Substituting the point map into the components and re-extracting
    (`_transformed_components`, `extract_kt_params`) gives the same values
    and is the test oracle.
    """
    return _act_exact(_kt_action, (2, 2, 2, 1, 1, 0), g, p)


def act_kv_params(g: IsometryElement, p: KVParams) -> KVParams:
    """Induced action on the three Killing vector parameters, evaluated like
    `act_kt_params`; pushing the vector through the point map and
    re-extracting, in the test samplers, is the test oracle."""
    return _act_exact(_kv_action, (1, 1, 0), g, p)


def act_kt_params_float(p: KTParams, cs: tuple,
                        trans: tuple) -> tuple[float, ...]:
    """Float-mode parameter action at the rotation/boost entries cs = (c, s)
    and the translation trans = (a, b): `_kt_action` on floats,
    bit-identical to evaluating `derived_kt_action` with
    `MultiPoly.evaluate`."""
    *values, c, s, a, b = (float(v) for v in p.values + cs + trans)
    return _kt_action(p.space.eps, values, c, s, a, b)


# -- the derived action: the oracle -----------------------------------------

def _pullback(space: Space, cs, trans):
    """The Jacobian of the point map, and the bindings that substitute its
    inverse into components written in the (renamed-in-place) new
    coordinates."""
    c, s = cs
    jinv = _matrix(space, c, -s)
    u, w = (var(v) - t for v, t in zip(space.point_vars, trans))
    bindings = {name: row[0] * u + row[1] * w
                for name, row in zip(space.point_vars, jinv)}
    return _matrix(space, c, s), bindings


def _transformed_components(space: Space, values, cs, trans):
    """Push the tensor components through the point map: substitute the
    inverse point map, then sandwich with the Jacobian."""
    j, bindings = _pullback(space, cs, trans)
    k00, k01, k11 = (k.subst(bindings) for k in kt_components(space, values))
    new00 = j[0][0] * j[0][0] * k00 + 2 * j[0][0] * j[0][1] * k01 \
        + j[0][1] * j[0][1] * k11
    new01 = j[0][0] * j[1][0] * k00 + (j[0][0] * j[1][1] + j[0][1] * j[1][0]) * k01 \
        + j[0][1] * j[1][1] * k11
    new11 = j[1][0] * j[1][0] * k00 + 2 * j[1][0] * j[1][1] * k01 \
        + j[1][1] * j[1][1] * k11
    return (new00, new01, new11)


def reduce_rotation_identity(p: MultiPoly, space: Space) -> MultiPoly:
    """Normal form modulo the curve identity: rewrite c^2 as 1 - eps s^2.

    Term by term, so the result keeps the term order that the float action
    `_kt_action` follows."""
    rel = poly(1) - space.eps * var("s") * var("s")
    names = p.variables
    result = MultiPoly.zero()
    for exps, term in p.coefficients_in(names).items():
        for v, e in zip(names, exps):
            term = term * (var("c") ** (e % 2) * rel ** (e // 2) if v == "c"
                           else var(v) ** e)
        result = result + term
    return result


_GROUP_VARS = ("c", "s", "a", "b")


def _derive(space: Space, transform, extract, names) -> tuple[MultiPoly, ...]:
    """Push the general (symbolic) field through the symbolic point map and
    re-extract its parameters, reduced modulo the curve identity."""
    c, s, a, b = (var(v) for v in _GROUP_VARS)
    comps = transform(space, [var(v) for v in names], (c, s), (a, b))
    return tuple(extract(space, [reduce_rotation_identity(k, space)
                                 for k in comps]))


@lru_cache(maxsize=None)
def derived_kt_action(space: Space) -> tuple[MultiPoly, ...]:
    """The parameter action as six polynomials in the parameter symbols and
    the group coordinates (c, s, a, b), derived symbolically once.

    The oracle of `_kt_action`, which equals it as a polynomial identity,
    and of the printed closed-form laws; nothing evaluates it at run time.
    """
    return _derive(space, _transformed_components, extract_kt_params,
                   space.param_vars)


# -- the discrete group of the Minkowski plane ------------------------------

# The images of (a1..a6) under the spatial reflection R1 and the coordinate
# swap R2, as signed permutations: entry i is (j, sign) for sign * a_j.
_GENERATORS = {"R1": ((1, 1), (2, 1), (3, -1), (4, -1), (5, 1), (6, 1)),
               "R2": ((2, 1), (1, 1), (3, 1), (5, 1), (4, 1), (6, 1))}
# The eight elements, each by its shortest word: R1 and R2 are involutions
# and (R1 R2)^4 = 1, so R1 R2 R1 R2 = R2 R1 R2 R1.
_WORDS = ((), ("R1",), ("R2",), ("R1", "R2"), ("R2", "R1"),
          ("R1", "R2", "R1"), ("R2", "R1", "R2"), ("R1", "R2", "R1", "R2"))


class DiscreteReflection(namedtuple("DiscreteReflection", "word")):
    """A word in the spatial reflection R1 and the coordinate swap R2.
    word: tuple[str, ...]."""
    __slots__ = ()

    def __new__(cls, word: tuple[str, ...]):
        for letter in word:
            if letter not in _GENERATORS:
                raise DomainError(f"unknown generator {letter!r}")
        return super().__new__(cls, word)

    def signed_permutation(self):
        """The word's letters applied left to right, as one signed
        permutation."""
        perm = tuple((j, 1) for j in range(1, 7))
        for letter in self.word:
            perm = tuple((perm[j - 1][0], sign * perm[j - 1][1])
                         for j, sign in _GENERATORS[letter])
        return perm


def discrete_act_params(r: DiscreteReflection, p: KTParams) -> KTParams:
    if p.space.kind != "minkowski":
        raise DomainError("the discrete group acts on the Minkowski plane")
    values = p.values
    return KTParams(p.space, tuple(
        values[idx - 1] if sign > 0 else -values[idx - 1]
        for idx, sign in r.signed_permutation()))


def discrete_group_elements() -> list[DiscreteReflection]:
    """The eight elements of the group generated by R1 and R2, by shortest
    word, in a new list each call."""
    return [DiscreteReflection(word) for word in _WORDS]
