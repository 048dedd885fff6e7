"""Isometry groups of the two planes and their induced parameter actions.

Group elements carry either an exact rational point on the rotation/boost
curve (c, s with c^2 +/- s^2 = 1) or a float angle/rapidity; the two
representations never mix.  The action on Killing tensor and Killing vector
parameters is *derived* from the point map by exact polynomial substitution
and re-extraction, once per space, symbolically in the group coordinates,
then compiled and evaluated; the closed-form parameter laws printed
elsewhere serve only as test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

from .poly import MultiPoly, Q, compile_table, poly, var
from .spaces import (KV_PARAM_VARS, DomainError, KTParams, KVParams, Space,
                     extract_kt_params, extract_kv_params, fraction_tuple,
                     kt_components, kv_components)


class ExactRotation(NamedTuple):
    c: Fraction
    s: Fraction


class FloatAngle(NamedTuple):
    value: float   # radians (Euclidean) or rapidity (Minkowski)


Rotation = Union[ExactRotation, FloatAngle]


class IsometryElement(NamedTuple("IsometryElement",
                                 [("space", Space), ("rot", Rotation),
                                  ("trans", tuple)])):
    """rot, then trans = (a, b): Fractions if rot is exact, else floats."""
    __slots__ = ()

    def __new__(cls, space: Space, rot: Rotation, trans: tuple):
        if isinstance(rot, ExactRotation):
            c, s = fraction_tuple(rot)
            # In lowest terms c^2 +/- s^2 = 1 forces c = p/q and s = r/q to
            # share q, so the identity is checked on integers.
            p, q, r = c.numerator, c.denominator, s.numerator
            if space.kind == "euclidean":
                if s.denominator != q or p * p + r * r != q * q:
                    raise DomainError(
                        "exact rotation must satisfy c^2 + s^2 = 1")
            elif s.denominator != q or p * p - r * r != q * q or p < q:
                raise DomainError(
                    "exact boost must satisfy c^2 - s^2 = 1 with c >= 1")
            rot = ExactRotation(c, s)
            trans = fraction_tuple(trans)
        else:
            trans = tuple(float(v) for v in trans)
        return super().__new__(cls, space, rot, trans)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.rot, ExactRotation)

    def cs(self) -> tuple:
        """The rotation/boost matrix entries (c, s)."""
        if isinstance(self.rot, ExactRotation):
            return self.rot.c, self.rot.s
        if self.space.kind == "euclidean":
            return math.cos(self.rot.value), math.sin(self.rot.value)
        return math.cosh(self.rot.value), math.sinh(self.rot.value)

    def matrix(self):
        c, s = self.cs()
        return _matrix(self.space, c, s)


def _matrix(space: Space, c, s):
    """The rotation/boost matrix at (c, s); (c, -s) gives its inverse."""
    return ((c, -space.eps * s), (s, c))


def identity(space: Space) -> IsometryElement:
    return IsometryElement(space, ExactRotation(Q(1), Q(0)), (Q(0), Q(0)))


def rotation_from_parameter(space: Space, u: Fraction,
                            trans: tuple = (0, 0)) -> IsometryElement:
    """Exact element from a rational point on the rotation/boost curve.

    Euclidean: the tangent half-angle parametrization of the circle;
    Minkowski: c = (u + 1/u)/2, s = (u - 1/u)/2 sweeps the unit hyperbola
    branch with c >= 1 for u > 0 (u and 1/u give opposite boosts).
    """
    u = Fraction(u)
    n, d = u.numerator, u.denominator
    if space.kind == "euclidean":
        den = d * d + n * n
        rot = ExactRotation(Fraction(d * d - n * n, den),
                            Fraction(2 * n * d, den))
    else:
        if n == 0:
            raise DomainError("boost parameter must be nonzero")
        # u < 0 lands on the far branch (c <= -1); negated back onto
        # c >= 1 it is the boost of |u|, hence the |n|.
        den = 2 * abs(n) * d
        rot = ExactRotation(Fraction(n * n + d * d, den),
                            Fraction(n * n - d * d, den))
    return IsometryElement(space, rot, trans)


def float_element(space: Space, angle: float,
                  trans: tuple = (0.0, 0.0)) -> IsometryElement:
    return IsometryElement(space, FloatAngle(float(angle)), trans)


def act_point(g: IsometryElement, pt: Sequence) -> tuple:
    (j00, j01), (j10, j11) = g.matrix()
    a, b = g.trans
    u, w = pt
    return (j00 * u + j01 * w + a, j10 * u + j11 * w + b)


def compose(g1: IsometryElement, g2: IsometryElement) -> IsometryElement:
    """Semidirect-product law: act_point(compose(g1, g2)) = g1 after g2."""
    if g1.space is not g2.space:
        raise DomainError("cannot compose elements of different spaces")
    if g1.is_exact != g2.is_exact:
        raise DomainError("cannot mix exact and float representations")
    if g1.is_exact:
        # c_i = p_i/q_i and s_i = r_i/q_i share their denominator (see
        # IsometryElement), so the product is formed on the numerators.
        (c1, s1), (c2, s2) = g1.rot, g2.rot
        p1, r1, p2, r2 = c1.numerator, s1.numerator, c2.numerator, s2.numerator
        q = c1.denominator * c2.denominator
        cc = p1 * p2 - g1.space.eps * r1 * r2
        rot = ExactRotation(Fraction(cc, q), Fraction(r1 * p2 + p1 * r2, q))
    else:
        rot = FloatAngle(g1.rot.value + g2.rot.value)
    (j00, j01), (j10, j11) = g1.matrix()
    a2, b2 = g2.trans
    a1, b1 = g1.trans
    trans = (j00 * a2 + j01 * b2 + a1, j10 * a2 + j11 * b2 + b1)
    return IsometryElement(g1.space, rot, trans)


def inverse(g: IsometryElement) -> IsometryElement:
    c, s = g.cs()
    rot = ExactRotation(c, -s) if g.is_exact else FloatAngle(-g.rot.value)
    (i00, i01), (i10, i11) = _matrix(g.space, c, -s)
    a, b = g.trans
    return IsometryElement(g.space, rot, (-(i00 * a + i01 * b),
                                          -(i10 * a + i11 * b)))


# -- parameter actions ------------------------------------------------------

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


def _transformed_vector(space: Space, values, cs, trans):
    """Push the Killing vector components through the point map."""
    j, bindings = _pullback(space, cs, trans)
    v0, v1 = (v.subst(bindings) for v in kv_components(space, values))
    return (j[0][0] * v0 + j[0][1] * v1, j[1][0] * v0 + j[1][1] * v1)


def act_kt_params(g: IsometryElement, p: KTParams) -> KTParams:
    """Induced action on the six parameters: the derived action, evaluated
    exactly at the parameters and the element's (c, s, a, b).

    Substituting the point map into the components and re-extracting
    (`_transformed_components`, `extract_kt_params`) gives the same values
    and is the test oracle.
    """
    if not g.is_exact:
        raise DomainError("exact action requires an exact group element")
    action = _exact_kt_action(g.space)
    return KTParams(g.space, action(p.values + g.cs() + g.trans))


def act_kv_params(g: IsometryElement, p: KVParams) -> KVParams:
    """Induced action on the three Killing vector parameters, evaluated like
    `act_kt_params`; `_transformed_vector` with `extract_kv_params` is the
    test oracle."""
    if not g.is_exact:
        raise DomainError("exact action requires an exact group element")
    action = _exact_kv_action(g.space)
    return KVParams(g.space, action(p.values + g.cs() + g.trans))


def reduce_rotation_identity(p: MultiPoly, space: Space) -> MultiPoly:
    """Normal form modulo the curve identity: rewrite c^2 as 1 - eps s^2."""
    rel = poly(1) - space.eps * var("s") * var("s")
    if "c" not in p.variables:
        return p
    ci = p.variables.index("c")
    result = MultiPoly.zero()
    for exps, coeff in p.terms.items():
        e = exps[ci]
        base = list(exps)
        base[ci] = e % 2
        mono = MultiPoly(p.variables, {tuple(base): coeff})
        result = result + mono * rel ** (e // 2)
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

    This single map backs the exact and float-mode actions and the oracle
    comparison against the printed closed-form laws.
    """
    return _derive(space, _transformed_components, extract_kt_params,
                   space.param_vars)


@lru_cache(maxsize=None)
def _exact_kt_action(space: Space):
    return compile_table(derived_kt_action(space),
                         space.param_vars + _GROUP_VARS)


@lru_cache(maxsize=None)
def _exact_kv_action(space: Space):
    """The Killing vector action, three polynomials in alpha1..3 and
    (c, s, a, b), derived symbolically once and compiled."""
    action = _derive(space, _transformed_vector, extract_kv_params,
                     KV_PARAM_VARS)
    return compile_table(action, KV_PARAM_VARS + _GROUP_VARS)


@lru_cache(maxsize=None)
def _float_kt_action(space: Space):
    """The derived action compiled for floats: a function of the float
    parameters and (c, s, a, b), in that order.

    Each polynomial is summed from 0.0, left to right, over its terms in
    dict order, each term being its float coefficient times the powers
    `x ** e` of its variables in their order: the operations, and so the
    rounding, of `MultiPoly.evaluate` at a float assignment.
    """
    names = space.param_vars + _GROUP_VARS
    sums = []
    for p in derived_kt_action(space):
        terms = ["0.0"]
        for exps, coeff in p.terms.items():
            terms.append("*".join([f"({float(coeff)!r})"] + [
                f"x{names.index(v)}" + (f"**{e}" if e > 1 else "")
                for v, e in zip(p.variables, exps) if e]))
        sums.append(" + ".join(terms))
    args = ", ".join(f"x{i}" for i in range(len(names)))
    namespace = {}
    exec(f"def action(values):\n    {args} = values\n"
         f"    return ({', '.join(sums)},)", namespace)
    return namespace["action"]


def act_kt_params_float(g: IsometryElement, p: KTParams) -> tuple[float, ...]:
    """Float-mode parameter action: the derived map compiled for floats,
    bit-identical to evaluating it with `MultiPoly.evaluate`."""
    return _float_kt_action(g.space)(tuple(
        float(v) for v in p.values + g.cs() + g.trans))


# -- the discrete group of the Minkowski plane ------------------------------

# Signed-permutation images of (a1..a6) under the two generators.
_R1 = ((1, 1), (2, 1), (3, -1), (4, -1), (5, 1), (6, 1))
_R2 = ((2, 1), (1, 1), (3, 1), (5, 1), (4, 1), (6, 1))
_IDENT = tuple((i + 1, 1) for i in range(6))


def _sp_compose(second, first):
    """Apply `first`, then `second` (both signed permutations)."""
    return tuple((first[idx - 1][0], sign * first[idx - 1][1])
                 for idx, sign in second)


class DiscreteReflection(NamedTuple("DiscreteReflection",
                                    [("word", tuple[str, ...])])):
    """A word in the spatial reflection R1 and the coordinate swap R2."""
    __slots__ = ()

    def __new__(cls, word: tuple[str, ...]):
        for letter in word:
            if letter not in ("R1", "R2"):
                raise DomainError(f"unknown generator {letter!r}")
        return super().__new__(cls, word)

    def signed_permutation(self):
        table = {"R1": _R1, "R2": _R2}
        perm = _IDENT
        for letter in self.word:
            perm = _sp_compose(table[letter], perm)
        return perm


def discrete_act_params(r: DiscreteReflection, p: KTParams) -> KTParams:
    if p.space.kind != "minkowski":
        raise DomainError("the discrete group acts on the Minkowski plane")
    perm = r.signed_permutation()
    return KTParams(p.space, tuple(sign * p.values[idx - 1]
                                   for idx, sign in perm))


def discrete_group_elements() -> list[DiscreteReflection]:
    """All distinct elements of the group generated by R1 and R2."""
    seen: dict[tuple, DiscreteReflection] = {}
    frontier = [DiscreteReflection(())]
    while frontier:
        elem = frontier.pop()
        key = elem.signed_permutation()
        if key in seen:
            continue
        seen[key] = elem
        for letter in ("R1", "R2"):
            frontier.append(DiscreteReflection(elem.word + (letter,)))
    return sorted(seen.values(), key=lambda e: (len(e.word), e.word))
