"""Exact sign classification of quadratic expressions in two variables."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingwebs.poly import MultiPoly, PolynomialError, poly, var
from killingwebs.signs import SignClass, _nonnegative, quadratic_sign_class
from samplers import rationals

X, Y = var("x"), var("y")
POINT_VARS = ("x", "y")

tall = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                 st.integers(1, 10 ** 6))


def classify(p):
    return quadratic_sign_class(p, POINT_VARS)


def test_definite_forms():
    assert classify(X * X + Y * Y) == SignClass.POS
    assert classify(-(X * X) - Y * Y) == SignClass.NEG
    assert classify(X * X - Y * Y) == SignClass.INDEF


def test_semidefinite_forms_count_as_signed():
    # A nonzero positive-semidefinite form never changes sign.
    assert classify((X + Y) ** 2) == SignClass.POS
    assert classify(X * X) == SignClass.POS
    assert classify(-(Y * Y)) == SignClass.NEG


def test_constants_and_zero():
    assert classify(MultiPoly.zero()) == SignClass.ZERO
    assert classify(poly(Fraction(3, 7))) == SignClass.NONZERO_CONST
    assert classify(poly(-2)) == SignClass.NONZERO_CONST


def test_inhomogeneous_quadratics():
    # Completing the square: (x+1)^2 + y^2 is positive semidefinite.
    assert classify((X + 1) ** 2 + Y * Y) == SignClass.POS
    assert classify((X + 1) ** 2 - Y * Y) == SignClass.INDEF


@given(st.builds(lambda a, b, c, d, e, f:
                 a * X * X + b * X * Y + c * Y * Y + d * X + e * Y + poly(f),
                 rationals, rationals, rationals,
                 rationals, rationals, rationals))
@settings(max_examples=200, deadline=None)
def test_class_is_consistent_with_sampled_values(p):
    """The exact class never contradicts evaluation on a rational grid."""
    cls = classify(p)
    values = []
    for i in range(-4, 5):
        for j in range(-4, 5):
            point = {"x": Fraction(i, 2), "y": Fraction(j, 2)}
            values.append(p.evaluate(
                {s: point[s] for s in p.variables}))
    if cls == SignClass.ZERO:
        assert all(v == 0 for v in values)
    elif cls == SignClass.POS:
        assert all(v >= 0 for v in values)
    elif cls == SignClass.NEG:
        assert all(v <= 0 for v in values)
    elif cls == SignClass.NONZERO_CONST:
        assert len(set(values)) == 1 and values[0] != 0


def _fraction_nonnegative(A, B, C, D, E, F):
    """The oracle: minimize A u^2 + B uv + C v^2 + D u + E v + F in
    Fractions, at a critical point, and compare the minimum with 0."""
    A, B, C, D, E, F = (Fraction(v) for v in (A, B, C, D, E, F))
    det4 = 4 * A * C - B * B
    if A < 0 or C < 0 or det4 < 0:
        return False
    if A == 0 and B == 0 and C == 0:
        return D == 0 and E == 0 and F >= 0
    if det4 > 0:
        wu = (B * E - 2 * C * D) / det4
        wv = (B * D - 2 * A * E) / det4
    else:
        # Rank one: bounded below iff the linear part vanishes along the
        # kernel of [[2A, B], [B, 2C]]; then any critical point will do.
        ku, kv = (-B, 2 * A) if A > 0 else (1, 0)
        if D * ku + E * kv != 0:
            return False
        wu, wv = (-D / (2 * A), 0) if A > 0 else (0, -E / (2 * C))
    return A * wu * wu + B * wu * wv + C * wv * wv + D * wu + E * wv + F >= 0


def test_integer_decision_matches_the_fraction_minimum():
    """Every sextuple in {-2..2}^6: the rank-one, affine and zero-minimum
    boundaries that random coefficients rarely reach."""
    for coeffs in product(range(-2, 3), repeat=6):
        assert _nonnegative(*coeffs) == _fraction_nonnegative(*coeffs), coeffs


def _quadratic(a, b, c, d, e, f):
    return a * X * X + b * X * Y + c * Y * Y + d * X + e * Y + poly(f)


@given(st.tuples(tall, tall, tall, tall, tall, tall), tall)
@settings(max_examples=200, deadline=None)
def test_scaling_keeps_or_mirrors_the_class(coeffs, lam):
    """Heights up to 10^6: the class agrees with the Fraction minimum,
    lambda > 0 keeps it and lambda < 0 swaps positive and negative."""
    cls = classify(_quadratic(*coeffs))
    if cls in (SignClass.POS, SignClass.NEG, SignClass.INDEF):
        assert (cls == SignClass.POS) == _fraction_nonnegative(*coeffs)
        assert (cls == SignClass.NEG) == _fraction_nonnegative(
            *(-v for v in coeffs))
    mirrored = {SignClass.POS: SignClass.NEG,
                SignClass.NEG: SignClass.POS}.get(cls, cls)
    lam = abs(lam) or Fraction(1)
    assert classify(_quadratic(*(lam * v for v in coeffs))) == cls
    assert classify(_quadratic(*(-lam * v for v in coeffs))) == mirrored


def test_input_checks():
    with pytest.raises(PolynomialError, match="not a quadratic"):
        classify(X ** 3 + Y)
    with pytest.raises(PolynomialError, match="not a quadratic"):
        classify(X * X * var("a") * Y)      # the degree is checked first
    with pytest.raises(PolynomialError,
                       match=r"non-point symbols present: \['a'\]"):
        classify(X * X + var("a"))
    assert classify(MultiPoly(POINT_VARS, {(0, 0): 5})) \
        == SignClass.NONZERO_CONST
    assert quadratic_sign_class(var("t") ** 2 - var("x"), ("t", "x")) \
        == SignClass.INDEF
