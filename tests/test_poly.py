"""Ring axioms and calculus rules for the sparse polynomial type."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingwebs.poly import (SYMBOLS, MultiPoly, PolynomialError,
                              compile_table, format_rational, parse_rational,
                              poly, rational_sqrt, var)

VARS = ("x", "y")

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        rationals, max_size=5))
    result = MultiPoly.zero()
    x, y = var("x"), var("y")
    for (i, j), coeff in terms.items():
        result = result + poly(coeff) * x ** i * y ** j
    return result


@given(polys(), polys(), polys())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + MultiPoly.zero() == p
    assert p * poly(1) == p
    assert (p - p).is_zero()


@given(polys(), polys())
@settings(max_examples=150, deadline=None)
def test_derivative_is_a_derivation(p, q):
    for v in VARS:
        assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)
        assert (p + q).diff(v) == p.diff(v) + q.diff(v)


@given(polys(), rationals, rationals)
@settings(max_examples=150, deadline=None)
def test_substitution_matches_evaluation(p, a, b):
    bound = p.subst({"x": poly(a), "y": poly(b)})
    assert bound.is_constant()
    point = {"x": a, "y": b}
    assert bound.constant_value() == p.evaluate(
        {s: point[s] for s in p.used_variables()})


@given(polys(), polys(), rationals, rationals)
@settings(max_examples=150, deadline=None)
def test_compiled_evaluation_matches_evaluation(p, q, a, b):
    point = {"x": a, "y": b}
    expected = tuple(f.evaluate({s: point[s] for s in f.used_variables()})
                     for f in (p, q))
    assert compile_table((p, q), ("y", "x"))((b, a)) == expected
    assert compile_table((p,), ("x", "y"))((a, b)) == expected[:1]


# Symbols from every block of the universe, so merged variable lists must be
# re-sorted by symbol order, not alphabetically.
UNIVERSE = ("alpha1", "beta2", "x", "y", "c", "k2")


@st.composite
def polys_on(draw, variables):
    """A polynomial on exactly `variables`, built by the validating
    constructor (zero coefficients included, so it must drop them)."""
    ordered = tuple(v for v in UNIVERSE if v in variables)
    terms = draw(st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in ordered)),
        st.one_of(st.just(Fraction(0)), rationals), max_size=4))
    return MultiPoly(ordered, terms)


def assert_canonical(p):
    assert p.variables == tuple(sorted(set(p.variables), key=SYMBOLS.index))
    for exps, coeff in p.terms.items():
        assert len(exps) == len(p.variables)
        assert type(coeff) is Fraction and coeff != 0


@given(st.data(), st.sets(st.sampled_from(UNIVERSE)),
       st.sampled_from(("equal", "disjoint", "any")),
       st.lists(rationals, min_size=len(UNIVERSE), max_size=len(UNIVERSE)))
@settings(max_examples=200, deadline=None)
def test_arithmetic_results_are_canonical_and_exact(data, vp, relation, vals):
    vq = data.draw(st.sets(st.sampled_from(UNIVERSE)))
    if relation == "equal":
        vq = vp
    elif relation == "disjoint":
        vq -= vp
    p, q = data.draw(polys_on(vp)), data.draw(polys_on(vq))
    k = data.draw(st.integers(0, 3))
    point = dict(zip(UNIVERSE, vals))

    def at(f):
        return f.evaluate(point)

    wider = p.on_variables(set(p.variables) | vq)
    cases = [
        (p + q, at(p) + at(q)), (p - q, at(p) - at(q)),
        (p * q, at(p) * at(q)), (-p, -at(p)), (p ** k, at(p) ** k),
        (p - p, 0), (p + (-p), 0), ((p + q) - q, at(p)),
        (p * (q - q), 0), (wider, at(p)),
        (wider.on_variables(p.used_variables()), at(p)),
    ]
    for result, expected in cases:
        assert_canonical(result)
        assert at(result) == expected
    for zero in (p - p, p + (-p), p * (q - q)):
        assert zero.is_zero()
    assert p ** 1 == p
    assert (p ** 0).variables == () and p ** 0 == 1


def test_hash_agrees_with_equality():
    x = var("x")
    assert len({MultiPoly.constant(2), 2}) == 1
    assert hash(x - x + Fraction(1, 2)) == hash(Fraction(1, 2))
    assert hash(x - x) == hash(MultiPoly.zero()) == hash(0)
    equal = (x + var("y") - var("y"), x)
    assert equal[0] == equal[1] and len(set(equal)) == 1


def test_compiled_evaluation_edge_cases():
    assert compile_table((), ())(()) == ()
    assert compile_table((MultiPoly.zero(),), ())(()) == (0,)
    assert compile_table((poly(Fraction(3, 4)),), ("x",))((5,)) \
        == (Fraction(3, 4),)
    with pytest.raises(PolynomialError):
        compile_table((var("y"),), ("x",))
    with pytest.raises(PolynomialError):
        compile_table((var("x"),), ("x", "x"))


def test_unknown_symbols_raise_polynomial_error():
    with pytest.raises(PolynomialError, match="unknown symbol 'zz'"):
        MultiPoly(("zz",), {(1,): 1})
    with pytest.raises(PolynomialError, match="unknown symbol 'q3'"):
        var("q3")


def test_degree_and_coefficient_queries():
    x, y = var("x"), var("y")
    p = x * x * y + 3 * y + 7
    assert p.total_degree() == 3
    assert p.total_degree(restrict=["y"]) == 1
    coeffs = p.coefficients_in(["x", "y"])
    assert coeffs[(2, 1)] == poly(1)
    assert coeffs[(0, 0)] == poly(7)
    assert p.used_variables() == ("x", "y")


def test_rational_parsing_round_trip():
    for text in ("3", "-5/7", "0", "12/4"):
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value
    with pytest.raises(PolynomialError):
        parse_rational("not a number")


def test_rational_square_root():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None


def test_pretty_is_deterministic():
    x, y = var("x"), var("y")
    p = y * y - x + Fraction(1, 2)
    assert p.pretty() == (x * poly(-1) + y * y + Fraction(1, 2)).pretty()
