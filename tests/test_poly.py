"""Ring axioms and calculus rules for the sparse polynomial type."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingwebs.poly import (SYMBOLS, MultiPoly, PolynomialError,
                              parse_rational, poly, var)
from killingwebs.generators import sigma_generators
from killingwebs.isometry import derived_kt_action
from killingwebs.spaces import EUCLIDEAN, MINKOWSKI, KTParams
from killingwebs.symbolic import fundamental_covariants

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
        {s: point[s] for s in p.variables})


# Symbols from every block of the universe, so merged variable lists must be
# re-sorted by symbol order, not alphabetically.
UNIVERSE = ("alpha1", "beta2", "x", "y", "c", "p2")


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
    assert p.variables == tuple(sorted(p.variables, key=SYMBOLS.index))
    terms = p.coefficients_in(p.variables)
    # Each of `variables` occurs, and no other symbol: the coefficients are
    # constants.
    assert all(any(exps[i] for exps in terms)
               for i in range(len(p.variables)))
    assert all(coeff.is_constant() for coeff in terms.values())
    # Each stored coefficient is a nonzero int, or a Fraction that is not
    # integral, so equal polynomials hold equal dicts.
    for coeff in p._terms.values():
        assert (type(coeff) is int and coeff != 0) or (
            type(coeff) is Fraction and coeff.denominator > 1)


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
    u = data.draw(st.sampled_from(UNIVERSE))
    split = tuple(data.draw(st.sets(st.sampled_from(UNIVERSE))))
    point = dict(zip(UNIVERSE, vals))

    def at(f):
        return f.evaluate(point)

    one = Fraction(2, 2)
    cases = [
        (p + q, at(p) + at(q)), (p - q, at(p) - at(q)),
        (p * q, at(p) * at(q)), (-p, -at(p)), (p ** k, at(p) ** k),
        (p - p, 0), (p + (-p), 0), ((p + q) - q, at(p)),
        (p * (q - q), 0), (p * one, at(p)), (one * p, at(p)),
        (p.subst({u: q}), p.evaluate({**point, u: at(q)})),
        # The product rule at the point.
        ((p * q).diff(u), at(p.diff(u)) * at(q) + at(p) * at(q.diff(u))),
    ]
    for result, expected in cases:
        assert_canonical(result)
        assert at(result) == expected
    pieces = p.coefficients_in(split)
    for coeff in pieces.values():
        assert_canonical(coeff)
    assert sum((c * MultiPoly(split, {e: 1}) for e, c in pieces.items()),
               MultiPoly.zero()) == p
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


def test_unknown_symbols_raise_polynomial_error():
    with pytest.raises(PolynomialError, match="unknown symbol 'zz'"):
        MultiPoly(("zz",), {(1,): 1})
    with pytest.raises(PolynomialError, match="unknown symbol 'q3'"):
        var("q3")


def test_degree_and_coefficient_queries():
    x, y = var("x"), var("y")
    p = x * x * y + 3 * y + 7
    coeffs = p.coefficients_in(["x", "y"])
    assert coeffs[(2, 1)] == poly(1)
    assert coeffs[(0, 0)] == poly(7)
    assert set(p.coefficients_in(["y"])) == {(1,), (0,)}
    assert p.variables == ("x", "y")


def test_rational_parsing_round_trip():
    for text in ("3", "-5/7", "0", "12/4", "1.25", "-.5"):
        value = parse_rational(text)
        assert parse_rational(str(value)) == value
    assert parse_rational("1.25") == Fraction(5, 4)
    with pytest.raises(PolynomialError):
        parse_rational("not a number")
    # Exponents are refused before Fraction builds 10**exp.
    for text in ("1e100000000", "1E3", "2.5e-3", "1e5000"):
        with pytest.raises(PolynomialError, match="no exponents"):
            parse_rational(text)


@pytest.mark.parametrize("text", ["one", "True", "None", "1e5", "1_0",
                                  "1 / 2", "1/ 2", "1 /2", "1/0", "."])
def test_rational_literal_errors_name_their_cause(text):
    """Only a number in exponent form is told "no exponents"; words, digit
    groups and spaces around "/", which some Python releases' Fraction
    reads, are plain bad literals on every release."""
    why = ": no exponents" if text == "1e5" else ""
    with pytest.raises(PolynomialError) as info:
        parse_rational(text)
    assert str(info.value) == f"bad rational literal {text!r}{why}"


def test_long_bad_literal_is_refused_at_once():
    """The grammar splits a decimal one way only, so a long digit run with
    a bad tail is refused in linear time, not after quadratic
    backtracking (about a minute at this length)."""
    with pytest.raises(PolynomialError):
        parse_rational("9" * 50_000 + "x")


def test_pretty_is_deterministic():
    x, y = var("x"), var("y")
    p = y * y - x + Fraction(1, 2)
    assert p.pretty() == (x * poly(-1) + y * y + Fraction(1, 2)).pretty()


def old_order_key(exps):
    """The term order of the exponent-tuple layout: highest total degree
    first, then the exponents in symbol order, highest first."""
    return (-sum(exps), tuple(-e for e in exps))


@given(st.data(), st.sets(st.sampled_from(UNIVERSE)))
@settings(max_examples=100, deadline=None)
def test_pretty_keeps_the_tuple_layout_term_order(data, vp):
    p = data.draw(polys_on(vp))
    terms = p.coefficients_in(p.variables)
    texts = [MultiPoly(p.variables, {exps: terms[exps].constant_value()})
             .pretty() for exps in sorted(terms, key=old_order_key)]
    # The separators of `pretty`: " + " before a term, " - " for its sign.
    assert p.pretty() == (" + ".join(texts).replace(" + -", " - ") or "0")


def test_exponents_past_127_raise():
    x = var("x")
    assert (x ** 127).coefficients_in(("x",)) == {(127,): 1}
    with pytest.raises(PolynomialError, match="exponent above 127"):
        x ** 128
    with pytest.raises(PolynomialError, match="exponent above 127"):
        x ** 100 * x ** 28
    # A neighbouring field is untouched by a full one.
    assert (x ** 127 * var("y")).coefficients_in(("x", "y")) == {(127, 1): 1}
    with pytest.raises(PolynomialError, match="exponent outside 0..127"):
        MultiPoly(("x",), {(128,): 1})


def test_constants_equal_and_hash_like_int_and_fraction():
    x = var("x")
    for value in (0, 3, -7, Fraction(1, 2), Fraction(-5, 3), Fraction(6, 3)):
        c = MultiPoly.constant(value)
        for same in (value, Fraction(value), x - x + value):
            assert c == same and same == c
            assert hash(c) == hash(same)
        assert c != value + 1 and c != x + value
        assert_canonical(c)
        # The exact values read out of a polynomial stay Fractions, also
        # where the stored coefficient is an int.
        assert type(c.constant_value()) is Fraction
        assert type(c.evaluate({})) is Fraction
        assert type((c * x + 2).evaluate({"x": 3})) is Fraction
        assert (c * x + 2).evaluate({"x": 3}) == 3 * value + 2
    assert MultiPoly.zero() == 0 and hash(MultiPoly.zero()) == hash(0)


@given(st.data(), st.sets(st.sampled_from(UNIVERSE)), rationals, rationals,
       st.sampled_from(UNIVERSE), st.sampled_from(UNIVERSE))
@settings(max_examples=100, deadline=None)
def test_zero_and_constants_on_differing_symbols(data, vp, a, b, u, w):
    p = data.draw(polys_on(vp))
    zero = MultiPoly.zero()
    # The constants a and b, built through polynomials on other symbols.
    ca, cb = var(u) - var(u) + a, var(w) * 0 + b
    assert ca.variables == cb.variables == ()
    for result, expected in ((p + zero, p), (zero + p, p), (p * zero, 0),
                             (zero * p, 0), (p + ca, p + a),
                             (p * ca, a * p), (ca + cb, a + b),
                             (ca * cb, a * b), (p * ca * cb, p * (a * b))):
        assert_canonical(result)
        assert result == expected
    assert (p * zero).is_zero() and (p - p).variables == ()


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_package_polynomials_keep_integral_coefficients_as_ints(space):
    built = list(derived_kt_action(space))
    for valence in (1, 2):
        for field in sigma_generators(space, valence):
            built.extend(field.coefficients)
    # Integral and fractional parameters, and ones whose common
    # denominator cancels in some coefficients.
    for values in ((1, 2, 3, 4, 5, 6), (Fraction(1, 2), 0, -3, 1, 0, 2),
                   (Fraction(1, 3), Fraction(2, 3), 0, Fraction(-1, 3), 1,
                    Fraction(3, 2))):
        built.extend(fundamental_covariants(KTParams(space, values)))
    for p in built:
        assert_canonical(p)
    assert any(type(c) is int for p in built for c in p._terms.values())
