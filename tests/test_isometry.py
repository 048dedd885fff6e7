"""Group elements, composition, and the induced parameter actions.

The parameter action is computed by substitution and re-extraction; the
closed-form laws transcribed below from the published displays serve as
oracles.  One printed entry (the rotational term of the transformed second
diagonal Euclidean parameter) disagrees with the derived action by a sign;
the test pins down that difference exactly instead of hiding it.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingwebs import verify
from killingwebs.isometry import (DiscreteReflection, ExactRotation,
                                  IsometryElement, act_kt_params,
                                  act_kt_params_float, act_kv_params,
                                  act_point, compose, derived_kt_action,
                                  discrete_act_params,
                                  discrete_group_elements, float_element,
                                  identity, inverse,
                                  reduce_rotation_identity,
                                  rotation_from_parameter)
from killingwebs.poly import var
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError,
                                KTParams, KVParams, general_killing_tensor)
from samplers import random_element, random_params


# -- element construction ----------------------------------------------------

def test_rational_curve_parametrization():
    g = rotation_from_parameter(EUCLIDEAN, 0)
    assert g.cs() == (1, 0)
    g = rotation_from_parameter(EUCLIDEAN, 1)
    assert g.cs() == (0, 1)
    g = rotation_from_parameter(MINKOWSKI, 2)
    assert g.cs() == (Fraction(5, 4), Fraction(3, 4))


def test_boost_parameter_zero_rejected():
    with pytest.raises(DomainError):
        rotation_from_parameter(MINKOWSKI, 0)


def test_negative_boost_parameter_stays_on_unit_branch():
    g = rotation_from_parameter(MINKOWSKI, Fraction(-1, 2))
    c, s = g.cs()
    assert c >= 1 and c * c - s * s == 1


@pytest.mark.parametrize("sample", [random_element, verify._random_element])
def test_sampled_boosts_are_not_repeated_by_the_sign_of_u(sample):
    # rotation_from_parameter(MINKOWSKI, -u) is the boost of u, so a sampler
    # that passed negative draws through would see only the distinct |u|.
    rng, magnitudes, boosts = random.Random(3), set(), set()
    for _ in range(200):
        probe = random.Random()
        probe.setstate(rng.getstate())
        u = Fraction(probe.randint(-9, 9), probe.randint(1, 6))
        magnitudes.add(abs(u))
        boosts.add(sample(MINKOWSKI, rng).rot)
    assert len(boosts) > len(magnitudes)


def test_invalid_exact_rotations_rejected():
    with pytest.raises(DomainError):
        IsometryElement(EUCLIDEAN, ExactRotation(Fraction(1), Fraction(1)),
                        (0, 0))
    with pytest.raises(DomainError):
        IsometryElement(MINKOWSKI, ExactRotation(Fraction(1, 2), Fraction(0)),
                        (0, 0))


def test_element_keeps_its_coerced_rotation():
    g = IsometryElement(EUCLIDEAN, ExactRotation(1, 0), (0, 0))
    assert all(type(v) is Fraction for v in g.cs() + g.trans)
    assert g == identity(EUCLIDEAN)
    assert repr(g.rot) == repr(identity(EUCLIDEAN).rot)


SPACES = [EUCLIDEAN, MINKOWSKI]
_MESSAGES = {"euclidean": "exact rotation must satisfy c^2 + s^2 = 1",
             "minkowski": "exact boost must satisfy c^2 - s^2 = 1 with c >= 1"}
rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))


@st.composite
def curve_points(draw, space):
    """(c, s) on the circle or either branch of the hyperbola, in any
    signs and order, from the rational parametrizations."""
    u = draw(rationals.filter(bool))
    if space.kind == "euclidean":
        c, s = (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
    else:
        c, s = (u + 1 / u) / 2, (u - 1 / u) / 2
    c, s = draw(st.sampled_from([(c, s), (-c, s), (c, -s), (s, c)]))
    if draw(st.booleans()):
        # The same numerators over another denominator for s: mostly off
        # the curve, although p^2 +/- r^2 may still equal q^2.
        s = Fraction(s.numerator, draw(st.integers(1, 60)))
    return c, s


@st.composite
def shared_denominators(draw):
    q = draw(st.integers(1, 30))
    return (Fraction(draw(st.integers(-40, 40)), q),
            Fraction(draw(st.integers(-40, 40)), q))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(st.data())
@settings(max_examples=300, deadline=None)
def test_integer_curve_check_matches_fraction_identity(space, data):
    c, s = data.draw(st.one_of(
        st.tuples(rationals, rationals), shared_denominators(),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        curve_points(space)))
    fc, fs = Fraction(c), Fraction(s)
    if space.kind == "euclidean":
        on_curve = fc * fc + fs * fs == 1
    else:
        on_curve = fc * fc - fs * fs == 1 and fc >= 1
    if on_curve:
        g = IsometryElement(space, ExactRotation(c, s), (0, 0))
        assert g.cs() == (c, s)
        assert all(type(v) is Fraction for v in g.cs())
    else:
        with pytest.raises(DomainError) as err:
            IsometryElement(space, ExactRotation(c, s), (0, 0))
        assert str(err.value) == _MESSAGES[space.kind]


@st.composite
def elements(draw, space):
    u = draw(rationals.filter(lambda v: v or space.kind == "euclidean"))
    return rotation_from_parameter(space, u, (draw(rationals),
                                              draw(rationals)))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(rationals.filter(bool))
@settings(max_examples=200, deadline=None)
def test_curve_parametrization_matches_fraction_formula(space, u):
    if space.kind == "euclidean":
        oracle = ((1 - u * u) / (1 + u * u), 2 * u / (1 + u * u))
    else:
        oracle = ((u + 1 / u) / 2, (u - 1 / u) / 2)
        if oracle[0] < 1:
            oracle = (-oracle[0], -oracle[1])
    assert rotation_from_parameter(space, u).cs() == oracle


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(st.data())
@settings(max_examples=200, deadline=None)
def test_compose_matches_fraction_formula(space, data):
    g1, g2 = data.draw(elements(space)), data.draw(elements(space))
    (c1, s1), (c2, s2) = g1.cs(), g2.cs()
    eps = 1 if space.kind == "minkowski" else -1
    (j00, j01), (j10, j11) = g1.matrix()
    (a1, b1), (a2, b2) = g1.trans, g2.trans
    oracle = ((c1 * c2 + eps * s1 * s2, s1 * c2 + c1 * s2),
              (j00 * a2 + j01 * b2 + a1, j10 * a2 + j11 * b2 + b1))
    gh = compose(g1, g2)
    assert (gh.cs(), gh.trans) == oracle


# -- point action and composition -------------------------------------------

def test_point_action_examples():
    assert act_point(identity(MINKOWSKI), (Fraction(3), Fraction(7))) == (3, 7)
    boost = rotation_from_parameter(MINKOWSKI, 2)
    assert act_point(boost, (Fraction(1), Fraction(0))) \
        == (Fraction(5, 4), Fraction(3, 4))
    quarter = rotation_from_parameter(EUCLIDEAN, 1)
    assert act_point(quarter, (Fraction(1), Fraction(0))) == (0, 1)


def test_composition_examples():
    half = compose(rotation_from_parameter(EUCLIDEAN, 1),
                   rotation_from_parameter(EUCLIDEAN, 1))
    assert half.cs() == (-1, 0)
    boosted = compose(rotation_from_parameter(MINKOWSKI, 2),
                      rotation_from_parameter(MINKOWSKI, 3))
    assert boosted.cs() == rotation_from_parameter(MINKOWSKI, 6).cs()
    assert boosted.cs() == (Fraction(37, 12), Fraction(35, 12))


def test_mixed_representations_do_not_compose():
    with pytest.raises(DomainError):
        compose(identity(EUCLIDEAN), float_element(EUCLIDEAN, 0.5))


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_group_law_on_points_and_parameters(space):
    rng = random.Random(11)
    for _ in range(500):
        g, h = random_element(space, rng), random_element(space, rng)
        pt = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        gh = compose(g, h)
        assert act_point(gh, pt) == act_point(g, act_point(h, pt))
        p = random_params(space, rng)
        assert act_kt_params(gh, p) == act_kt_params(g, act_kt_params(h, p))
    g = random_element(space, random.Random(5))
    assert compose(g, inverse(g)) == identity(space)
    assert compose(inverse(g), g) == identity(space)


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_point_and_parameter_actions_are_compatible(space):
    """Transformed field at the transformed point = original field pushed
    forward by the constant Jacobian."""
    rng = random.Random(23)
    for _ in range(200):
        g = random_element(space, rng)
        p = random_params(space, rng)
        pt = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
              Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        moved_pt = act_point(g, pt)
        u, w = space.point_vars

        def value(params, at):
            comps = general_killing_tensor(params).components
            binding = {u: at[0], w: at[1]}
            return tuple(
                c.evaluate({s: binding[s] for s in c.used_variables()})
                for c in comps)
        (j00, j01), (j10, j11) = g.matrix()
        k00, k01, k11 = value(p, pt)
        pushed = (j00 * j00 * k00 + 2 * j00 * j01 * k01 + j01 * j01 * k11,
                  j00 * j10 * k00 + (j00 * j11 + j01 * j10) * k01
                  + j01 * j11 * k11,
                  j10 * j10 * k00 + 2 * j10 * j11 * k01 + j11 * j11 * k11)
        assert value(act_kt_params(g, p), moved_pt) == pushed


# -- transcribed closed-form laws as oracles ---------------------------------

def minkowski_printed_law():
    a1, a2, a3, a4, a5, a6 = (var(f"alpha{i}") for i in range(1, 7))
    c, s, a, b = var("c"), var("s"), var("a"), var("b")
    return (
        a1 * c * c + 2 * a3 * c * s + a2 * s * s + a6 * b * b
        - 2 * (a4 * c + a5 * s) * b,
        a1 * s * s + 2 * a3 * c * s + a2 * c * c + a6 * a * a
        - 2 * (a5 * c + a4 * s) * a,
        a3 * (c * c + s * s) + (a1 + a2) * c * s
        - (a * a4 + b * a5) * c - (a * a5 + b * a4) * s + a6 * a * b,
        a4 * c + a5 * s - a6 * b,
        a4 * s + a5 * c - a6 * a,
        a6 * (c * c - s * s),
    )


def euclidean_printed_law():
    b1, b2, b3, b4, b5, b6 = (var(f"beta{i}") for i in range(1, 7))
    c, s, a, b = var("c"), var("s"), var("a"), var("b")
    return (
        b1 * c * c - 2 * b3 * c * s + b2 * s * s
        - 2 * b * b4 * c - 2 * b * b5 * s + b6 * b * b,
        b1 * s * s - 2 * b3 * c * s + b2 * c * c
        - 2 * a * b5 * c + 2 * a * b4 * s + b6 * a * a,
        (b1 - b2) * s * c + b3 * (c * c - s * s)
        + (a * b4 + b * b5) * c + (a * b5 - b * b4) * s - b6 * a * b,
        b4 * c + b5 * s - b6 * b,
        b5 * c - b4 * s - b6 * a,
        b6 * (c * c + s * s),
    )


def test_derived_minkowski_action_matches_printed_law_symbolically():
    derived = derived_kt_action(MINKOWSKI)
    for got, expected in zip(derived, minkowski_printed_law()):
        assert reduce_rotation_identity(got - expected, MINKOWSKI).is_zero()


def test_derived_euclidean_action_matches_printed_law_except_one_term():
    """Every entry agrees except the second: the printed table carries the
    rotational term of the second diagonal parameter with the wrong sign
    (it would break exact invariance of the trace combination).  The diff
    is pinned exactly so any other mismatch still fails."""
    derived = derived_kt_action(EUCLIDEAN)
    printed = euclidean_printed_law()
    b3, c, s = var("beta3"), var("c"), var("s")
    for i, (got, expected) in enumerate(zip(derived, printed)):
        diff = reduce_rotation_identity(got - expected, EUCLIDEAN)
        if i == 1:
            assert diff == 4 * b3 * c * s
        else:
            assert diff.is_zero()


def test_killing_vector_action_matches_printed_law():
    rng = random.Random(7)
    for _ in range(200):
        g = random_element(EUCLIDEAN, rng)
        c, s = g.cs()
        a, b = g.trans
        kv = KVParams(EUCLIDEAN, tuple(
            Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            for _ in range(3)))
        a1, a2, a3 = kv.values
        expected = (a1 * c - a2 * s - b * a3, a1 * s + a2 * c + a * a3, a3)
        assert act_kv_params(g, kv).values == expected


def test_killing_vector_action_examples():
    theta = rotation_from_parameter(EUCLIDEAN, Fraction(1, 3))
    c, s = theta.cs()
    assert act_kv_params(theta, KVParams(EUCLIDEAN, (1, 0, 0))).values \
        == (c, s, 0)
    rng = random.Random(2)
    for _ in range(20):
        g = random_element(EUCLIDEAN, rng)
        assert act_kv_params(g, KVParams(EUCLIDEAN, (0, 0, 1))).values[2] == 1


def test_parameter_action_worked_examples():
    boost = rotation_from_parameter(MINKOWSKI, 2)
    moved = act_kt_params(boost, KTParams(MINKOWSKI, (1, 2, 3, 0, 0, 0)))
    assert moved.values[2] == Fraction(147, 16)

    b = Fraction(5, 3)
    shift = IsometryElement(EUCLIDEAN, ExactRotation(Fraction(1), Fraction(0)),
                            (Fraction(0), b))
    moved = act_kt_params(shift, KTParams(EUCLIDEAN, (0, 0, 0, 1, 0, 1)))
    assert moved.values[3] == 1 - b


def test_float_action_agrees_with_exact_action():
    rng = random.Random(31)
    for space in (EUCLIDEAN, MINKOWSKI):
        for _ in range(50):
            g = random_element(space, rng)
            p = random_params(space, rng)
            exact = act_kt_params(g, p).values
            c, s = g.cs()
            angle = math.atan2(float(s), float(c)) \
                if space.kind == "euclidean" else math.asinh(float(s))
            gf = float_element(space, angle, tuple(float(v) for v in g.trans))
            approx = act_kt_params_float(gf, p)
            assert max(abs(float(e) - a)
                       for e, a in zip(exact, approx)) < 1e-9


# -- the discrete reflection group -------------------------------------------

def test_discrete_group_has_exactly_eight_elements():
    elements = discrete_group_elements()
    assert len(elements) == 8
    probe = KTParams(MINKOWSKI, (1, 2, 3, 4, 5, 6))
    images = {discrete_act_params(r, probe).values for r in elements}
    assert len(images) == 8


def test_discrete_generator_actions():
    k2 = Fraction(7, 5)
    p = KTParams(MINKOWSKI, (0, 0, -k2, 0, 0, Fraction(1, 4)))
    r1 = DiscreteReflection(("R1",))
    assert discrete_act_params(r1, p).values \
        == (0, 0, k2, 0, 0, Fraction(1, 4))
    r2 = DiscreteReflection(("R2",))
    probe = KTParams(MINKOWSKI, (1, 2, 3, 4, 5, 6))
    assert discrete_act_params(r2, probe).values == (2, 1, 3, 5, 4, 6)
    assert discrete_act_params(DiscreteReflection(("R2", "R2")), probe) == probe
