"""Moving frames, canonical forms, equivalence witnesses."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from killingwebs.frames import (K2_CLASSES, RESIDUAL_TOL, FrameDomainError,
                                MovingFrameResult, canonical_form,
                                moving_frame)
from killingwebs.invariants import fundamental_invariants
from killingwebs.isometry import (act_kt_params, act_kt_params_float,
                                  rotation_from_parameter)
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams,
                                embed_nontrivial)
from samplers import random_params


# -- moving frames ------------------------------------------------------------

@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_frame_lands_on_the_cross_section(space):
    rng = random.Random(47)
    done = 0
    while done < 100:
        p = random_params(space, rng)
        if p.values[5] == 0:
            continue
        try:
            result = moving_frame(p)
        except FrameDomainError:
            continue
        done += 1
        assert result.residual <= RESIDUAL_TOL
        assert result.ok


def test_frame_worked_examples():
    result = moving_frame(KTParams(EUCLIDEAN, (1, 2, 0, 0, 0, 1)))
    assert (result.angle, result.a, result.b) == (0.0, 0.0, 0.0)

    result = moving_frame(KTParams(EUCLIDEAN, (0, 0, 0, 1, 0, 1)))
    assert (result.angle, result.a, result.b) == (0.0, 0.0, 1.0)
    assert result.residual == 0.0


def test_frame_requires_free_action():
    with pytest.raises(FrameDomainError, match="does not act freely"):
        moving_frame(KTParams(EUCLIDEAN, (1, 2, 3, 4, 5, 0)))
    with pytest.raises(FrameDomainError, match="does not act freely"):
        moving_frame(KTParams(MINKOWSKI, (1, 2, 3, 4, 5, 0)))


def test_elliptic_canonical_form_is_outside_the_frame_domain():
    p = embed_nontrivial(canonical_form(MINKOWSKI, "EC6"))
    with pytest.raises(FrameDomainError,
                       match="outside arctanh domain: argument = -2"):
        moving_frame(p)


def test_argument_rounding_to_one_is_outside_the_frame_domain():
    """|arg| < 1 exactly, but its float is 1.0, where atanh is infinite."""
    a3 = Fraction(10 ** 20 - 1, 2 * 10 ** 20)
    with pytest.raises(FrameDomainError, match="outside arctanh domain"):
        moving_frame(KTParams(MINKOWSKI, (-1, 0, a3, 0, 0, 1)))


def test_degenerate_angle_branch_is_flagged():
    # Denominator zero, numerator nonzero: the quarter-angle branch fires.
    p = KTParams(EUCLIDEAN, (0, 0, 1, 0, 0, 1))
    result = moving_frame(p)
    assert result.notes
    assert result.ok


def fraction_frame(p):
    """The moving frame with every exact step on Fractions and each float
    taken by float(Fraction): the reference that the frames, which run on
    integer numerators, must match bit for bit."""
    v1, v2, v3, v4, v5, v6 = p.values
    if v6 == 0:
        raise FrameDomainError("group does not act freely here")

    def residual(cs, a, b):
        moved = act_kt_params_float(p, cs, (a, b))
        return max(abs(moved[2]), abs(moved[3]), abs(moved[4]))

    if p.space.kind == "euclidean":
        num = 2 * (v3 * v6 + v4 * v5)
        den = v6 * (v1 - v2) - v4 * v4 + v5 * v5
        notes = ()
        if den == 0 and num == 0:
            theta0 = 0.0
        elif den == 0:
            theta0 = math.pi / 4
            notes = ("normalization angle denominator vanishes; "
                     "using the quarter-angle branch",)
        else:
            theta0 = -0.5 * math.atan(float(num) / float(den))
        best = None
        for theta in (theta0, theta0 + math.pi / 2):
            c, s = math.cos(theta), math.sin(theta)
            a = (float(v5) * c - float(v4) * s) / float(v6)
            b = (float(v4) * c + float(v5) * s) / float(v6)
            r = residual((c, s), a, b)
            if best is None or r < best[0]:
                best = (r, theta, a, b)
        r, theta, a, b = best
        return MovingFrameResult(theta, a, b, r, notes)
    num = 2 * (v3 * v6 - v4 * v5)
    den = v4 * v4 + v5 * v5 - v6 * (v1 + v2)
    if den == 0:
        if num != 0:
            raise FrameDomainError(
                "outside arctanh domain: normalization argument is infinite")
        phi = 0.0
    else:
        arg = num / den
        if abs(arg) >= 1 or abs(float(arg)) == 1:
            raise FrameDomainError(f"outside arctanh domain: argument = {arg}")
        phi = 0.5 * math.atanh(float(arg))
    ch, sh = math.cosh(phi), math.sinh(phi)
    a = (float(v4) * sh + float(v5) * ch) / float(v6)
    b = (float(v4) * ch + float(v5) * sh) / float(v6)
    return MovingFrameResult(phi, a, b, residual((ch, sh), a, b))


def frame_outcome(frame, p):
    """The frame's floats as hex strings, so the signs of zeros count, and
    its notes; or the message of its FrameDomainError."""
    try:
        r = frame(p)
    except FrameDomainError as exc:
        return str(exc)
    return (r.angle.hex(), r.a.hex(), r.b.hex(), r.residual.hex(), r.notes)


slots = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)))


@given(st.tuples(*[slots] * 6))
@example((1, 0, 0, 0, 0, 1))
@example((0, 0, Fraction(1, 4), Fraction(1, 4), 0, Fraction(1, 4)))
@example((0, 0, 1, 0, 0, 1))
@settings(max_examples=200, deadline=None)
def test_frames_match_the_fraction_reference_bit_for_bit(values):
    for space in (EUCLIDEAN, MINKOWSKI):
        p = KTParams(space, values)
        assert frame_outcome(moving_frame, p) == frame_outcome(fraction_frame, p)


def test_frame_signs_of_zero_and_domain_messages():
    # num = 0 over den = -1: the boost rapidity is +0.0, as float(Fraction(0)).
    result = moving_frame(KTParams(MINKOWSKI, (1, 0, 0, 0, 0, 1)))
    assert result.angle.hex() == "0x0.0p+0"
    p = KTParams.parse(MINKOWSKI, "0,0,1/4,1/4,0,1/4")
    with pytest.raises(FrameDomainError) as info:
        moving_frame(p)
    assert str(info.value) == "outside arctanh domain: argument = 2"
    assert frame_outcome(fraction_frame, p) == str(info.value)


# -- canonical forms ----------------------------------------------------------

def test_canonical_form_examples():
    assert canonical_form(EUCLIDEAN, "EC2").values == (0, 0, 0, 0, 1)
    assert canonical_form(MINKOWSKI, "EC8", Fraction(1)).values \
        == (0, -1, 0, 0, Fraction(1, 4))
    assert canonical_form(MINKOWSKI, "EC4").values == (0, 0, 0, 1, 0)


def test_every_minkowski_canonical_row_by_value():
    """Each row at k2 = 3/7, where 2 k2, -2 k2 and -k2 all differ, so a row
    that scales or signs k2 wrongly reads a different value."""
    k2, q = Fraction(3, 7), Fraction
    expected = {
        "EC1": (1, 0, 0, 0, 0),
        "EC2": (0, 0, 0, 0, 1),
        "EC3": (q(1, 2), q(1, 4), q(-1, 2), q(1, 2), 0),
        "EC4": (0, 0, 0, 1, 0),
        "EC5": (q(6, 7), 0, 0, 0, q(-1, 4)),
        "EC6": (q(1, 4), q(1, 4), 0, 0, q(1, 4)),
        "EC7": (q(-1, 2), q(-1, 4), 0, 0, q(1, 4)),
        "EC8": (0, q(-3, 7), 0, 0, q(1, 4)),
        "EC9": (q(6, 7), 0, 0, 0, q(1, 4)),
        "EC10": (q(-6, 7), 0, 0, 0, q(1, 4)),
    }
    assert K2_CLASSES == {"EC5", "EC8", "EC9", "EC10"}
    for ec, values in expected.items():
        got = canonical_form(MINKOWSKI, ec, k2 if ec in K2_CLASSES else None)
        assert got.values == values, ec


def test_canonical_form_k2_arity_checks():
    with pytest.raises(DomainError, match="requires a k2"):
        canonical_form(MINKOWSKI, "EC5")
    with pytest.raises(DomainError, match="does not take a k2"):
        canonical_form(MINKOWSKI, "EC2", Fraction(1))
    with pytest.raises(DomainError, match="positive"):
        canonical_form(MINKOWSKI, "EC9", Fraction(-1))
    with pytest.raises(DomainError, match="unknown equivalence class"):
        canonical_form(EUCLIDEAN, "EC9")


# -- equivalence witnesses ----------------------------------------------------

def test_quarter_turn_exchanges_the_parabolic_representatives():
    """The two printed parabolic canonical forms differ by an exact
    rational quarter turn; no exact rational witness exists for the
    Cartesian pair (a 45-degree rotation has no rational (c, s))."""
    p = embed_nontrivial(canonical_form(EUCLIDEAN, "EC3"))
    quarter = rotation_from_parameter(EUCLIDEAN, 1)
    assert act_kt_params(quarter, p).values == (0, 0, 0, 1, 0, 0)


def test_half_angle_float_witness_for_the_cartesian_pair():
    p = embed_nontrivial(canonical_form(EUCLIDEAN, "EC1"))
    angle = math.pi / 4
    moved = act_kt_params_float(p, (math.cos(angle), math.sin(angle)),
                                (0.0, 0.0))
    expected = (0.5, 0.5, 0.5, 0.0, 0.0, 0.0)
    assert max(abs(m - e) for m, e in zip(moved, expected)) < 1e-9


def test_boost_and_reflection_map_ec6_shape_to_ec8_shape():
    """A real boost with tanh(2 phi) = -1/2 followed by the spatial
    reflection carries the elliptic canonical form onto a hyperbolic-shaped
    vector with irrational scale k^2 = sqrt(3)/8, while the exact
    invariants agree: I1 = -3/256 = -(k^2)^2/4, I3 = 1/4."""
    p = embed_nontrivial(canonical_form(MINKOWSKI, "EC6"))
    phi = 0.5 * math.atanh(-0.5)
    moved = act_kt_params_float(p, (math.cosh(phi), math.sinh(phi)),
                                (0.0, 0.0))
    reflected = (moved[0], moved[1], -moved[2], -moved[3], moved[4], moved[5])
    k2 = math.sqrt(3) / 8
    expected = (0.125, -0.125, -k2, 0.0, 0.0, 0.25)
    assert max(abs(m - e) for m, e in zip(reflected, expected)) < 1e-9
    i1, _, i3 = fundamental_invariants(p)
    assert (i1, i3) == (Fraction(-3, 256), Fraction(1, 4))
    assert Fraction(-3, 256) == -Fraction(3, 64) / 4   # -(k^2)^2 / 4 exactly
