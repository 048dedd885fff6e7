"""Moving frames, cross-sections, canonical forms, equivalence witnesses."""

import math
import random
from fractions import Fraction

import pytest

from killingwebs.frames import (RESIDUAL_TOL, CrossSection, FrameDomainError,
                                canonical_form, canonical_params,
                                moving_frame,
                                nontrivial_invariant_polynomials,
                                validate_coordinate_cross_section)
from killingwebs.invariants import fundamental_invariants
from killingwebs.isometry import (act_kt_params, act_kt_params_float,
                                  float_element, rotation_from_parameter)
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams,
                                decompose, embed_nontrivial)
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


def test_degenerate_angle_branch_is_flagged():
    # Denominator zero, numerator nonzero: the quarter-angle branch fires.
    p = KTParams(EUCLIDEAN, (0, 0, 1, 0, 0, 1))
    result = moving_frame(p)
    assert result.notes
    assert result.ok


# -- cross-sections -----------------------------------------------------------

def test_invariant_level_cross_sections_validate():
    k1 = CrossSection(((1, Fraction(0)), (2, Fraction(0)), (3, Fraction(0))))
    assert validate_coordinate_cross_section(EUCLIDEAN, k1)
    k3 = CrossSection(((0, Fraction(0)), (1, Fraction(0)), (2, Fraction(0))))
    assert validate_coordinate_cross_section(EUCLIDEAN, k3)


def test_over_constrained_section_is_rejected():
    everything = CrossSection(tuple((i, Fraction(0)) for i in range(5)))
    assert not validate_coordinate_cross_section(EUCLIDEAN, everything)


def test_cross_section_constraint_validation():
    with pytest.raises(DomainError):
        CrossSection(((7, Fraction(0)),))
    with pytest.raises(DomainError):
        CrossSection(((1, Fraction(0)), (1, Fraction(1))))


def test_nontrivial_invariant_polynomials_shape():
    for space in (EUCLIDEAN, MINKOWSKI):
        i1, i3 = nontrivial_invariant_polynomials(space)
        assert space.param_vars[1] not in i1.used_variables()
        assert space.param_vars[1] not in i3.used_variables()


# -- canonical forms ----------------------------------------------------------

def test_canonical_form_examples():
    assert canonical_form(EUCLIDEAN, "EC2").values == (0, 0, 0, 0, 1)
    assert canonical_form(MINKOWSKI, "EC8", Fraction(1)).values \
        == (0, -1, 0, 0, Fraction(1, 4))
    assert canonical_form(MINKOWSKI, "EC4").values == (0, 0, 0, 1, 0)


def test_canonical_form_k2_arity_checks():
    with pytest.raises(DomainError, match="requires a k2"):
        canonical_form(MINKOWSKI, "EC5")
    with pytest.raises(DomainError, match="does not take a k2"):
        canonical_form(MINKOWSKI, "EC2", Fraction(1))
    with pytest.raises(DomainError, match="positive"):
        canonical_form(MINKOWSKI, "EC9", Fraction(-1))
    with pytest.raises(DomainError, match="unknown equivalence class"):
        canonical_form(EUCLIDEAN, "EC9")


def test_canonical_params_embeds_with_zero_trace_slot():
    p = canonical_params(MINKOWSKI, "EC3")
    assert p.values[1] == 0
    assert decompose(p)[0] == 0


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
    g = float_element(EUCLIDEAN, math.pi / 4)
    moved = act_kt_params_float(g, p)
    expected = (0.5, 0.5, 0.5, 0.0, 0.0, 0.0)
    assert max(abs(m - e) for m, e in zip(moved, expected)) < 1e-9


def test_boost_and_reflection_map_ec6_shape_to_ec8_shape():
    """A real boost with tanh(2 phi) = -1/2 followed by the spatial
    reflection carries the elliptic canonical form onto a hyperbolic-shaped
    vector with irrational scale k^2 = sqrt(3)/8, while the exact
    invariants agree: I1 = -3/256 = -(k^2)^2/4, I3 = 1/4."""
    p = embed_nontrivial(canonical_form(MINKOWSKI, "EC6"))
    phi = 0.5 * math.atanh(-0.5)
    moved = act_kt_params_float(float_element(MINKOWSKI, phi), p)
    reflected = (moved[0], moved[1], -moved[2], -moved[3], moved[4], moved[5])
    k2 = math.sqrt(3) / 8
    expected = (0.125, -0.125, -k2, 0.0, 0.0, 0.25)
    assert max(abs(m - e) for m, e in zip(reflected, expected)) < 1e-9
    i1, _, i3 = fundamental_invariants(p)
    assert (i1, i3) == (Fraction(-3, 256), Fraction(1, 4))
    assert Fraction(-3, 256) == -Fraction(3, 64) / 4   # -(k^2)^2 / 4 exactly
