"""Generators on parameter space: printed forms, brackets, orbit ranks.

The published valence-1/valence-2 Euclidean triples contain three misprints
(one wrong sign inside one field, one wrong derivative symbol, and an
overall sign on the rotational fields).  The derived fields are the source
of truth (they are validated by structure constants and annihilation); the
tests below compare against the printed forms and pin each difference
exactly so nothing is silently repaired.
"""

from fractions import Fraction

import pytest

from killingwebs.generators import (LinearVectorField, annihilation_check,
                                    commutator, coordinate_killing_vectors,
                                    coordinate_structure_constants,
                                    extended_generators, jacobian_rank,
                                    joint_generators, orbit_dimension,
                                    sigma_generators,
                                    sigma_structure_constants,
                                    verify_structure_constants)
from killingwebs.invariants import (covariant_polynomials,
                                    invariant_polynomials,
                                    joint_invariant_polynomials)
from killingwebs.poly import MultiPoly, poly, var
from killingwebs.spaces import EUCLIDEAN, MINKOWSKI

A = {i: var(f"alpha{i}") for i in range(1, 7)}
B = {i: var(f"beta{i}") for i in range(1, 7)}


def field(domain, **coeffs):
    zero = MultiPoly.zero()
    return LinearVectorField(tuple(domain),
                             tuple(coeffs.get(sym, zero) for sym in domain))


def minkowski_printed_sigma2():
    d = MINKOWSKI.param_vars
    return [
        field(d, alpha3=A[4], alpha2=2 * A[5], alpha5=A[6]),
        field(d, alpha3=A[5], alpha1=2 * A[4], alpha4=A[6]),
        field(d, alpha1=-2 * A[3], alpha4=-A[5], alpha3=-(A[1] + A[2]),
              alpha2=-2 * A[3], alpha5=-A[4]),
    ]


def euclidean_printed_sigma1():
    d = ("alpha1", "alpha2", "alpha3")
    return [
        field(d, alpha2=-A[3]),
        field(d, alpha1=A[3]),
        field(d, alpha2=A[1], alpha1=-A[2]),
    ]


def euclidean_printed_sigma2():
    d = EUCLIDEAN.param_vars
    return [
        field(d, beta2=-2 * B[5], beta3=-B[4], beta5=B[6]),
        field(d, beta1=2 * B[4], beta3=-B[5], beta6=B[6]),
        field(d, beta1=-2 * B[3], beta2=2 * B[3], beta3=B[1] - B[2],
              beta4=B[5], beta5=-B[4]),
    ]


def test_minkowski_sigma_generators_match_printed_forms_exactly():
    derived = sigma_generators(MINKOWSKI, 2)
    for got, expected in zip(derived, minkowski_printed_sigma2()):
        assert (got - expected).is_zero()


def test_euclidean_valence1_printed_diff_is_one_global_sign():
    derived = sigma_generators(EUCLIDEAN, 1)
    printed = euclidean_printed_sigma1()
    assert (derived[0] - printed[0]).is_zero()
    assert (derived[1] - printed[1]).is_zero()
    # The printed rotational field is the negative of the derived one.
    assert (derived[2] + printed[2]).is_zero()
    assert not (derived[2] - printed[2]).is_zero()


def test_euclidean_valence2_printed_diffs_are_pinned():
    derived = sigma_generators(EUCLIDEAN, 2)
    printed = euclidean_printed_sigma2()
    d = EUCLIDEAN.param_vars
    # First field: one wrong sign on the 2*beta5 term.
    diff = derived[0] - printed[0]
    assert (diff - field(d, beta2=4 * B[5])).is_zero()
    # Second field: the beta6 coefficient sits on the wrong derivative
    # (d/dbeta6 in print, d/dbeta4 derived; beta6 is inert under the group).
    diff = derived[1] - printed[1]
    assert (diff - field(d, beta4=B[6], beta6=-B[6])).is_zero()
    assert derived[1].coefficient("beta6").is_zero()
    # Third field: negative of the printed rotational field.
    assert (derived[2] + printed[2]).is_zero()


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
@pytest.mark.parametrize("valence", [1, 2])
def test_sigma_structure_constants(space, valence):
    fields = sigma_generators(space, valence)
    checks = verify_structure_constants(fields,
                                        sigma_structure_constants(space))
    assert all(c.passed for c in checks)


def test_sigma_table_is_the_negated_coordinate_table():
    for space in (EUCLIDEAN, MINKOWSKI):
        coord = coordinate_structure_constants(space)
        sigma = sigma_structure_constants(space)
        assert sigma == coord.scale(Fraction(-1))


def test_coordinate_killing_vectors_satisfy_their_own_table():
    for space in (EUCLIDEAN, MINKOWSKI):
        fields = [LinearVectorField(space.point_vars, comps)
                  for comps in coordinate_killing_vectors(space)]
        checks = verify_structure_constants(
            fields, coordinate_structure_constants(space))
        assert all(c.passed for c in checks)


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_extended_and_joint_families_share_the_sigma_table(space):
    table = sigma_structure_constants(space)
    assert all(c.passed for c in
               verify_structure_constants(extended_generators(space), table))
    if space.kind == "euclidean":
        assert all(c.passed for c in verify_structure_constants(
            joint_generators(space, (1, 2)), table))


def test_perturbed_field_fails_verification():
    fields = list(sigma_generators(MINKOWSKI, 2))
    broken = fields[0] + field(MINKOWSKI.param_vars, alpha1=A[6])
    checks = verify_structure_constants([broken] + fields[1:],
                                        sigma_structure_constants(MINKOWSKI))
    assert any(not c.passed for c in checks)


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_jacobi_identity(space):
    for fields in (sigma_generators(space, 1), sigma_generators(space, 2),
                   extended_generators(space)):
        v1, v2, v3 = fields
        cyclic = (commutator(commutator(v1, v2), v3)
                  + commutator(commutator(v2, v3), v1)
                  + commutator(commutator(v3, v1), v2))
        assert cyclic.is_zero()


def test_bracket_basics():
    v1, v2, v3 = sigma_generators(MINKOWSKI, 2)
    assert commutator(v1, v2).is_zero()
    assert commutator(v1, v1).is_zero()
    # [V1, V3] and [V2, V3] land back in the span, per the negated table.
    table = sigma_structure_constants(MINKOWSKI)
    for i, j in ((0, 2), (1, 2)):
        expected = LinearVectorField(v1.domain,
                                     tuple(MultiPoly.zero()
                                           for _ in v1.domain))
        for k, coeff in enumerate(table.bracket_coeffs(i, j)):
            expected = expected + [v1, v2, v3][k].scale(coeff)
        assert (commutator([v1, v2, v3][i], [v1, v2, v3][j])
                - expected).is_zero()


def test_orbit_dimensions():
    fields = sigma_generators(MINKOWSKI, 2)
    generic = dict(zip(MINKOWSKI.param_vars,
                       (Fraction(v) for v in (1, 2, 3, 4, 5, 6))))
    assert orbit_dimension(fields, generic) == 3
    origin = {s: Fraction(0) for s in MINKOWSKI.param_vars}
    assert orbit_dimension(fields, origin) == 0
    metric_point = dict(zip(MINKOWSKI.param_vars,
                            (Fraction(v) for v in (1, -1, 0, 0, 0, 0))))
    assert orbit_dimension(fields, metric_point) == 0


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_generators_annihilate_the_invariants(space):
    for f in invariant_polynomials(space):
        for g in sigma_generators(space, 2):
            assert annihilation_check(g, f.on_variables(g.domain)).is_zero()


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_extended_generators_annihilate_the_covariants(space):
    for f in covariant_polynomials(space):
        for g in extended_generators(space):
            assert annihilation_check(g, f.on_variables(g.domain)).is_zero()


def test_joint_generators_annihilate_the_joint_invariants():
    for f in joint_invariant_polynomials():
        for g in joint_generators(EUCLIDEAN, (1, 2)):
            assert annihilation_check(g, f.on_variables(g.domain)).is_zero()


def test_annihilation_of_constants():
    for g in sigma_generators(EUCLIDEAN, 2):
        assert annihilation_check(g, poly(5).on_variables(g.domain)).is_zero()


def test_joint_generator_block_structure():
    joint = joint_generators(EUCLIDEAN, (1, 2))
    kv_part = sigma_generators(EUCLIDEAN, 1)
    kt_part = sigma_generators(EUCLIDEAN, 2)
    for full, small, big in zip(joint, kv_part, kt_part):
        assert len(full.domain) == 9
        for sym in small.domain:
            assert full.coefficient(sym) == small.coefficient(sym)
        for sym in big.domain:
            assert full.coefficient(sym) == big.coefficient(sym)


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_invariants_jacobian_rank_is_three(space):
    generic = dict(zip(space.param_vars,
                       (Fraction(v, 7) for v in (3, 5, 11, 2, 9, 13))))
    assert jacobian_rank(invariant_polynomials(space), space.param_vars,
                         generic) == 3


def test_joint_invariants_jacobian_rank_is_six():
    symbols = tuple(f"alpha{i}" for i in range(1, 4)) \
        + tuple(f"beta{i}" for i in range(1, 7))
    generic = {s: Fraction(v, 5) for s, v in
               zip(symbols, (2, 3, 5, 7, 11, 13, 17, 19, 23))}
    assert jacobian_rank(joint_invariant_polynomials(), symbols, generic) == 6


# -- the per-space forms, written out ------------------------------------------

def test_coordinate_generators_match_the_literal_per_space_forms():
    zero, one = MultiPoly.zero(), poly(1)
    t, x, y = var("t"), var("x"), var("y")
    assert coordinate_killing_vectors(EUCLIDEAN) == [
        (one, zero), (zero, one), (-y, x)]
    assert coordinate_killing_vectors(MINKOWSKI) == [
        (one, zero), (zero, one), (x, t)]
    for space, c120 in ((EUCLIDEAN, -1), (MINKOWSKI, 1)):
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        c[0][2][1], c[2][0][1] = 1, -1
        c[1][2][0], c[2][1][0] = c120, -c120
        assert coordinate_structure_constants(space).c == tuple(
            tuple(map(tuple, plane)) for plane in c)
