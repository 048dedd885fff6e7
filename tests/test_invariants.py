"""Invariants and covariants: printed values, exact invariance, annihilation."""

import random
from fractions import Fraction

import pytest

from killingwebs.frames import canonical_form
from killingwebs.invariants import (SubmanifoldError, auxiliary_invariants,
                                    covariant_polynomials,
                                    fundamental_covariants,
                                    fundamental_invariants,
                                    invariant_polynomials, j2_oracle,
                                    joint_invariant_polynomials,
                                    joint_invariants, slice_invariant_i2,
                                    trace_identity_check)
from killingwebs.isometry import (act_kt_params, act_kv_params, act_point,
                                  discrete_group_elements)
from killingwebs.poly import MultiPoly, var
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams,
                                KVParams, embed_nontrivial, metric_params)
from samplers import random_element, random_params

A = {i: var(f"alpha{i}") for i in range(1, 7)}


# -- printed values -----------------------------------------------------------

def test_invariant_values_on_printed_examples():
    p = KTParams(MINKOWSKI, (0, 0, -1, 0, 0, Fraction(1, 4)))
    i1, _, i3 = fundamental_invariants(p)
    assert (i1, i3) == (Fraction(-1, 4), Fraction(1, 4))
    assert fundamental_invariants(metric_params(MINKOWSKI)) == (0, 0, 0)
    assert fundamental_invariants(KTParams(MINKOWSKI, (1, 2, 3, 4, 5, 6))) \
        == (513, 3, 6)


def test_covariant_values_on_printed_examples():
    c1, _ = fundamental_covariants(KTParams(EUCLIDEAN, (0, 0, 0, 0, 0, 1)))
    x, y = var("x"), var("y")
    assert c1 == x * x + y * y
    assert c1.evaluate({"x": Fraction(3), "y": Fraction(4)}) == 25
    c1z, c2z = fundamental_covariants(KTParams(EUCLIDEAN, (0,) * 6))
    assert c1z.is_zero() and c2z.is_zero()


def test_trace_identity():
    assert trace_identity_check().is_zero()
    rng = random.Random(9)
    for _ in range(25):
        assert trace_identity_check(random_params(EUCLIDEAN, rng)).is_zero()
    with pytest.raises(DomainError):
        trace_identity_check(metric_params(MINKOWSKI))


# -- exact invariance under the connected group -------------------------------

@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_fundamental_invariants_are_exactly_invariant(space):
    rng = random.Random(17)
    for _ in range(300):
        p = random_params(space, rng)
        g = random_element(space, rng)
        assert fundamental_invariants(act_kt_params(g, p)) \
            == fundamental_invariants(p)


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_covariants_satisfy_the_covariance_law_exactly(space):
    rng = random.Random(19)
    for _ in range(150):
        p = random_params(space, rng)
        g = random_element(space, rng)
        pt = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
              Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        moved_pt = act_point(g, pt)
        u, w = space.point_vars
        for before, after in zip(fundamental_covariants(p),
                                 fundamental_covariants(act_kt_params(g, p))):
            b1 = {u: pt[0], w: pt[1]}
            b2 = {u: moved_pt[0], w: moved_pt[1]}
            v_before = before.evaluate(
                {s: b1[s] for s in before.used_variables()})
            v_after = after.evaluate(
                {s: b2[s] for s in after.used_variables()})
            assert v_before == v_after


def test_joint_invariants_are_exactly_invariant():
    rng = random.Random(29)
    for _ in range(300):
        kv = KVParams(EUCLIDEAN, tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(3)))
        kt = random_params(EUCLIDEAN, rng)
        g = random_element(EUCLIDEAN, rng)
        assert joint_invariants(act_kv_params(g, kv), act_kt_params(g, kt)) \
            == joint_invariants(kv, kt)


# -- the discrete reflection group -------------------------------------------

def _discrete_substitution(r):
    """Parameter and point substitutions for a reflection word.

    The spatial reflection also flips the second coordinate and the
    coordinate swap exchanges both coordinates, so the covariants are
    invariant only under the simultaneous substitution."""
    perm = r.signed_permutation()
    sub = {f"alpha{i + 1}": sign * A[idx]
           for i, (idx, sign) in enumerate(perm)}
    t, x = var("t"), var("x")
    pt = (t, x)
    for letter in r.word:
        pt = (pt[0], -pt[1]) if letter == "R1" else (pt[1], pt[0])
    sub.update({"t": pt[0], "x": pt[1]})
    return sub


def test_i1_i3_c1_c2_are_discrete_invariants_symbolically():
    """I1, I3 and C2 are exactly invariant under all eight reflections.

    The coordinate swap reverses the metric orientation (it is an
    anti-isometry), and C1 carries one metric factor, so C1 flips sign
    under the four words with an odd number of swaps.  Its sign class,
    zero set, and every classification predicate are unchanged; the
    exact sign behavior is pinned here rather than papered over."""
    i1, _, i3 = invariant_polynomials(MINKOWSKI)
    c1, c2 = covariant_polynomials(MINKOWSKI)
    for r in discrete_group_elements():
        sub = _discrete_substitution(r)
        for f in (i1, i3, c2):
            assert f.subst(sub) == f
        swaps = sum(1 for letter in r.word if letter == "R2")
        expected = c1 if swaps % 2 == 0 else -c1
        assert c1.subst(sub) == expected


def test_i2_is_not_invariant_under_the_coordinate_swap():
    _, i2, _ = invariant_polynomials(MINKOWSKI)
    swap = {"alpha1": A[2], "alpha2": A[1], "alpha4": A[5], "alpha5": A[4]}
    assert i2.subst(swap) == -i2
    assert not (i2.subst(swap) - i2).is_zero()


# -- the sixth joint invariant -----------------------------------------------

def test_j2_oracle_rejects_every_reading_of_the_corrupt_display():
    name, j2, rejected = j2_oracle()
    assert name == "derived weight-matched completion"
    assert len(rejected) == 3
    assert all(r.startswith("tabulated") for r in rejected)
    assert not j2.is_zero()


def test_joint_invariant_examples():
    vals = joint_invariants(KVParams(EUCLIDEAN, (0, 0, 1)),
                            KTParams(EUCLIDEAN, (0, 0, 0, 0, 0, 1)))
    assert vals[4] == 0       # J1
    vals = joint_invariants(KVParams(EUCLIDEAN, (0, 0, 0)),
                            KTParams(EUCLIDEAN, (1, 2, 3, 4, 5, 6)))
    assert vals[3] == 0 and vals[4] == 0 and vals[5] == 0
    vals = joint_invariants(KVParams(EUCLIDEAN, (1, 0, 0)),
                            KTParams(EUCLIDEAN, (0, 0, 0, 0, 0, 1)))
    assert vals[4] == 1


def test_six_joint_invariants_exist():
    assert len(joint_invariant_polynomials()) == 6


# -- auxiliary Minkowski invariants ------------------------------------------

def test_slice_invariant_on_parabolic_canonical_form():
    p = embed_nontrivial(canonical_form(MINKOWSKI, "EC3"))
    aux = auxiliary_invariants(p)
    assert aux.i1_prime == 0
    assert aux.i2_prime == Fraction(-1, 4)
    assert slice_invariant_i2(p) == Fraction(-1, 4)


def test_slice_invariant_rejects_off_slice_input():
    with pytest.raises(SubmanifoldError, match="not on invariant submanifold"):
        slice_invariant_i2(KTParams(MINKOWSKI, (0, 0, 0, 0, 0, 1)))
    with pytest.raises(SubmanifoldError):
        slice_invariant_i2(KTParams(MINKOWSKI, (0, 0, 0, 1, 2, 0)))


def test_i1_prime_vanishes_on_the_symmetric_line():
    p = KTParams(MINKOWSKI, (3, 5, 7, 2, 2, 0))
    assert auxiliary_invariants(p).i1_prime == 0


def test_i1_prime_is_invariant_on_the_i3_zero_slice():
    """Symbolic identity: with alpha6 = 0, the derived action preserves
    alpha4^2 - alpha5^2 modulo the hyperbola relation c^2 - s^2 = 1."""
    from killingwebs.isometry import derived_kt_action, \
        reduce_rotation_identity
    action = derived_kt_action(MINKOWSKI)
    on_slice = {"alpha6": MultiPoly.zero()}
    a4t = action[3].subst(on_slice)
    a5t = action[4].subst(on_slice)
    i1p = A[4] ** 2 - A[5] ** 2
    assert reduce_rotation_identity(a4t ** 2 - a5t ** 2 - i1p,
                                    MINKOWSKI).is_zero()


def test_canonical_value_reproduction_for_hyperbolic_classes():
    rng = random.Random(41)
    for _ in range(20):
        k2 = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        p = embed_nontrivial(canonical_form(MINKOWSKI, "EC8", k2))
        i1, _, i3 = fundamental_invariants(p)
        assert (i1, i3) == (-k2 * k2 / 4, Fraction(1, 4))
        aux = auxiliary_invariants(p, k2)
        assert aux.istar_literal == 3 * k2 * k2 / 4
        assert aux.istar_canonical == 0


def test_elliptic_class_auxiliary_values():
    p = embed_nontrivial(canonical_form(MINKOWSKI, "EC6"))
    i1, _, i3 = fundamental_invariants(p)
    assert (i1, i3) == (Fraction(-3, 256), Fraction(1, 4))
    aux = auxiliary_invariants(p)
    assert aux.istar_literal == Fraction(9, 256)
    # The canonical separator needs the irrational k^2 = sqrt(3)/8; the
    # literal one is nonzero, which is what the classifier reports.
    assert aux.istar_literal != 0


def test_k2_candidate_exactness_flag():
    # On the EC8 canonical form the published square-root recovery formula
    # returns twice the canonical k^2 (sqrt(-I1)/I3 = (k^2/2) * 4); both
    # the value and its exactness flag are surfaced rather than repaired.
    p = embed_nontrivial(canonical_form(MINKOWSKI, "EC8", Fraction(2)))
    aux = auxiliary_invariants(p)
    assert len(aux.k2_candidates) == 1
    assert aux.k2_candidates[0].exact
    assert aux.k2_candidates[0].value == 4
    q = embed_nontrivial(canonical_form(MINKOWSKI, "EC8", Fraction(3)))
    candidate = auxiliary_invariants(q).k2_candidates[0]
    assert candidate.exact and candidate.value == 6
    r = KTParams(MINKOWSKI, (1, 1, 1, 0, 0, 1))
    aux_r = auxiliary_invariants(r)
    if aux_r.k2_candidates:
        assert isinstance(aux_r.k2_candidates[0].exact, bool)


def test_auxiliary_invariants_reject_euclidean_input():
    with pytest.raises(DomainError):
        auxiliary_invariants(KTParams(EUCLIDEAN, (1, 0, 0, 0, 0, 1)))


# -- the per-space forms, written out ------------------------------------------

def test_invariants_and_covariants_match_the_literal_per_space_forms():
    t, x, y = var("t"), var("x"), var("y")
    a1, a2, a3, a4, a5, a6 = (A[i] for i in range(1, 7))
    b1, b2, b3, b4, b5, b6 = (var(f"beta{i}") for i in range(1, 7))

    quad = a4 ** 2 + a5 ** 2 - a6 * (a1 + a2)
    cross = a3 * a6 - a4 * a5
    lu, lw = a6 * t + a5, a6 * x + a4
    assert invariant_polynomials(MINKOWSKI) == (
        quad ** 2 - 4 * cross ** 2, a6 * (a1 - a2) - a4 ** 2 + a5 ** 2, a6)
    assert covariant_polynomials(MINKOWSKI) == (
        lu ** 2 - lw ** 2, (lu ** 2 + lw ** 2) * quad + 4 * lu * lw * cross)

    quad = b6 * (b1 - b2) + b5 ** 2 - b4 ** 2
    cross = b3 * b6 + b4 * b5
    lu, lw = b6 * x + b5, b6 * y + b4
    assert invariant_polynomials(EUCLIDEAN) == (
        quad ** 2 + 4 * cross ** 2, b6 * (b1 + b2) - b4 ** 2 - b5 ** 2, b6)
    assert covariant_polynomials(EUCLIDEAN) == (
        lu ** 2 + lw ** 2, (lu ** 2 - lw ** 2) * quad + 4 * lu * lw * cross)
