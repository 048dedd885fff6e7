"""Invariants and covariants: printed values, exact invariance, annihilation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from killingwebs.frames import canonical_form
from killingwebs.generators import joint_generators
from killingwebs.invariants import (auxiliary_invariants,
                                    fundamental_invariants)
from killingwebs.isometry import (act_kt_params, act_kv_params, act_point,
                                  discrete_group_elements)
from killingwebs.poly import MultiPoly, var
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams,
                                KVParams, embed_nontrivial, metric_params)
from killingwebs.symbolic import (covariant_polynomials,
                                  fundamental_covariants,
                                  invariant_polynomials,
                                  joint_invariant_polynomials,
                                  joint_invariants, kt_components,
                                  symbolic_killing_tensor)
from samplers import (A, literal_forms, nonzero, random_element,
                      random_params, slot)


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


def _param_assignment(p: KTParams) -> dict[str, Fraction]:
    return dict(zip(p.space.param_vars, p.values))


def trace_identity_check(p: KTParams | None = None) -> MultiPoly:
    """C1 - (I3 tr(K g^{-1}) - I2), identically zero for the Euclidean plane.

    With no argument the identity is checked fully symbolically.
    """
    space = EUCLIDEAN if p is None else p.space
    if space.kind != "euclidean":
        raise DomainError("the trace identity is a Euclidean statement")
    if p is None:
        comps = symbolic_killing_tensor(space)
        assignment = None
    else:
        comps = kt_components(space, p.values)
        assignment = _param_assignment(p)
    g0, g1 = space.metric_diag
    trace = g0 * comps[0] + g1 * comps[2]
    i1, i2, i3 = invariant_polynomials(space)
    c1 = covariant_polynomials(space)[0]
    if assignment is not None:
        i2, i3 = i2.subst(assignment), i3.subst(assignment)
        c1 = c1.subst(assignment)
    return c1 - (i3 * trace - i2)


def test_trace_identity():
    assert trace_identity_check().is_zero()
    rng = random.Random(9)
    for _ in range(25):
        assert trace_identity_check(random_params(EUCLIDEAN, rng)).is_zero()
    with pytest.raises(DomainError):
        trace_identity_check(metric_params(MINKOWSKI))


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI],
                         ids=lambda s: s.kind)
def test_invariants_are_the_pencil_coefficients(space):
    """With A = [[v1, v3, -eps v4], [v3, v2, v5], [-eps v4, v5, v6]] and
    D = diag(1, eps, 0): det(A - lam D) = det A - eps I2 lam + eps I3 lam^2
    and I1 = I2^2 - 4 eps I3 det A, as polynomials.  `s` stands for lam:
    the parameters do not use it."""
    eps, lam = space.eps, var("s")
    v1, v2, v3, v4, v5, v6 = (var(v) for v in space.param_vars)
    a = [[v1, v3, -eps * v4], [v3, v2, v5], [-eps * v4, v5, v6]]
    d = (1, eps, 0)
    pencil = [[a[i][j] - (lam * d[i] if i == j else 0) for j in range(3)]
              for i in range(3)]
    i1, i2, i3 = invariant_polynomials(space)
    det = _det3(a)
    assert _det3(pencil) == det - eps * i2 * lam + eps * i3 * lam * lam
    assert i1 == i2 * i2 - 4 * eps * i3 * det


# -- exact invariance under the connected group -------------------------------

@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_fundamental_invariants_are_exactly_invariant(space):
    rng = random.Random(17)
    for _ in range(1000):
        p = random_params(space, rng)
        g = random_element(space, rng)
        assert fundamental_invariants(act_kt_params(g, p)) \
            == fundamental_invariants(p)


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_covariants_satisfy_the_covariance_law_exactly(space):
    rng = random.Random(19)
    for _ in range(200):
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
                {s: b1[s] for s in before.variables})
            v_after = after.evaluate(
                {s: b2[s] for s in after.variables})
            assert v_before == v_after


def test_joint_invariants_are_exactly_invariant():
    rng = random.Random(29)
    for _ in range(1000):
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
    """The tabulated closed form of the sixth joint invariant is corrupt at
    the source: it references a vector parameter alpha5 that does not
    exist, and a weight count under the rotation generator shows that no
    expression linear in the vector parameters can be rotation invariant
    at all.  So the joint generators annihilate none of the plausible
    one-symbol repairs of the tabulated form, and they do annihilate the
    completion derived by solving the annihilation system."""
    a = {i: var(f"alpha{i}") for i in (1, 2, 3)}
    b = {i: var(f"beta{i}") for i in range(1, 7)}
    # The tabulated form (beta6 alpha2 + alpha5 alpha3) s2 + tail, as printed.
    tail = 2 * (b[3] * b[6] + b[4] * b[5]) * (b[6] * a[1] - b[4] * a[3])
    s2 = b[6] * b[2] - b[5] ** 2
    readings = {
        "alpha5 read as beta5": (b[6] * a[2] + a[3] * b[5]) * s2 + tail,
        "alpha5 read as beta4": (b[6] * a[2] + a[3] * b[4]) * s2 + tail,
        "alpha5 read as -beta5": (b[6] * a[2] - a[3] * b[5]) * s2 + tail,
    }
    fields = joint_generators(EUCLIDEAN, (1, 2))
    for name, reading in readings.items():
        assert not all(f.apply(reading).is_zero() for f in fields), name
    j2 = joint_invariant_polynomials()[5]
    assert not j2.is_zero()
    assert all(f.apply(j2).is_zero() for f in fields)


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
        k2 = Fraction(rng.randint(1, 60), rng.randint(1, 11))
        p = embed_nontrivial(canonical_form(MINKOWSKI, "EC8", k2))
        i1, _, i3 = fundamental_invariants(p)
        assert (i1, i3) == (-k2 * k2 / 4, Fraction(1, 4))


def test_elliptic_class_auxiliary_values():
    p = embed_nontrivial(canonical_form(MINKOWSKI, "EC6"))
    i1, _, i3 = fundamental_invariants(p)
    assert (i1, i3) == (Fraction(-3, 256), Fraction(1, 4))
    assert auxiliary_invariants(p) == (0, None)


on_slice = st.builds(lambda a, s: (a[0], a[1], a[2], a[3], s * a[3], 0),
                     st.tuples(*[slot] * 4), st.sampled_from((1, -1)))


@given(st.one_of(st.tuples(*[nonzero] * 6), st.tuples(*[slot] * 6),
                 on_slice))
def test_auxiliary_record_is_exact_and_i2_prime_lives_on_the_slice(values):
    p = KTParams(MINKOWSKI, values)
    aux = auxiliary_invariants(p)
    assert all(isinstance(v, Fraction) for v in aux if v is not None)
    a1, a2, a3, a4, a5, a6 = values
    assert aux.i1_prime == a4 * a4 - a5 * a5
    if a6 == 0 and a4 * a4 == a5 * a5:
        assert aux.i2_prime == 2 * a3 * a4 * a5 - (a1 + a2) * a4 * a4
    else:
        assert aux.i2_prime is None


T = Fraction(1, 10 ** 100)


@pytest.mark.parametrize("values", [
    (0, 0, T, T, 0, -T),                       # I1 = -3 T^4 underflows to 0.0
    (-1, -2, -3, -10 ** 200, -5, -7),          # I1 overflows a float
    (1, 2, 3, 5, 3, Fraction(-1, 10 ** 400))])  # I3 underflows to -0.0
def test_auxiliary_record_beyond_float_range(values):
    p = KTParams(MINKOWSKI, values)
    i1, _, i3 = fundamental_invariants(p)
    assert i1 != 0 and i3 < 0
    a4, a5 = values[3:5]
    assert auxiliary_invariants(p) == (a4 * a4 - a5 * a5, None)


def test_auxiliary_invariants_reject_euclidean_input():
    with pytest.raises(DomainError):
        auxiliary_invariants(KTParams(EUCLIDEAN, (1, 0, 0, 0, 0, 1)))


# -- the per-space forms, written out ------------------------------------------

def test_invariants_and_covariants_match_the_literal_per_space_forms():
    for space in (MINKOWSKI, EUCLIDEAN):
        invariants, covariants = literal_forms(
            space, [var(v) for v in space.param_vars],
            [var(v) for v in space.point_vars])
        assert invariant_polynomials(space) == invariants
        assert covariant_polynomials(space) == covariants
