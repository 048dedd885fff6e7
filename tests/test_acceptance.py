"""Acceptance suite: one labeled pass/fail line per criterion.

Each test prints "ACCEPTANCE n ... PASS" when its assertions hold; a
failing assertion keeps the line at FAIL and fails the test.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from killingwebs.cli import run as cli_run
from killingwebs.frames import (RESIDUAL_TOL, FrameDomainError,
                                canonical_form, moving_frame)
from killingwebs.generators import (extended_generators, jacobian_rank,
                                    joint_generators, sigma_generators,
                                    sigma_structure_constants,
                                    structure_residuals)
from killingwebs.invariants import (auxiliary_invariants,
                                    covariant_polynomials,
                                    fundamental_covariants,
                                    fundamental_invariants,
                                    invariant_polynomials)
from killingwebs.isometry import (act_kt_params, act_kt_params_float,
                                  act_kv_params, act_point,
                                  discrete_act_params,
                                  discrete_group_elements)
from killingwebs.poly import MultiPoly, parse_rational, var
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, KVParams,
                                dtt_dimension, embed_nontrivial)
from killingwebs.symbolic import (joint_invariant_polynomials,
                                  joint_invariants, killing_residual,
                                  kv_components, symbolic_killing_tensor)
from samplers import canonical, classify_tag, random_element, random_params


def announce(number, description, passed):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({description}): {state}")
    assert passed


def checked(number, description):
    """Run the wrapped zero-argument check and print the verdict line."""
    def wrap(fn):
        def test():
            passed = False
            try:
                fn()
                passed = True
            finally:
                announce(number, description, passed)
        test.__name__ = f"test_acceptance_{number:02d}"
        test.__doc__ = description
        return test
    return wrap


# -- criterion 1 --------------------------------------------------------------

@checked(1, "Killing tensor space dimensions")
def test_acceptance_01():
    assert dtt_dimension(2, 1) == 3
    assert dtt_dimension(2, 2) == 6
    assert dtt_dimension(3, 2) == 20


# -- criterion 2 --------------------------------------------------------------

@checked(2, "general forms satisfy the Killing identities symbolically")
def test_acceptance_02():
    for space in (EUCLIDEAN, MINKOWSKI):
        field = symbolic_killing_tensor(space)
        assert all(r.is_zero() for r in killing_residual(field))
        # The general Killing vector yields a linear first integral of the
        # geodesic flow: {H, V^i p_i} = 0 identically.
        v = kv_components(space, [var("alpha1"), var("alpha2"),
                                  var("alpha3")])
        p1, p2 = var("p1"), var("p2")
        g0, g1 = space.metric_diag
        H = g0 * p1 * p1 + g1 * p2 * p2
        F = v[0] * p1 + v[1] * p2
        bracket = MultiPoly.zero()
        for i, q in enumerate(space.point_vars):
            bracket = bracket + H.diff(f"p{i + 1}") * F.diff(q)
        assert bracket.is_zero()


# -- criterion 3 --------------------------------------------------------------

@checked(3, "generator reproduction with pinned diffs, structure constants")
def test_acceptance_03():
    A = {i: var(f"alpha{i}") for i in range(1, 7)}
    B = {i: var(f"beta{i}") for i in range(1, 7)}

    def field(domain, **coeffs):
        from killingwebs.generators import LinearVectorField
        zero = MultiPoly.zero()
        return LinearVectorField(
            tuple(domain), tuple(coeffs.get(s, zero) for s in domain))

    # The Minkowski triple matches its printed display exactly.
    printed_m = [
        field(MINKOWSKI.param_vars, alpha3=A[4], alpha2=2 * A[5],
              alpha5=A[6]),
        field(MINKOWSKI.param_vars, alpha3=A[5], alpha1=2 * A[4],
              alpha4=A[6]),
        field(MINKOWSKI.param_vars, alpha1=-2 * A[3], alpha4=-A[5],
              alpha3=-(A[1] + A[2]), alpha2=-2 * A[3], alpha5=-A[4]),
    ]
    for got, expected in zip(sigma_generators(MINKOWSKI, 2), printed_m):
        assert (got - expected).is_zero()

    # The Euclidean valence-2 triple: the derivation is authoritative and
    # every printed difference is reported as an exact residual field.
    printed_e = [
        field(EUCLIDEAN.param_vars, beta2=-2 * B[5], beta3=-B[4],
              beta5=B[6]),
        field(EUCLIDEAN.param_vars, beta1=2 * B[4], beta3=-B[5],
              beta6=B[6]),
        field(EUCLIDEAN.param_vars, beta1=-2 * B[3], beta2=2 * B[3],
              beta3=B[1] - B[2], beta4=B[5], beta5=-B[4]),
    ]
    derived_e = sigma_generators(EUCLIDEAN, 2)
    assert (derived_e[0] - printed_e[0]
            - field(EUCLIDEAN.param_vars, beta2=4 * B[5])).is_zero()
    assert (derived_e[1] - printed_e[1]
            - field(EUCLIDEAN.param_vars, beta4=B[6],
                    beta6=-B[6])).is_zero()
    assert (derived_e[2] + printed_e[2]).is_zero()

    # Every family satisfies the coordinate bracket table with the single
    # documented global sign.
    families = [(space, fields) for space in (EUCLIDEAN, MINKOWSKI)
                for fields in (sigma_generators(space, 1),
                               sigma_generators(space, 2),
                               extended_generators(space))]
    families.append((EUCLIDEAN, joint_generators(EUCLIDEAN, (1, 2))))
    for space, fields in families:
        residuals = structure_residuals(fields,
                                        sigma_structure_constants(space))
        assert all(r.is_zero() for r in residuals.values())


# -- criterion 4 --------------------------------------------------------------

@checked(4, "exact invariance suite (1000 pairs per space + discrete group)")
def test_acceptance_04():
    rng = random.Random(101)
    for space in (EUCLIDEAN, MINKOWSKI):
        for _ in range(1000):
            p = random_params(space, rng)
            g = random_element(space, rng)
            assert fundamental_invariants(act_kt_params(g, p)) \
                == fundamental_invariants(p)
        for _ in range(200):
            p = random_params(space, rng)
            g = random_element(space, rng)
            pt = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            moved_pt = act_point(g, pt)
            u, w = space.point_vars
            for before, after in zip(
                    fundamental_covariants(p),
                    fundamental_covariants(act_kt_params(g, p))):
                b1 = {u: pt[0], w: pt[1]}
                b2 = {u: moved_pt[0], w: moved_pt[1]}
                assert before.evaluate(
                    {s: b1[s] for s in before.variables}) \
                    == after.evaluate(
                        {s: b2[s] for s in after.variables})
    for _ in range(1000):
        kv = KVParams(EUCLIDEAN, tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(3)))
        kt = random_params(EUCLIDEAN, rng)
        g = random_element(EUCLIDEAN, rng)
        assert joint_invariants(act_kv_params(g, kv), act_kt_params(g, kt)) \
            == joint_invariants(kv, kt)
    # Discrete group, symbolic: I1, I3, C2 are unchanged by all 8 words;
    # C1 carries one metric factor and the coordinate swap reverses the
    # metric orientation, so C1 is unchanged up to that orientation sign
    # (its sign class and every table predicate are untouched).
    A = {i: var(f"alpha{i}") for i in range(1, 7)}
    i1, _, i3 = invariant_polynomials(MINKOWSKI)
    c1, c2 = covariant_polynomials(MINKOWSKI)
    t, x = var("t"), var("x")
    for r in discrete_group_elements():
        sub = {f"alpha{i + 1}": sign * A[idx]
               for i, (idx, sign) in enumerate(r.signed_permutation())}
        pt = (t, x)
        for letter in r.word:
            pt = (pt[0], -pt[1]) if letter == "R1" else (pt[1], pt[0])
        sub.update({"t": pt[0], "x": pt[1]})
        for f in (i1, i3, c2):
            assert f.subst(sub) == f
        swaps = sum(1 for letter in r.word if letter == "R2")
        assert c1.subst(sub) == (c1 if swaps % 2 == 0 else -c1)


# -- criterion 5 --------------------------------------------------------------

@checked(5, "annihilation identities and Jacobian rank 3")
def test_acceptance_05():
    for space in (EUCLIDEAN, MINKOWSKI):
        for f in invariant_polynomials(space):
            for g in sigma_generators(space, 2):
                assert g.apply(f).is_zero()
        for f in covariant_polynomials(space):
            for g in extended_generators(space):
                assert g.apply(f).is_zero()
        generic = dict(zip(space.param_vars,
                           (Fraction(v, 7) for v in (3, 5, 11, 2, 9, 13))))
        assert jacobian_rank(invariant_polynomials(space), space.param_vars,
                             generic) == 3
    j2 = joint_invariant_polynomials()[5]
    assert not j2.is_zero()
    for f in joint_invariant_polynomials():
        for g in joint_generators(EUCLIDEAN, (1, 2)):
            assert g.apply(f).is_zero()


# -- criterion 6 --------------------------------------------------------------

@checked(6, "frame residuals within 1e-9; exact arctanh domain error")
def test_acceptance_06():
    rng = random.Random(103)
    for space in (EUCLIDEAN, MINKOWSKI):
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
    with pytest.raises(FrameDomainError,
                       match="outside arctanh domain: argument = -2"):
        moving_frame(embed_nontrivial(canonical(MINKOWSKI, "EC6")))


# -- criterion 7 --------------------------------------------------------------

@checked(7, "canonical invariant values (EC8 family, EC3 slice, EC6)")
def test_acceptance_07():
    rng = random.Random(107)
    for _ in range(20):
        k2 = Fraction(rng.randint(1, 60), rng.randint(1, 11))
        p = embed_nontrivial(canonical_form(MINKOWSKI, "EC8", k2))
        i1, _, i3 = fundamental_invariants(p)
        assert (i1, i3) == (-k2 * k2 / 4, Fraction(1, 4))
    p3 = embed_nontrivial(canonical(MINKOWSKI, "EC3"))
    assert auxiliary_invariants(p3).i2_prime == Fraction(-1, 4)
    p6 = embed_nontrivial(canonical(MINKOWSKI, "EC6"))
    assert fundamental_invariants(p6)[0] == Fraction(-3, 256)


# -- criterion 8 --------------------------------------------------------------

EUCLIDEAN_ROWS = {"EC1": "Cartesian", "EC2": "Polar", "EC3": "Parabolic",
                  "EC4": "EllipticHyperbolic"}
MINKOWSKI_ROWS = {"EC1": "EC1", "EC2": "EC2", "EC3": "EC3", "EC4": "EC4",
                  "EC5": "EC5_or_EC10", "EC6": "EC6_or_EC8", "EC7": "EC7",
                  "EC8": "EC6_or_EC8", "EC9": "EC9", "EC10": "EC5_or_EC10"}


@checked(8, "table reproduction + classification invariance (500 elements)")
def test_acceptance_08():
    rng = random.Random(109)
    for space, rows in ((EUCLIDEAN, EUCLIDEAN_ROWS),
                        (MINKOWSKI, MINKOWSKI_ROWS)):
        for ec, expected in rows.items():
            p = embed_nontrivial(canonical(space, ec))
            assert classify_tag(p) == expected
            for _ in range(500):
                g = random_element(space, rng)
                assert classify_tag(act_kt_params(g, p)) == expected
            if space.kind == "minkowski":
                for r in discrete_group_elements():
                    assert classify_tag(discrete_act_params(r, p)) == expected


# -- criterion 9 --------------------------------------------------------------

@checked(9, "boost-plus-reflection degeneracy witness for EC6/EC8")
def test_acceptance_09():
    p = embed_nontrivial(canonical(MINKOWSKI, "EC6"))
    phi = 0.5 * math.atanh(-0.5)
    moved = act_kt_params_float(p, (math.cosh(phi), math.sinh(phi)),
                                (0.0, 0.0))
    reflected = (moved[0], moved[1], -moved[2], -moved[3], moved[4], moved[5])
    k2 = math.sqrt(3) / 8
    expected = (0.125, -0.125, -k2, 0.0, 0.0, 0.25)
    assert max(abs(m - e) for m, e in zip(reflected, expected)) < 1e-9
    i1, _, i3 = fundamental_invariants(p)
    assert (i1, i3) == (Fraction(-3, 256), Fraction(1, 4))
    assert i1 == -(Fraction(3, 64)) / 4   # -(k^2)^2/4 with k^2 = sqrt(3)/8


# -- criterion 10 -------------------------------------------------------------

@checked(10, "CLI determinism and JSON round trip on all canonical forms")
def test_acceptance_10():
    import io
    import contextlib

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli_run(argv)
        return status, buf.getvalue()

    for space, rows in (("euclidean", EUCLIDEAN_ROWS),
                        ("minkowski", MINKOWSKI_ROWS)):
        for ec in rows:
            nt = canonical(EUCLIDEAN if space == "euclidean" else MINKOWSKI,
                           ec)
            params = ",".join(str(v) for v in nt.values)
            argv = ["classify", "--space", space, f"--params={params}",
                    "--output", "json"]
            status, first = capture(argv)
            assert status == 0
            status, second = capture(argv)
            assert status == 0
            assert first == second
            data = json.loads(first)
            for text in data["input"] + [data["l0"]] \
                    + list(data["invariants"].values()):
                value = parse_rational(text)
                assert parse_rational(str(value)) == value
