"""Killing tensor spaces: dimension counts, defining equations, decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingwebs.poly import MultiPoly, poly, var
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams,
                                KVParams, NontrivialKT, decompose,
                                dtt_dimension, embed_nontrivial,
                                metric_params, reconstruct)
from killingwebs.symbolic import (eigen_discriminant, extract_kt_params,
                                  field_discriminant, geodesic_poisson_check,
                                  killing_residual, kt_components,
                                  kv_components, symbolic_killing_tensor)
from samplers import A, rationals

param_vectors = st.tuples(*([rationals] * 6))


def test_parameter_vectors_keep_fractions_and_coerce_the_rest():
    half = Fraction(1, 2)
    for cls, count in ((KTParams, 6), (KVParams, 3), (NontrivialKT, 5)):
        vec = cls(MINKOWSKI, (half, 2) + (Fraction(3),) * (count - 2))
        assert vec.values[0] is half
        assert all(type(v) is Fraction for v in vec.values)
        assert vec.values[1:] == (2,) + (3,) * (count - 2)


def test_killing_space_dimensions():
    assert dtt_dimension(2, 1) == 3
    assert dtt_dimension(2, 2) == 6
    assert dtt_dimension(3, 2) == 20


def test_dimension_formula_rejects_bad_input():
    with pytest.raises(DomainError):
        dtt_dimension(0, 2)
    with pytest.raises(DomainError):
        dtt_dimension(2, 0)


@given(st.integers(1, 6), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_dimension_formula_is_a_positive_integer(n, p):
    assert dtt_dimension(n, p) >= 1


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_general_form_satisfies_killing_equation_symbolically(space):
    field = symbolic_killing_tensor(space)
    assert all(r.is_zero() for r in killing_residual(space, field))


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_general_form_commutes_with_geodesic_hamiltonian(space):
    assert geodesic_poisson_check(space,
                                  symbolic_killing_tensor(space)).is_zero()


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_general_killing_vector_gives_a_linear_first_integral(space):
    """{H, V^i p_i} = 0 identically for the general Killing vector V: H
    has constant coefficients, so the bracket is, up to sign, the sum
    over i of dH/dp_i dF/dq_i."""
    v = kv_components(space, [A[1], A[2], A[3]])
    p1, p2 = var("p1"), var("p2")
    g0, g1 = space.metric_diag
    H = g0 * p1 * p1 + g1 * p2 * p2
    F = v[0] * p1 + v[1] * p2
    bracket = MultiPoly.zero()
    for i, q in enumerate(space.point_vars):
        bracket = bracket + H.diff(f"p{i + 1}") * F.diff(q)
    assert bracket.is_zero()


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_non_killing_field_fails_both_checks(space):
    u, w = (var(s) for s in space.point_vars)
    bad = (u * u * u, poly(0), poly(0))
    assert any(not r.is_zero() for r in killing_residual(space, bad))
    assert not geodesic_poisson_check(space, bad).is_zero()


@given(param_vectors)
@settings(max_examples=100, deadline=None)
def test_component_extraction_round_trip(values):
    for space in (EUCLIDEAN, MINKOWSKI):
        comps = kt_components(space, values)
        recovered = extract_kt_params(space, comps)
        assert [c.constant_value() for c in recovered] == list(values)


def test_extraction_rejects_non_killing_components():
    u = var(EUCLIDEAN.point_vars[0])
    with pytest.raises(DomainError):
        extract_kt_params(EUCLIDEAN, (u * u * u, poly(0), poly(0)))


@given(param_vectors)
@settings(max_examples=100, deadline=None)
def test_decompose_reconstruct_round_trip(values):
    for space in (EUCLIDEAN, MINKOWSKI):
        p = KTParams(space, values)
        l0, nt = decompose(p)
        assert reconstruct(l0, nt) == p


@given(rationals, st.tuples(*([rationals] * 5)))
@settings(max_examples=100, deadline=None)
def test_reconstruct_matches_the_metric_sum(l0, values):
    for space in (EUCLIDEAN, MINKOWSKI):
        nt = NontrivialKT(space, values)
        # l0 * metric + embed(nt), slot by slot on Fractions.
        expected = tuple(l0 * g + b for g, b in zip(
            metric_params(space).values, embed_nontrivial(nt).values))
        got = reconstruct(l0, nt)
        assert got == KTParams(space, expected)
        assert all(type(v) is Fraction for v in got.values)


def test_decompose_worked_example():
    l0, nt = decompose(KTParams(EUCLIDEAN, (3, 1, 0, 0, 0, 2)))
    assert l0 == 1
    assert nt.values == (2, 0, 0, 0, 2)


def test_decompose_of_metric_is_trivial():
    for space in (EUCLIDEAN, MINKOWSKI):
        l0, nt = decompose(metric_params(space))
        assert abs(l0) == 1
        assert nt.is_zero()


def test_decompose_is_idempotent_on_nontrivial_input():
    nt = NontrivialKT(EUCLIDEAN, (2, 3, 4, 5, 6))
    l0, back = decompose(embed_nontrivial(nt))
    assert l0 == 0
    assert back == nt


def test_metric_has_degenerate_eigenvalues():
    assert eigen_discriminant(metric_params(EUCLIDEAN)).is_zero()


def test_rotational_tensor_has_distinct_real_eigenvalues_off_origin():
    p = KTParams(EUCLIDEAN, (0, 0, 0, 0, 0, 1))
    disc = eigen_discriminant(p)
    value = disc.evaluate({s: {"x": Fraction(1), "y": Fraction(2)}[s]
                           for s in disc.variables})
    assert value > 0


def test_discriminant_detects_complex_eigenvalues():
    # A Minkowski tensor whose characteristic roots go complex somewhere.
    rng = random.Random(3)
    found = False
    for _ in range(200):
        p = KTParams(MINKOWSKI, tuple(Fraction(rng.randint(-3, 3))
                                      for _ in range(6)))
        disc = eigen_discriminant(p)
        if disc.is_zero():
            continue
        value = disc.evaluate({s: {"t": Fraction(1), "x": Fraction(1)}[s]
                               for s in disc.variables})
        if value < 0:
            found = True
            break
    assert found


def test_general_killing_tensor_components_match_printed_pattern():
    p = KTParams(MINKOWSKI, (1, 2, 3, 4, 5, 6))
    k00, k01, k11 = kt_components(p.space, p.values)
    t, x = var("t"), var("x")
    assert k00 == 1 + 8 * x + 6 * x * x
    assert k01 == 3 + 4 * t + 5 * x + 6 * t * x
    assert k11 == 2 + 10 * t + 6 * t * t


# -- the per-space forms, written out ------------------------------------------

# The library writes each form once in the signature eps = g11; these are
# the two forms it replaces, one per plane.

@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_kt_components_match_the_literal_per_space_forms(space):
    v1, v2, v3, v4, v5, v6 = (var(s) for s in space.param_vars)
    u, w = (var(s) for s in space.point_vars)
    if space is MINKOWSKI:
        k01 = v3 + v4 * u + v5 * w + v6 * u * w
    else:
        k01 = v3 - v4 * u - v5 * w - v6 * u * w
    assert kt_components(space, (v1, v2, v3, v4, v5, v6)) == (
        v1 + 2 * v4 * w + v6 * w * w, k01, v2 + 2 * v5 * u + v6 * u * u)


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_kv_components_match_the_literal_per_space_forms(space):
    v1, v2, v3 = (var(s) for s in ("alpha1", "alpha2", "alpha3"))
    u, w = (var(s) for s in space.point_vars)
    second = v2 + v3 * u if space is MINKOWSKI else v2 - v3 * u
    assert kv_components(space, (v1, v2, v3)) == (v1 + v3 * w, second)


@given(param_vectors)
@settings(max_examples=50, deadline=None)
def test_decompose_matches_the_literal_per_space_forms(values):
    v1, v2 = values[:2]
    for space, l0, prime1 in ((EUCLIDEAN, v2, v1 - v2),
                              (MINKOWSKI, -v2, v1 + v2)):
        assert decompose(KTParams(space, values)) == (
            l0, NontrivialKT(space, (prime1,) + tuple(values[2:])))


# The closed-form eigenvalue verdict in `classify` rests on these two
# factorizations of the symbolic discriminant.

def test_euclidean_discriminant_is_a_sum_of_two_squares():
    v1, v2, v3, v4, v5, v6 = (var(s) for s in EUCLIDEAN.param_vars)
    x, y = var("x"), var("y")
    a = (v1 - v2) + 2 * v4 * y - 2 * v5 * x + v6 * (y * y - x * x)
    b = v3 - v4 * x - v5 * y - v6 * x * y
    disc = field_discriminant(EUCLIDEAN, symbolic_killing_tensor(EUCLIDEAN))
    assert disc == a * a + 4 * b * b


def test_minkowski_discriminant_factors_in_null_coordinates():
    v1, v2, v3, v4, v5, v6 = (var(s) for s in MINKOWSKI.param_vars)
    sigma, tau = var("t") - var("x"), var("t") + var("x")
    f = v6 * sigma * sigma + 2 * (v5 - v4) * sigma + (v1 + v2 - 2 * v3)
    g = v6 * tau * tau + 2 * (v5 + v4) * tau + (v1 + v2 + 2 * v3)
    disc = field_discriminant(MINKOWSKI, symbolic_killing_tensor(MINKOWSKI))
    assert disc == f * g
