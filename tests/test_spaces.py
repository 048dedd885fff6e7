"""Killing tensor spaces: dimension counts, defining equations, decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingwebs.poly import poly, var
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams,
                                KVParams, NontrivialKT, TensorField, decompose,
                                dtt_dimension, eigen_discriminant,
                                embed_nontrivial, extract_kt_params,
                                general_killing_tensor,
                                geodesic_poisson_check, killing_residual,
                                kt_components, kv_components,
                                metric_params, reconstruct,
                                symbolic_killing_tensor)

rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7))
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
    assert all(r.is_zero() for r in killing_residual(field))


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_general_form_commutes_with_geodesic_hamiltonian(space):
    assert geodesic_poisson_check(symbolic_killing_tensor(space)).is_zero()


def test_non_killing_field_fails_both_checks():
    u, w = (var(s) for s in EUCLIDEAN.point_vars)
    bad = TensorField(EUCLIDEAN, (u * u * u, poly(0), poly(0)))
    assert any(not r.is_zero() for r in killing_residual(bad))
    assert not geodesic_poisson_check(bad).is_zero()


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
                           for s in disc.used_variables()})
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
                               for s in disc.used_variables()})
        if value < 0:
            found = True
            break
    assert found


def test_general_killing_tensor_components_match_printed_pattern():
    p = KTParams(MINKOWSKI, (1, 2, 3, 4, 5, 6))
    k00, k01, k11 = general_killing_tensor(p).components
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
