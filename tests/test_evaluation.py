"""The evaluation layer against its oracles, and the compute-once shape of
`classify_full`.

The invariants and the covariants are closed forms evaluated on the
integer numerators of the input; they must agree exactly with the literal
per-space forms (`samplers.literal_forms`), which are written out apart
from them.  The exact group actions on Killing tensors and Killing vectors
and the joint invariants are closed forms too, evaluated on integer
numerators; on `var` symbols they must equal the derived actions and the
oracle's joint invariants as polynomials, and at rationals they must agree
exactly with substituting into (or evaluating) those.  Both hold on sparse
and dense rationals with heights up to 10^6, and the covariant sign
classes read off quad and cross must agree with deciding them on the
polynomials.  `classify_full` derives no polynomial and does no polynomial
arithmetic.  The float action, the
same closed form on floats, must agree bit for bit with
`MultiPoly.evaluate`.  The parameter-space generators are
derived once per (space, valence) and shared.  The closed-form eigenvalue
verdict must have a witness point where the evaluated discriminant takes
the sign it names.
"""

import cmath
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingwebs import classify, invariants, signs, spaces
from killingwebs.classify import _eigen_precondition, classify_full
from killingwebs.frames import canonical_form
from killingwebs.generators import sigma_generators
from killingwebs.invariants import (_quad_cross, covariant_sign_classes,
                                    fundamental_invariants, invariant_report)
from killingwebs.isometry import (_GROUP_VARS, IsometryElement, _derive,
                                  _kt_action, _kv_action,
                                  _transformed_components,
                                  _transformed_vector, act_kt_params,
                                  act_kt_params_float, act_kv_params,
                                  derived_kt_action, rotation_from_parameter)
from killingwebs.poly import MultiPoly, var
from killingwebs.signs import SignClass, quadratic_sign_class
from killingwebs.spaces import (EUCLIDEAN, KV_PARAM_VARS, MINKOWSKI, KTParams,
                                KVParams, Space, embed_nontrivial)
from killingwebs.symbolic import (_joint_invariants, covariant_polynomials,
                                  eigen_discriminant, extract_kt_params,
                                  extract_kv_params, fundamental_covariants,
                                  invariant_polynomials,
                                  joint_invariant_polynomials,
                                  joint_invariants)
from samplers import BIG, literal_forms, nonzero, slot

SPACES = [EUCLIDEAN, MINKOWSKI]
values = st.one_of(st.tuples(*[nonzero] * 6),      # dense
                   st.tuples(*[slot] * 6))         # sparse
vectors = st.one_of(st.tuples(*[nonzero] * 3), st.tuples(*[slot] * 3))


def _assignment(p):
    return dict(zip(p.space.param_vars, p.values))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(values)
@settings(max_examples=100, deadline=None)
def test_invariants_match_substitution(space, vals):
    """Against the literal per-space forms, evaluated on the Fractions."""
    p = KTParams(space, vals)
    literal = literal_forms(space, p.values)[0]
    assert fundamental_invariants(p) == literal
    report = invariant_report(p)
    assert (report.i1, report.i2, report.i3) == literal
    assert all(type(v) is Fraction for v in (report.i1, report.i2, report.i3))
    assert report.i3 is p.values[5]           # v6 itself, no new Fraction


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(values)
@settings(max_examples=100, deadline=None)
def test_covariants_match_substitution(space, vals):
    """Against the literal per-space forms, with the parameters bound."""
    p = KTParams(space, vals)
    point = [var(v) for v in space.point_vars]
    for fast, oracle in zip(fundamental_covariants(p),
                            literal_forms(space, p.values, point)[1]):
        assert fast == oracle
        assert fast.pretty() == oracle.pretty()


covariant_inputs = st.one_of(
    values,
    values.map(lambda v: v[:5] + (Fraction(0),)),  # p6 = 0: constant C1, C2
    st.just((Fraction(0),) * 6))                   # the zero tensor


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(covariant_inputs)
@settings(max_examples=200, deadline=None)
def test_sign_classes_from_rows_match_the_polynomial_oracles(space, vals):
    """The classes read off quad and cross equal `quadratic_sign_class`
    on the covariants as polynomials, built from the integer rows and, as
    the oracle, by substitution."""
    p = KTParams(space, vals)
    rows = covariant_sign_classes(p)
    substituted = [c.subst(_assignment(p)) for c in covariant_polynomials(space)]
    for polys in (fundamental_covariants(p), substituted):
        assert rows == tuple(quadratic_sign_class(c, space.point_vars)
                             for c in polys)
    if vals[5] == 0:
        assert set(rows) <= {SignClass.ZERO, SignClass.NONZERO_CONST}
    if not any(vals):
        assert rows == (SignClass.ZERO, SignClass.ZERO)


def test_tables_are_cached_once_per_space():
    """`Space` hashes by its kind, which agrees with equality, so an equal
    copy of a space finds the polynomials already derived for it."""
    copies = [Space(*space) for space in SPACES]
    everything = SPACES + copies
    for a in everything:
        for b in everything:
            assert (a == b) == (a.kind == b.kind)
            if a == b:
                assert hash(a) == hash(b)
    assert len(set(everything)) == 2
    assert [hash(s) for s in SPACES] == [hash(s.kind) for s in SPACES]
    tables = (invariant_polynomials, covariant_polynomials)
    for space in SPACES:
        for table in tables:
            table(space)
    before = [t.cache_info() for t in tables]
    for copy in copies:
        for table in tables:
            table(copy)
    after = [t.cache_info() for t in tables]
    assert [a.misses for a in after] == [b.misses for b in before]
    assert [a.currsize for a in after] == [b.currsize for b in before]
    assert [a.hits - b.hits for a, b in zip(after, before)] == [2, 2]


def test_classify_derives_no_polynomial(monkeypatch):
    """A cold `classify_full` evaluates the closed forms on integers: it
    derives neither the symbolic invariants nor the covariants, and no
    polynomial arithmetic runs."""
    caches = (invariant_polynomials, covariant_polynomials)
    for cache in caches:
        cache.cache_clear()

    def refuse(*args):
        raise AssertionError("polynomial arithmetic while classifying")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__pow__", "subst", "evaluate", "coefficients_in"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    for space in SPACES:
        classify_full(KTParams(space, (1, 2, 3, 4, 5, 6)))
    assert [c.cache_info().currsize for c in caches] == [0, 0]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_closed_form_actions_equal_the_derived_maps(space):
    """On `var` symbols the closed forms are the derived polynomials: the
    tensor action `derived_kt_action`, and the vector action the map
    `_derive` finds by the same substitution and re-extraction."""
    group = [var(v) for v in _GROUP_VARS]
    tensor = _kt_action(space.eps, [var(v) for v in space.param_vars], *group)
    assert all(a == b for a, b in zip(tensor, derived_kt_action(space)))
    vector = _kv_action(space.eps, [var(v) for v in KV_PARAM_VARS], *group)
    derived = _derive(space, _transformed_vector, extract_kv_params,
                      KV_PARAM_VARS)
    assert all(a == b for a, b in zip(vector, derived))
    assert (len(tensor), len(vector)) == (6, 3)


def test_closed_form_joint_invariants_equal_the_oracle_selection():
    alpha = [var(v) for v in KV_PARAM_VARS]
    beta = [var(v) for v in EUCLIDEAN.param_vars]
    j1, j2 = _joint_invariants(alpha, beta, *_quad_cross(1, *beta))
    assert (j1, j2) == joint_invariant_polynomials()[4:]
    # J1 written out: `joint_invariant_polynomials` builds it from
    # `_joint_invariants` too.
    (a1, a2, a3), (_, _, _, b4, b5, b6) = alpha, beta
    assert j1 == (b6 * a1 - b4 * a3) ** 2 + (b6 * a2 + b5 * a3) ** 2


@st.composite
def elements(draw, space):
    u = draw(nonzero) if space.kind == "minkowski" else draw(
        st.one_of(st.just(Fraction(0)), nonzero))
    trans = (draw(slot), draw(slot))
    return IsometryElement(space, rotation_from_parameter(space, u).rot, trans)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(st.data(), values)
@settings(max_examples=100, deadline=None)
def test_group_action_matches_substitution(space, data, vals):
    p = KTParams(space, vals)
    g = data.draw(elements(space))
    comps = _transformed_components(space, p.values, g.rot, g.trans)
    oracle = tuple(v.constant_value() for v in extract_kt_params(space, comps))
    assert act_kt_params(g, p).values == oracle


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(st.data(), vectors)
@settings(max_examples=100, deadline=None)
def test_vector_action_matches_substitution(space, data, vals):
    kv = KVParams(space, vals)
    g = data.draw(elements(space))
    comps = _transformed_vector(space, kv.values, g.rot, g.trans)
    oracle = tuple(v.constant_value() for v in extract_kv_params(space, comps))
    assert act_kv_params(g, kv).values == oracle


floats = st.one_of(st.floats(-10, 10), st.floats(-BIG, BIG))
float_pairs = st.tuples(floats, floats)
# (cs, trans) per plane, built once: an exact element's, or any floats.
float_actions = {space: st.one_of(
    elements(space).map(lambda g: (g.rot, g.trans)),
    st.tuples(float_pairs, float_pairs)) for space in SPACES}


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(st.data(), values)
@settings(max_examples=300, deadline=None)
def test_float_action_matches_polynomial_evaluation(space, data, vals):
    p = KTParams(space, vals)
    cs, trans = data.draw(float_actions[space])
    assignment = dict(zip(space.param_vars + ("c", "s", "a", "b"),
                          (float(v) for v in p.values + cs + trans)))
    oracle = [float(f.evaluate(assignment)) for f in derived_kt_action(space)]
    assert [v.hex() for v in act_kt_params_float(p, cs, trans)] \
        == [v.hex() for v in oracle]


@given(vectors, values)
@settings(max_examples=100, deadline=None)
def test_joint_invariants_match_polynomial_evaluation(kv_vals, kt_vals):
    assignment = dict(zip(KV_PARAM_VARS + EUCLIDEAN.param_vars,
                          kv_vals + kt_vals))
    oracle = tuple(f.evaluate(assignment) for f in
                   joint_invariant_polynomials())
    assert joint_invariants(KVParams(EUCLIDEAN, kv_vals),
                            KTParams(EUCLIDEAN, kt_vals)) == oracle


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@pytest.mark.parametrize("valence", [1, 2])
def test_generators_are_derived_once_and_shared(space, valence):
    fields = sigma_generators(space, valence)
    assert isinstance(fields, tuple)
    assert sigma_generators(space, valence) is fields


def _grid_oracle(p):
    """The discriminant's signs on the 81 points of a rational grid over
    [-2, 2]^2, read as a verdict."""
    disc = eigen_discriminant(p)
    u, w = p.space.point_vars
    seen = []
    for i in range(9):
        for j in range(9):
            point = {u: Fraction(i, 2) - 2, w: Fraction(j, 2) - 2}
            seen.append(disc.evaluate(
                {s: point[s] for s in disc.variables}))
    if min(seen) < 0:
        return "complex"
    return "degenerate" if 0 in seen else "satisfied"


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(values)
@settings(max_examples=100, deadline=None)
def test_exact_verdict_agrees_with_sampled_signs(space, vals):
    """A grid sees part of the plane only: a negative value on it must make
    the exact verdict "complex", and a zero must rule out "satisfied"."""
    p = KTParams(space, vals)
    grid = _grid_oracle(p)
    exact = _eigen_precondition(invariant_report(p))
    if grid == "complex":
        assert exact == "complex"
    elif grid == "degenerate":
        assert exact != "satisfied"


def _sign(x):
    return (x > 0) - (x < 0)


def _candidates(a, b, c):
    """Rational s at which a s^2 + 2 b s + c takes each sign it takes, and
    its zero unless that is an irrational simple root: the vertex and both
    sides far out, or a linear root and either side of it."""
    if a:
        far = 1 + (2 * abs(b) + abs(c)) / abs(a)
        return [-b / a, far, -far]
    if b:
        return [(e - c) / (2 * b) for e in (-1, 0, 1)]
    return [Fraction(0)]


def _minkowski_signs(p):
    """The discriminant's signs at every pair of candidate null
    coordinates: t - x for f and t + x for g."""
    v1, v2, v3, v4, v5, v6 = p.values
    disc = eigen_discriminant(p)
    signs = set()
    for sigma in _candidates(v6, v5 - v4, v1 + v2 - 2 * v3):
        for tau in _candidates(v6, v5 + v4, v1 + v2 + 2 * v3):
            signs.add(_sign(disc.evaluate(
                {"t": (sigma + tau) / 2, "x": (tau - sigma) / 2})))
    return signs


def _euclidean_zero(p):
    """A common zero of k00 - k11 and k01: exact when I3 = v6 = 0 (an
    affine system) or when it is the centre, else the float root of
    v6 z^2 = const with z = y + ix about the centre."""
    v1, v2, v3, v4, v5, v6 = p.values
    if v4 == v5 == v6 == 0:
        return Fraction(0), Fraction(0)
    if v6 == 0:
        det = 2 * (v4 * v4 + v5 * v5)
        return (((v1 - v2) * v5 + 2 * v3 * v4) / det,
                (2 * v3 * v5 - (v1 - v2) * v4) / det)
    cx, cy = -v5 / v6, -v4 / v6
    ca = (v1 - v2) + (v5 * v5 - v4 * v4) / v6
    cb = v3 + v4 * v5 / v6
    if ca == cb == 0:
        return cx, cy
    z = cmath.sqrt(complex(-float(ca), 2 * float(cb)) / float(v6))
    return float(cx) + z.imag, float(cy) + z.real


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@given(values)
@settings(max_examples=100, deadline=None)
def test_verdict_has_a_pointwise_witness(space, vals):
    p = KTParams(space, vals)
    verdict = _eigen_precondition(invariant_report(p))
    disc = eigen_discriminant(p)
    if space.kind == "minkowski":
        signs = _minkowski_signs(p)
        if verdict == "complex":
            assert -1 in signs
        else:
            assert -1 not in signs
            assert (0 in signs) == (verdict == "degenerate")
        return
    assert verdict != "complex"
    if verdict == "satisfied":
        assert disc.is_constant() and disc.constant_value() > 0
        return
    x, y = _euclidean_zero(p)
    value = disc.evaluate({"x": x, "y": y})
    if isinstance(value, Fraction):
        assert value == 0
    else:
        assert p.values[5] != 0         # I3 = 0 gives an exact zero
        # Against the size of the terms, with the point's coordinates
        # taken as at least 1 so that a root at the origin is no exception.
        scale = sum(abs(float(c.constant_value()))
                    * max(1, abs(x)) ** i * max(1, abs(y)) ** j
                    for (i, j), c in disc.coefficients_in(("x", "y")).items())
        assert abs(value) <= 1e-9 * scale


def test_grid_verdict_reaches_every_state():
    seen = {_eigen_precondition(invariant_report(KTParams(MINKOWSKI, v)))
            for v in ((0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0),
                      (0, 0, 1, 0, 0, 0))}
    assert seen == {"complex", "degenerate", "satisfied"}


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records():
    rng = random.Random(7)
    out = [embed_nontrivial(canonical_form(EUCLIDEAN, ec))
           for ec in ("EC1", "EC2", "EC3", "EC4")]
    out += [embed_nontrivial(canonical_form(
        MINKOWSKI, ec, Fraction(1) if ec in ("EC5", "EC8", "EC9", "EC10")
        else None)) for ec in ("EC1", "EC2", "EC3", "EC4", "EC5", "EC6",
                               "EC7", "EC8", "EC9", "EC10")]
    for space in SPACES:
        out += [KTParams(space, tuple(
            Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
            for _ in range(6))) for _ in range(8)]
        out.append(KTParams(space, (3, 3 * space.metric_diag[1], 0, 0, 0, 0)))
    return out


def test_warm_classify_full_computes_each_quantity_once(monkeypatch):
    """Traced with the benchmark's own spans: no substitution, product or
    polynomial evaluation, and one invariant report per record, which
    brings the input to integer numerators once, evaluates quad and cross
    on them once (`_quad_cross`, the one home of their closed form, counted
    wherever it is bound) and from those the invariants and both covariant
    sign classes, with no
    call to the public per-quantity functions, no covariant built and no
    sign decision on a polynomial or on a row: the classes are read off
    v6, quad and cross, and `row_sign_class`, counted the same way, is
    never called, on any record; l0, triviality and I1', I2' come from those
    numerators too, with no `decompose` or `auxiliary_invariants`; the
    group action is never derived or evaluated."""
    records = _records()
    for p in records:
        classify_full(p)
    action_calls = derived_kt_action.cache_info()
    tracer = _load_spans().Tracer()
    calls = {}          # function name -> the record of each call
    once = (spaces.common_numerators, invariants._quad_cross)
    for original in once + (signs.row_sign_class,):
        name = original.__name__
        calls[name] = []

        def counted(*args, original=original, seen=calls[name]):
            seen.append(tracer.record_id)
            return original(*args)

        bound = [m for n, m in sys.modules.items() if n.startswith(
            "killingwebs") and vars(m).get(name) is original]
        assert bound
        for module in bound:
            monkeypatch.setattr(module, name, counted)
    tracer.install()
    try:
        for i, p in enumerate(records):
            tracer.record_id = i
            classify.classify_full(p)       # the traced binding
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["poly.subst.calls_per_record"] == 0
    assert metrics["poly.mul.calls_per_record"] == 0
    assert metrics["poly.evaluate.calls_per_record"] == 0
    assert metrics["invariants.fundamental_invariants.calls_per_record"] == 0
    assert metrics["invariants.fundamental_covariants.calls_per_record"] == 0
    assert metrics["signs.quadratic_sign_class.calls_per_record"] == 0
    assert tracer.durations("invariants.covariant_sign_classes") == []
    assert tracer.durations("spaces.decompose") == []
    assert tracer.durations("invariants.auxiliary_invariants") == []
    assert sorted(r for n, r in zip(tracer.name, tracer.record)
                  if tracer.names[n] == "invariants.invariant_report") \
        == list(range(len(records)))
    assert calls == {**{f.__name__: list(range(len(records))) for f in once},
                     "row_sign_class": []}
    assert derived_kt_action.cache_info() == action_calls
