"""Samplers, oracles and tables shared by the test modules.

Each sampler draws from the `random.Random` it is given, so a test's inputs
are fixed by its seed.  `killingwebs.verify` keeps a sampler of its own:
its translation range differs, and its goldens pin its stream.  The
hypothesis strategies, the symbol table `A`, the class of each canonical
row (read off `frames.CANONICAL`) and the package's source directory are
defined here once, and so are the oracles the package no longer runs: the
Killing vector pushed through the point map and re-extracted, and the
parameter-space generators derived by Lie derivatives.
"""

from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from killingwebs.classify import classify_euclidean, classify_minkowski
from killingwebs.frames import CANONICAL, K2_CLASSES, canonical_form
from killingwebs.generators import (LinearVectorField,
                                    coordinate_killing_vectors)
from killingwebs.isometry import _pullback, rotation_from_parameter
from killingwebs.poly import MultiPoly, var
from killingwebs.spaces import KV_PARAM_VARS, DomainError, KTParams, decompose
from killingwebs.symbolic import (extract_kt_params, kv_components,
                                  symbolic_killing_tensor)

SRC = Path(__file__).resolve().parents[1] / "src"

# The six Killing tensor parameter symbols alpha1..alpha6.
A = {i: var(f"alpha{i}") for i in range(1, 7)}

# The tabulated class of each canonical row, in the order of the tables.
CLASSES = {kind: {ec: row[0] for ec, row in rows.items()}
           for kind, rows in CANONICAL.items()}

# Small rationals: numerators -20..20 over denominators 1..7.
rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7))

# Nonzero rationals of small height or of heights up to 10^6, and a slot
# that is zero or one of them.
BIG = 10 ** 6
nonzero = st.one_of(
    st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 5)),
    st.builds(Fraction, st.integers(-BIG, BIG).filter(bool),
              st.integers(1, BIG)))
slot = st.one_of(st.just(Fraction(0)), nonzero)


def random_element(space, rng):
    """An exact group element with small rational parameter and shift."""
    u = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if space.kind == "minkowski" and u <= 0:
        # -u is the same boost as u; -1/u is its inverse.
        u = -1 / u if u else Fraction(1)
    trans = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
             Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return rotation_from_parameter(space, u, trans)


def random_params(space, rng):
    """Six dense small-height rationals."""
    return KTParams(space, tuple(
        Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(6)))


def canonical(space, ec, k2=None):
    """The tabulated representative, with k2 = 1 where the row needs one."""
    if space.kind == "minkowski" and ec in K2_CLASSES and k2 is None:
        k2 = Fraction(1)
    return canonical_form(space, ec, k2)


def classify_tag(p: KTParams):
    """The table tag of the nontrivial part of `p`."""
    nt = decompose(p)[1]
    if p.space.kind == "euclidean":
        return classify_euclidean(nt).tag
    return classify_minkowski(nt)[0].tag


def literal_forms(space, p, point=(0, 0)):
    """((I1, I2, I3), (C1, C2)) as written out for each space, in any ring:
    `p` holds the six parameters and `point` the two point coordinates,
    as numbers or `var` symbols.  The oracle for the closed forms, which
    the package writes once, in the signature epsilon."""
    v1, v2, v3, v4, v5, v6 = p
    lu, lw = v6 * point[0] + v5, v6 * point[1] + v4
    if space.kind == "minkowski":
        quad = v4 ** 2 + v5 ** 2 - v6 * (v1 + v2)
        cross = v3 * v6 - v4 * v5
        return ((quad ** 2 - 4 * cross ** 2,
                 v6 * (v1 - v2) - v4 ** 2 + v5 ** 2, v6),
                (lu ** 2 - lw ** 2,
                 (lu ** 2 + lw ** 2) * quad + 4 * lu * lw * cross))
    quad = v6 * (v1 - v2) + v5 ** 2 - v4 ** 2
    cross = v3 * v6 + v4 * v5
    return ((quad ** 2 + 4 * cross ** 2,
             v6 * (v1 + v2) - v4 ** 2 - v5 ** 2, v6),
            (lu ** 2 + lw ** 2,
             (lu ** 2 - lw ** 2) * quad + 4 * lu * lw * cross))


def transformed_vector(space, values, cs, trans):
    """Push the Killing vector components through the point map."""
    j, bindings = _pullback(space, cs, trans)
    v0, v1 = (v.subst(bindings) for v in kv_components(space, values))
    return (j[0][0] * v0 + j[0][1] * v1, j[1][0] * v0 + j[1][1] * v1)


def extract_kv_params(space, components):
    """Recover the three Killing vector parameters, with residue check."""
    c0, c1 = (k.coefficients_in(space.point_vars) for k in components)
    zero = MultiPoly.zero()
    v1 = c0.get((0, 0), zero)
    v3 = c0.get((0, 1), zero)
    v2 = c1.get((0, 0), zero)
    rebuilt = kv_components(space, [v1, v2, v3])
    residues = [a - b for a, b in zip(components, rebuilt)]
    if any(not r.is_zero() for r in residues):
        raise DomainError("components do not fit the Killing vector pattern")
    return [v1, v2, v3]


def _lie_derivative_tensor(X, comps, d):
    """(L_X K)^{ij} = X^k d_k K^{ij} - K^{kj} d_k X^i - K^{ik} d_k X^j."""
    K = {(0, 0): comps[0], (0, 1): comps[1], (1, 0): comps[1], (1, 1): comps[2]}
    out = {}
    for i in range(2):
        for j in range(i, 2):
            term = MultiPoly.zero()
            for k in range(2):
                term = term + X[k] * K[(i, j)].diff(d[k])
                term = term - K[(k, j)] * X[i].diff(d[k])
                term = term - K[(i, k)] * X[j].diff(d[k])
            out[(i, j)] = term
    return (out[(0, 0)], out[(0, 1)], out[(1, 1)])


def _lie_bracket(X, V, d):
    """[X, V]^i = X^k d_k V^i - V^k d_k X^i, the components taken on the
    symbols d."""
    out = []
    for Vi, Xi in zip(V, X):
        term = MultiPoly.zero()
        for Xk, Vk, sym in zip(X, V, d):
            term = term + Xk * Vi.diff(sym) - Vk * Xi.diff(sym)
        out.append(term)
    return tuple(out)


def lie_derivative_generators(space, valence):
    """The oracle of `generators.sigma_generators`: each coordinate Killing
    vector applied to the general field (valence 2: the Killing tensor,
    valence 1: the Killing vector) by the Lie derivative, the result
    re-extracted as a linear vector field on parameter space."""
    if valence == 2:
        domain = space.param_vars
        comps = symbolic_killing_tensor(space)
        lie_derivative, extract = _lie_derivative_tensor, extract_kt_params
    else:
        domain = KV_PARAM_VARS
        comps = kv_components(space, [var(v) for v in domain])
        lie_derivative, extract = _lie_bracket, extract_kv_params
    return tuple(
        LinearVectorField(domain, tuple(extract(
            space, lie_derivative(X, comps, space.point_vars))))
        for X in coordinate_killing_vectors(space))
