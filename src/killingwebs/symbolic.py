"""The symbolic layer: Killing tensors and vectors as polynomial fields,
their residuals, the eigenvalue discriminant, the invariants and covariants
as polynomials, and the joint invariants: closed forms evaluated on
integers, and as polynomials.  Verification and the other subcommands use
it; classification does not.  `spaces`, `invariants` and the package serve
a few of its names too."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

from .invariants import (_invariants, _numerators, _quad_cross,
                         _scaled_invariants)
from .poly import MultiPoly, Q, _canonical, pack, poly, var
from .signs import MONOMIALS
from .spaces import (EUCLIDEAN, KV_PARAM_VARS, DomainError, KTParams,
                     KVParams, PolynomialError, Space, common_numerators)

Coeff = Union[int, Fraction, MultiPoly]


class TensorField(NamedTuple):
    """Symmetric contravariant 2-tensor field with polynomial components.

    Components are stored as (K^00, K^01, K^11) in the space's coordinate
    order; symmetry is structural.
    """
    space: Space
    components: tuple[MultiPoly, MultiPoly, MultiPoly]


def kt_components(space: Space, values: Sequence[Coeff]
                  ) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Components of the general valence-2 Killing tensor for the given
    parameter values (rationals or symbolic polynomials)."""
    if len(values) != 6:
        raise PolynomialError("need 6 parameter values")
    v1, v2, v3, v4, v5, v6 = [v if isinstance(v, MultiPoly) else poly(v)
                              for v in values]
    u, w = (var(s) for s in space.point_vars)
    k00 = v1 + 2 * v4 * w + v6 * w * w
    k01 = v3 - space.eps * (v4 * u + v5 * w + v6 * u * w)
    k11 = v2 + 2 * v5 * u + v6 * u * u
    return (k00, k01, k11)


def general_killing_tensor(params: KTParams) -> TensorField:
    return TensorField(params.space, kt_components(params.space, params.values))


def symbolic_killing_tensor(space: Space) -> TensorField:
    """General form with the six parameters left symbolic."""
    return TensorField(space, kt_components(
        space, [var(s) for s in space.param_vars]))


def kv_components(space: Space, values: Sequence[Coeff]
                  ) -> tuple[MultiPoly, MultiPoly]:
    """Components of the general Killing vector: v1 and v2 on the two
    translations, v3 on the rotation (Euclidean) or boost (Minkowski)."""
    if len(values) != 3:
        raise PolynomialError("need 3 parameter values")
    v1, v2, v3 = [v if isinstance(v, MultiPoly) else poly(v) for v in values]
    u, w = (var(s) for s in space.point_vars)
    return (v1 + v3 * w, v2 - space.eps * v3 * u)


def extract_kt_params(space: Space, components: Sequence[MultiPoly]
                      ) -> list[MultiPoly]:
    """Recover the six parameters from tensor components.

    Works for numeric and symbolic coefficients alike.  Raises DomainError
    if the components do not fit the general Killing tensor pattern (the
    residue is reported); callers treat that as an internal error.
    """
    c00, c01, c11 = (k.coefficients_in(space.point_vars) for k in components)
    zero = MultiPoly.zero()
    v1 = c00.get((0, 0), zero)
    v2 = c11.get((0, 0), zero)
    v3 = c01.get((0, 0), zero)
    v4 = Q(1, 2) * c00.get((0, 1), zero)
    v5 = Q(1, 2) * c11.get((1, 0), zero)
    v6 = c00.get((0, 2), zero)
    rebuilt = kt_components(space, [v1, v2, v3, v4, v5, v6])
    residues = [a - b for a, b in zip(components, rebuilt)]
    if any(not r.is_zero() for r in residues):
        raise DomainError(
            "components do not fit the Killing tensor pattern; residue "
            + "; ".join(r.pretty() for r in residues if not r.is_zero()))
    return [v1, v2, v3, v4, v5, v6]


def extract_kv_params(space: Space, components: Sequence[MultiPoly]
                      ) -> list[MultiPoly]:
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


def lower_indices(field: TensorField) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Covariant components K_ij = g_ia g_jb K^ab (diagonal metric)."""
    g0, g1 = field.space.metric_diag
    k00, k01, k11 = field.components
    return (g0 * g0 * k00, g0 * g1 * k01, g1 * g1 * k11)


def killing_residual(field: TensorField
                     ) -> tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]:
    """Fully symmetrized gradient of the covariant components.

    In flat Cartesian coordinates the Killing tensor equation reduces to the
    vanishing of d_(i K_jk).  A symmetric 3-index tensor in two dimensions
    has four independent components, returned in index order
    (111), (112), (122), (222); the field is a Killing tensor iff all four
    are identically zero.
    """
    u, w = field.space.point_vars
    K = {}
    K[(0, 0)], K[(0, 1)], K[(1, 1)] = lower_indices(field)
    K[(1, 0)] = K[(0, 1)]
    d = {0: u, 1: w}

    def sym(i: int, j: int, k: int) -> MultiPoly:
        return (K[(j, k)].diff(d[i]) + K[(i, k)].diff(d[j])
                + K[(i, j)].diff(d[k]))

    return (sym(0, 0, 0), sym(0, 0, 1), sym(0, 1, 1), sym(1, 1, 1))


def geodesic_poisson_check(field: TensorField) -> MultiPoly:
    """Canonical Poisson bracket of the geodesic Hamiltonian with the
    quadratic momentum function built from the field.

    Zero iff the quadratic function is a first integral of geodesic flow,
    which is the Killing tensor condition.
    """
    g0, g1 = field.space.metric_diag
    p1, p2 = var("p1"), var("p2")
    k00, k01, k11 = field.components
    H = g0 * p1 * p1 + g1 * p2 * p2
    F = k00 * p1 * p1 + 2 * k01 * p1 * p2 + k11 * p2 * p2
    coords = field.space.point_vars
    bracket = MultiPoly.zero()
    for i in range(2):
        # H has constant coefficients, so the dH/dq half of the canonical
        # bracket drops.
        bracket = bracket - H.diff(f"p{i+1}") * F.diff(coords[i])
    return bracket


def eigen_discriminant(params: KTParams) -> MultiPoly:
    """Discriminant of the characteristic polynomial of K g^{-1}.

    The tensor generates an orthogonal web on the open region where this is
    positive (real distinct eigenvalues).
    """
    return field_discriminant(general_killing_tensor(params))


def field_discriminant(field: TensorField) -> MultiPoly:
    """The eigenvalue discriminant of any tensor field, symbolic or not."""
    g0, g1 = field.space.metric_diag
    k00, k01, k11 = field.components
    trace = g0 * k00 + g1 * k11
    det = g0 * g1 * (k00 * k11 - k01 * k01)
    return trace * trace - 4 * det


# -- invariants and covariants as polynomials -------------------------------

def _symbols(space: Space):
    """eps, the parameter symbols, and quad and cross on them."""
    params = [var(v) for v in space.param_vars]
    return (space.eps, params, *_quad_cross(space.eps, *params))


@lru_cache(maxsize=None)
def invariant_polynomials(space: Space) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(I1, I2, I3) as polynomials in the six parameter symbols."""
    return _invariants(*_symbols(space))


def _covariant_rows(eps, p, quad, cross):
    """The coefficients of C1 and C2 at the point monomials `MONOMIALS`,
    homogeneous of degrees 2 and 4, given quad and cross at p.  With
    lu = p6 u + p5, lw = p6 w + p4: C1 = lu^2 + eps lw^2 and
    C2 = (lu^2 - eps lw^2) quad + 4 lu lw cross."""
    _, _, _, p4, p5, p6 = p
    sq, x4 = p6 * p6, 4 * cross
    return ((sq, 0, eps * sq, 2 * p6 * p5, 2 * eps * p6 * p4,
             p5 * p5 + eps * p4 * p4),
            (sq * quad, sq * x4, -eps * sq * quad,
             p6 * (2 * p5 * quad + p4 * x4),
             p6 * (p5 * x4 - 2 * eps * p4 * quad),
             (p5 * p5 - eps * p4 * p4) * quad + p4 * p5 * x4))


@lru_cache(maxsize=None)
def covariant_polynomials(space: Space) -> tuple[MultiPoly, MultiPoly]:
    """(C1, C2) as polynomials in parameters and the point coordinates."""
    u, w = (var(v) for v in space.point_vars)
    monomials = [u ** i * w ** j for i, j in MONOMIALS]
    rows = _covariant_rows(*_symbols(space))
    return tuple(sum((c * m for c, m in zip(row, monomials)), MultiPoly.zero())
                 for row in rows)


def fundamental_covariants(p: KTParams) -> tuple[MultiPoly, MultiPoly]:
    """C1, C2 with the parameters bound, as polynomials in the point vars."""
    eps, nums, d, quad, cross = _numerators(p)
    keys = [pack(p.space.point_vars, m) for m in MONOMIALS]
    return tuple(MultiPoly._of({key: _canonical(Fraction(n, d ** k))
                                for key, n in zip(keys, row) if n})
                 for row, k in zip(_covariant_rows(eps, nums, quad, cross),
                                   (2, 4)))


# -- joint invariants -------------------------------------------------------

def _joint_invariants(alpha, beta, d, x):
    """(J1, J2) of the Euclidean vector alpha and tensor beta, in any ring,
    homogeneous of degrees (2, 2) and (2, 4) in (alpha, beta), given
    d = quad and x = cross at beta.  The pairs (P, Q) and (D, 2X) turn
    with weights 1 and 2 under the rotation.  J2
    is the completion solved from the annihilation system; the tabulated
    form is corrupt at the source (the tests keep its readings)."""
    a1, a2, a3 = alpha
    _, _, _, b4, b5, b6 = beta
    p, q = b6 * a1 - b4 * a3, b6 * a2 + b5 * a3
    return p * p + q * q, (p * p - q * q) * d + 4 * p * q * x


def joint_invariants(kv: KVParams, kt: KTParams) -> tuple[Fraction, ...]:
    """(I1, I2, I3, I4, J1, J2): the tensor's invariants, the vector's
    rotation component alpha3 and the two joint ones, evaluated on the
    numerators of alpha over da and of beta over db."""
    if kv.space.kind != "euclidean" or kt.space.kind != "euclidean":
        raise DomainError("joint invariants are defined for the Euclidean plane")
    alpha, da = common_numerators(kv.values)
    _, beta, db, quad, cross = tensor = _numerators(kt)
    j1, j2 = _joint_invariants(alpha, beta, quad, cross)
    den = da * da * db * db
    return (*_scaled_invariants(kt, *tensor), kv.values[2],
            Fraction(j1, den), Fraction(j2, den * db * db))


@lru_cache(maxsize=None)
def joint_invariant_polynomials() -> tuple[MultiPoly, ...]:
    """(I1, I2, I3, I4, J1, J2) on the 9-symbol Euclidean product space."""
    alpha = [var(v) for v in KV_PARAM_VARS]
    return (*invariant_polynomials(EUCLIDEAN), alpha[2],
            *_joint_invariants(alpha, *_symbols(EUCLIDEAN)[1:]))
