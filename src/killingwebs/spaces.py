"""The two flat 2-spaces and their Killing tensor vector spaces.

Houses the metric data, the general valence-1 and valence-2 Killing tensor
forms in (pseudo-)Cartesian coordinates, the dimension formula for Killing
tensor spaces in constant-curvature spaces, the Killing-equation and
Poisson-bracket residuals, and the eigenvalue discriminant that gates web
generation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .poly import MultiPoly, PolynomialError, Q, parse_rational, poly, var

Coeff = Union[int, Fraction, MultiPoly]


class DomainError(ValueError):
    """Raised when an operation is called outside its stated domain."""


class Space(NamedTuple):
    kind: str                      # "euclidean" | "minkowski"
    metric_diag: tuple[Fraction, Fraction]   # contravariant = covariant here
    point_vars: tuple[str, str]
    param_vars: tuple[str, ...]    # the six valence-2 parameter symbols

    def __str__(self) -> str:
        return self.kind

    @property
    def eps(self) -> int:
        """The signature g11: +1 on the Euclidean, -1 on the Minkowski plane."""
        return self.metric_diag[1].numerator


EUCLIDEAN = Space(
    kind="euclidean",
    metric_diag=(Q(1), Q(1)),
    point_vars=("x", "y"),
    param_vars=("beta1", "beta2", "beta3", "beta4", "beta5", "beta6"),
)

MINKOWSKI = Space(
    kind="minkowski",
    metric_diag=(Q(1), Q(-1)),
    point_vars=("t", "x"),
    param_vars=("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6"),
)

SPACES = {"euclidean": EUCLIDEAN, "minkowski": MINKOWSKI}


def space_by_name(name: str) -> Space:
    try:
        return SPACES[name.lower()]
    except KeyError:
        raise DomainError(f"unknown space {name!r}") from None


def parse_values(text: str, count: int) -> tuple[Fraction, ...]:
    """Exactly `count` comma-separated rationals."""
    parts = text.split(",")
    if len(parts) != count:
        raise PolynomialError(
            f"expected {count} comma-separated rationals, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


def fraction_tuple(values: Iterable) -> tuple[Fraction, ...]:
    """The values as Fractions, keeping those that already are."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


# The three Killing vector parameter symbols, in both spaces.
KV_PARAM_VARS = ("alpha1", "alpha2", "alpha3")

# The fields of a parameter vector.
_VECTOR = [("space", Space), ("values", tuple[Fraction, ...])]


class KTParams(NamedTuple("KTParams", _VECTOR)):
    """A valence-2 Killing tensor as its six parameters."""
    __slots__ = ()

    def __new__(cls, space: Space, values: Sequence):
        if len(values) != 6:
            raise PolynomialError("KTParams needs exactly 6 values")
        return super().__new__(cls, space, fraction_tuple(values))

    @staticmethod
    def parse(space: Space, text: str) -> "KTParams":
        return KTParams(space, parse_values(text, 6))

    def scale(self, factor: Fraction) -> "KTParams":
        return KTParams(self.space, tuple(factor * v for v in self.values))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


class KVParams(NamedTuple("KVParams", _VECTOR)):
    """A Killing vector: Euclidean (2.25)-style parameters, or coefficients
    on the translation/translation/hyperbolic-rotation basis for Minkowski."""
    __slots__ = ()

    def __new__(cls, space: Space, values: Sequence):
        if len(values) != 3:
            raise PolynomialError("KVParams needs exactly 3 values")
        return super().__new__(cls, space, fraction_tuple(values))

    @staticmethod
    def parse(space: Space, text: str) -> "KVParams":
        return KVParams(space, parse_values(text, 3))


class NontrivialKT(NamedTuple("NontrivialKT", _VECTOR)):
    """Element of the 5-dimensional trace-adjusted (non-metric) subspace,
    with values (prime1, p3, p4, p5, p6)."""
    __slots__ = ()

    def __new__(cls, space: Space, values: Sequence):
        if len(values) != 5:
            raise PolynomialError("NontrivialKT needs exactly 5 values")
        return super().__new__(cls, space, fraction_tuple(values))

    @staticmethod
    def parse(space: Space, text: str) -> "NontrivialKT":
        return NontrivialKT(space, parse_values(text, 5))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


class TensorField(NamedTuple):
    """Symmetric contravariant 2-tensor field with polynomial components.

    Components are stored as (K^00, K^01, K^11) in the space's coordinate
    order; symmetry is structural.
    """
    space: Space
    components: tuple[MultiPoly, MultiPoly, MultiPoly]


def dtt_dimension(n: int, p: int) -> int:
    """Dimension of the space of valence-p Killing tensors in an
    n-dimensional space of constant curvature."""
    if n < 1 or p < 1:
        raise DomainError("dtt_dimension requires n >= 1 and p >= 1")
    return math.comb(n + p, p + 1) * math.comb(n + p - 1, p) // n


def metric_params(space: Space) -> KTParams:
    """The metric itself as a parameter vector (the trivial Killing tensor)."""
    g0, g1 = space.metric_diag
    return KTParams(space, (g0, g1, Q(0), Q(0), Q(0), Q(0)))


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
    k00, k01, k11 = components
    u, w = space.point_vars
    c00 = k00.coefficients_in([u, w])
    c01 = k01.coefficients_in([u, w])
    c11 = k11.coefficients_in([u, w])
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
    w0, w1 = components
    u, w = space.point_vars
    c0 = w0.coefficients_in([u, w])
    zero = MultiPoly.zero()
    v1 = c0.get((0, 0), zero)
    v3 = c0.get((0, 1), zero)
    v2 = w1.coefficients_in([u, w]).get((0, 0), zero)
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
    momenta = [p1, p2]
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


def embed_nontrivial(nt: NontrivialKT) -> KTParams:
    """Embed a 5-parameter nontrivial element with zero trace slot."""
    p1, p3, p4, p5, p6 = nt.values
    return KTParams(nt.space, (p1, Q(0), p3, p4, p5, p6))


def decompose(p: KTParams) -> tuple[Fraction, NontrivialKT]:
    """Split into a metric multiple and a nontrivial part; the inverse of
    l0 * metric + embed(nt)."""
    v = p.values
    l0 = v[1] * p.space.eps
    return l0, NontrivialKT(p.space, (v[0] - l0, v[2], v[3], v[4], v[5]))


def reconstruct(l0: Fraction, nt: NontrivialKT) -> KTParams:
    g = metric_params(nt.space)
    base = embed_nontrivial(nt)
    return KTParams(nt.space,
                    tuple(l0 * gv + bv for gv, bv in zip(g.values, base.values)))
