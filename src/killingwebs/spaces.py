"""The two flat 2-spaces and their Killing tensor vector spaces.

Houses the metric data, the parameter vectors, the command line's text
formats (rationals in, reports out), the dimension formula for Killing
tensor spaces in constant-curvature spaces and the trace decomposition.
The tensor forms as polynomials, the Killing-equation and Poisson-bracket
residuals and the eigenvalue discriminant live in `symbolic`; this module
serves only `eigen_discriminant` and `extract_kt_params`, which the
benchmark reaches through it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import comb, lcm

from . import _forward


class PolynomialError(ValueError):
    pass


# A signed "p/q", "p" or decimal, matched here: Fraction's grammar grows
# with the Python release (3.11 reads "1_0", 3.12 "1 / 2").  The exponent
# form matches with group "exp" and is refused: Fraction builds 10**exp.
_LITERAL = re.compile(
    r"\s*[-+]?(?:\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?P<exp>[eE][-+]?\d+)?)\s*")


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q", "p" or decimal literal used on every I/O boundary."""
    match = _LITERAL.fullmatch(text)
    if match is None or match["exp"]:
        why = ": no exponents" if match else ""
        raise PolynomialError(f"bad rational literal {text!r}{why}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise PolynomialError(f"bad rational literal {text!r}") from exc


def common_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as numerators n_i over the lcm d of their denominators.
    A form homogeneous of degree k takes d^k times its value at the n_i,
    and d > 0 keeps every sign."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*[q for _, q in ratios])
    return [n * (den // q) for n, q in ratios], den


class DomainError(ValueError):
    """Raised when an operation is called outside its stated domain."""


class Space(namedtuple("Space", "kind metric_diag point_vars param_vars")):
    """kind: str, "euclidean" | "minkowski"; metric_diag:
    tuple[Fraction, Fraction], contravariant = covariant here; point_vars:
    tuple[str, str]; param_vars: tuple[str, ...], the six valence-2
    parameter symbols."""
    __slots__ = ()

    def __str__(self) -> str:
        return self.kind

    def __hash__(self) -> int:
        # Agrees with ==, and the per-space caches skip hashing two Fractions.
        return hash(self.kind)

    @property
    def eps(self) -> int:
        """The signature g11: +1 on the Euclidean, -1 on the Minkowski plane."""
        return self.metric_diag[1].numerator


EUCLIDEAN = Space(
    kind="euclidean",
    metric_diag=(Fraction(1), Fraction(1)),
    point_vars=("x", "y"),
    param_vars=("beta1", "beta2", "beta3", "beta4", "beta5", "beta6"),
)

MINKOWSKI = Space(
    kind="minkowski",
    metric_diag=(Fraction(1), Fraction(-1)),
    point_vars=("t", "x"),
    param_vars=("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6"),
)

SPACES = {"euclidean": EUCLIDEAN, "minkowski": MINKOWSKI}


def space_by_name(name: str) -> Space:
    try:
        return SPACES[name.lower()]
    except KeyError:
        raise DomainError(f"unknown space {name!r}") from None


def parse_values(parts: Sequence[str], count: int) -> tuple[Fraction, ...]:
    """Exactly `count` rationals, one literal per part: the text between
    commas, or a batch list's element."""
    if len(parts) != count:
        raise PolynomialError(
            f"expected {count} comma-separated rationals, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


def _emit(args, data, text_lines: list[str]) -> None:
    """Print `data` as one JSON line under `--output json`, else the lines."""
    if args.output == "json":
        import json     # the CLI has loaded it; the library never does
        print(json.dumps(data))
    else:
        for line in text_lines:
            print(line)


# The three Killing vector parameter symbols, in both spaces.
KV_PARAM_VARS = ("alpha1", "alpha2", "alpha3")


class _ParamVector(namedtuple("_ParamVector", "space values")):
    """Exactly `size` rational parameters, coerced to Fractions; a value
    that already is one is kept.  space: Space; values:
    tuple[Fraction, ...]."""
    __slots__ = ()
    size = 0

    def __new__(cls, space: Space, values: Sequence):
        if len(values) != cls.size:
            raise PolynomialError(
                f"{cls.__name__} needs exactly {cls.size} values")
        return super().__new__(cls, space, tuple(
            v if type(v) is Fraction else Fraction(v) for v in values))

    @classmethod
    def parse(cls, space: Space, text: str):
        return cls(space, parse_values(text.split(","), cls.size))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


class KTParams(_ParamVector):
    """A valence-2 Killing tensor as its six parameters."""
    __slots__ = ()
    size = 6

    def scale(self, factor: Fraction) -> "KTParams":
        return KTParams(self.space, tuple(factor * v for v in self.values))


class KVParams(_ParamVector):
    """A Killing vector: Euclidean (2.25)-style parameters, or coefficients
    on the translation/translation/hyperbolic-rotation basis for Minkowski."""
    __slots__ = ()
    size = 3


class NontrivialKT(_ParamVector):
    """Element of the 5-dimensional trace-adjusted (non-metric) subspace,
    with values (prime1, p3, p4, p5, p6)."""
    __slots__ = ()
    size = 5


def dtt_dimension(n: int, p: int) -> int:
    """Dimension of the space of valence-p Killing tensors in an
    n-dimensional space of constant curvature."""
    if n < 1 or p < 1:
        raise DomainError("dtt_dimension requires n >= 1 and p >= 1")
    return comb(n + p, p + 1) * comb(n + p - 1, p) // n


def metric_params(space: Space) -> KTParams:
    """The metric itself as a parameter vector (the trivial Killing tensor)."""
    g0, g1 = space.metric_diag
    return KTParams(space, (g0, g1, 0, 0, 0, 0))


def embed_nontrivial(nt: NontrivialKT) -> KTParams:
    """Embed a 5-parameter nontrivial element with zero trace slot."""
    p1, p3, p4, p5, p6 = nt.values
    return KTParams(nt.space, (p1, Fraction(0), p3, p4, p5, p6))


def decompose(p: KTParams) -> tuple[Fraction, NontrivialKT]:
    """Split into a metric multiple and a nontrivial part; the inverse of
    l0 * metric + embed(nt)."""
    v = p.values
    l0 = v[1] * p.space.eps
    return l0, NontrivialKT(p.space, (v[0] - l0, v[2], v[3], v[4], v[5]))


def reconstruct(l0: Fraction, nt: NontrivialKT) -> KTParams:
    """l0 * metric + embed(nt)."""
    g0, g1 = nt.space.metric_diag
    p1, p3, p4, p5, p6 = nt.values
    return KTParams(nt.space, (l0 * g0 + p1, l0 * g1, p3, p4, p5, p6))


__getattr__ = _forward(__name__,
                       symbolic="eigen_discriminant extract_kt_params")
