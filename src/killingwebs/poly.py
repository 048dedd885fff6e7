"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a dict mapping monomial keys to nonzero coefficients, an
int when integral and a Fraction otherwise.  A key is one int that packs
the exponents of the fixed symbol universe `SYMBOLS` at fixed offsets,
the first symbol in the most significant field.
Each field holds 7 exponent bits and a guard bit, so a monomial product is
one integer addition, and an exponent past 127 sets a guard bit.
Everything downstream (tensor components, group actions, invariants) is built
on this representation; no floating point enters unless the caller evaluates
a polynomial at a float assignment.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, or_

# Re-exported: the exact layer has these from `spaces`, without this module.
from .spaces import PolynomialError, common_numerators, parse_rational

# Every symbol a polynomial may mention.  Parameter symbols come first, then
# point coordinates, group-element coordinates (c, s are the rotation/boost
# matrix entries, a, b the translation) and the momenta used by the
# Poisson-bracket check.
SYMBOLS = (
    "alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6",
    "beta1", "beta2", "beta3", "beta4", "beta5", "beta6",
    "t", "x", "y",
    "a", "b", "c", "s",
    "p1", "p2",
)
MAX_EXPONENT = 127
# The bit offset of each symbol's 8-bit field, and the guard bit of every
# field.
_SHIFT = {name: 8 * (len(SYMBOLS) - 1 - i) for i, name in enumerate(SYMBOLS)}
_GUARD = sum(MAX_EXPONENT + 1 << shift for shift in _SHIFT.values())

Scalar = int | Fraction


def _canonical(coeff: Scalar) -> Scalar:
    """An integral coefficient as an int, any other as a Fraction."""
    return coeff.numerator if coeff.denominator == 1 else coeff


def _shift(name: str) -> int:
    if name not in _SHIFT:
        raise PolynomialError(f"unknown symbol {name!r}")
    return _SHIFT[name]


def _exponents(key: int) -> bytes:
    """The exponent of every symbol in the key, in `SYMBOLS` order."""
    return key.to_bytes(len(SYMBOLS), "big")


def pack(variables: Sequence[str], exps: Sequence[int]) -> int:
    """The key of the monomial with exponents `exps` of `variables`."""
    if len(exps) != len(variables):
        raise PolynomialError("exponent vector length mismatch")
    if not all(0 <= e <= MAX_EXPONENT for e in exps):
        raise PolynomialError(f"exponent outside 0..{MAX_EXPONENT}")
    return sum(e << _shift(v) for v, e in zip(variables, exps))


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, variables: Iterable[str],
                 terms: Mapping[tuple[int, ...], Scalar]):
        """From coefficients keyed by exponent tuples over `variables`."""
        variables = tuple(variables)
        if len(set(map(_shift, variables))) != len(variables):
            raise PolynomialError("duplicate variable")
        clean: dict[int, Scalar] = {}
        for exps, coeff in terms.items():
            q = _canonical(Fraction(coeff))
            key = pack(variables, exps)
            if q:
                clean[key] = q
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _of(cls, terms: dict[int, Scalar]) -> "MultiPoly":
        """Wrap a dict of nonzero canonical coefficients by packed key."""
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        # The default would restore the slot through __setattr__.
        return MultiPoly._of, (self._terms,)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: Scalar) -> "MultiPoly":
        q = _canonical(Fraction(value))
        return MultiPoly._of({0: q} if q else {})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly._of({1 << _shift(name): 1})

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly._of({})

    # -- structure ----------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        """The symbols that occur, in `SYMBOLS` order."""
        used = _exponents(reduce(or_, self._terms, 0))
        return tuple(v for v, e in zip(SYMBOLS, used) if e)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return self._terms.keys() <= {0}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PolynomialError("not a constant polynomial")
        return Fraction(self._terms.get(0, 0))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        out = dict(self._terms)
        for key, coeff in _coerce(other)._terms.items():
            if key in out:
                coeff = _canonical(coeff + out[key])
                if not coeff:
                    del out[key]
                    continue
            out[key] = coeff
        return MultiPoly._of(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        other = _coerce(other)._terms
        out: dict[int, Scalar] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other.items():
                key = ka + kb
                out[key] = out[key] + ca * cb if key in out else ca * cb
        if reduce(or_, out, 0) & _GUARD:
            raise PolynomialError(f"exponent above {MAX_EXPONENT}")
        return MultiPoly._of({k: _canonical(c) for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise PolynomialError("negative power")
        if exponent == 0:
            return MultiPoly.constant(1)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return self._terms == _coerce(other)._terms

    def __hash__(self):
        # Equal to an int or Fraction means equal hashes too.
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self._terms.items()))

    # -- calculus and substitution ------------------------------------------

    def diff(self, var: str) -> "MultiPoly":
        shift = _shift(var)
        out: dict[int, Scalar] = {}
        for key, coeff in self._terms.items():
            e = key >> shift & MAX_EXPONENT
            if e:
                out[key - (1 << shift)] = _canonical(coeff * e)
        return MultiPoly._of(out)

    def _fields(self) -> list[tuple[str, int]]:
        return [(v, _SHIFT[v]) for v in self.variables]

    def subst(self, bindings: Mapping[str, MultiPoly | Scalar]) -> "MultiPoly":
        """Substitute polynomials for variables; unbound variables pass through."""
        resolved = {name: _coerce(value) for name, value in bindings.items()}
        fields = self._fields()
        result = MultiPoly.zero()
        for key, coeff in self._terms.items():
            term = MultiPoly._of({0: coeff})
            for v, shift in fields:
                e = key >> shift & MAX_EXPONENT
                if e:
                    factor = resolved[v] if v in resolved else var(v)
                    term = term * factor ** e
            result = result + term
        return result

    def evaluate(self, assignment: Mapping[str, Scalar | float]):
        """Evaluate at a full assignment of the used variables: a float,
        summed in term order, if a value is a float, else a Fraction, built
        once from the integer terms over one common denominator."""
        fields = self._fields()
        for v, _ in fields:
            if v not in assignment:
                raise PolynomialError(f"unbound variable {v!r} in evaluation")
        values = [assignment[v] for v, _ in fields]
        exact = not any(isinstance(v, float) for v in assignment.values())
        nums, den = common_numerators(values) if exact else (values, 1)
        terms = []                  # (numerator, denominator, degree)
        for key, coeff in self._terms.items():
            term, degree = coeff.numerator if exact else float(coeff), 0
            for n, (_, shift) in zip(nums, fields):
                e = key >> shift & MAX_EXPONENT
                if e:
                    term *= n ** e
                    degree += e
            terms.append((term, coeff.denominator, degree))
        if not exact:
            return reduce(add, [n for n, _, _ in terms], 0.0)
        top = max([k for _, _, k in terms], default=0)
        lcd = lcm(*[q for _, q, _ in terms])
        return Fraction(sum(n * (lcd // q) * den ** (top - k)
                            for n, q, k in terms), lcd * den ** top)

    def coefficients_in(self, variables: Sequence[str]) -> dict[tuple[int, ...], "MultiPoly"]:
        """Collect coefficients with respect to a subset of the variables.

        Returns a map from exponent vectors over `variables` to polynomials in
        the remaining symbols.
        """
        shifts = [_shift(v) for v in variables]
        rest = ~sum(MAX_EXPONENT << shift for shift in shifts)
        buckets: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for key, coeff in self._terms.items():
            exps = tuple(key >> shift & MAX_EXPONENT for shift in shifts)
            buckets.setdefault(exps, {})[key & rest] = coeff
        return {exps: MultiPoly._of(terms) for exps, terms in buckets.items()}

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"MultiPoly({self.pretty()!r})"

    def pretty(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        # Highest total degree first, then by exponents in `SYMBOLS` order,
        # highest first: descending keys.
        for key, coeff in sorted(self._terms.items(), key=lambda item: (
                -sum(_exponents(item[0])), -item[0])):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in
                            zip(SYMBOLS, _exponents(key)) if e)
            if not mono:
                text = str(coeff)
            elif coeff == 1:
                text = mono
            elif coeff == -1:
                text = f"-{mono}"
            else:
                text = f"{coeff}*{mono}"
            parts.append(text)
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def _coerce(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiPoly.constant(value)
    raise PolynomialError(f"cannot coerce {value!r} to a polynomial")


# The constant and the variable polynomials, as functions.
poly, var = MultiPoly.constant, MultiPoly.variable
