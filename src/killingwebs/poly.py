"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a dict mapping exponent tuples to Fraction coefficients,
together with an ordered variable list drawn from a fixed symbol universe.
Everything downstream (tensor components, group actions, invariants) is built
on this representation; no floating point enters unless the caller evaluates
a polynomial at a float assignment.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

# Re-exported: the exact layer has these from `spaces`, without this module.
from .spaces import PolynomialError, common_numerators, parse_rational

Q = Fraction

# Every symbol a polynomial may mention.  Parameter symbols come first, then
# point coordinates, group-element coordinates (c, s are the rotation/boost
# matrix entries, a, b the translation), the canonical-form scale k2 and the
# momenta/positions used by the Poisson-bracket check.
SYMBOLS = (
    "alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6",
    "beta1", "beta2", "beta3", "beta4", "beta5", "beta6",
    "t", "x", "y",
    "a", "b", "c", "s",
    "k2",
    "p1", "p2", "q1", "q2",
)
_SYMBOL_INDEX = {name: i for i, name in enumerate(SYMBOLS)}

Scalar = Union[int, Fraction]


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _check_vars(variables: Iterable[str]) -> tuple[str, ...]:
    names = set(variables)
    unknown = sorted(names - _SYMBOL_INDEX.keys())
    if unknown:
        raise PolynomialError(f"unknown symbol {unknown[0]!r}")
    return tuple(sorted(names, key=_SYMBOL_INDEX.__getitem__))


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str],
                 terms: Mapping[tuple[int, ...], Scalar]):
        ordered = _check_vars(variables)
        if ordered != tuple(variables):
            raise PolynomialError("variable list must be sorted and duplicate-free")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            if len(exps) != len(ordered):
                raise PolynomialError("exponent vector length mismatch")
            q = coeff if type(coeff) is Fraction else Fraction(coeff)
            if q:
                clean[tuple(exps)] = q
        object.__setattr__(self, "variables", ordered)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, variables: tuple[str, ...],
                 terms: Mapping[tuple[int, ...], Fraction]) -> "MultiPoly":
        """Build from a sorted variable tuple and Fraction coefficients keyed
        by exponent tuples of matching length, as arithmetic produces them;
        only zero coefficients are dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms",
                           {e: c for e, c in terms.items() if c})
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: Scalar) -> "MultiPoly":
        q = Fraction(value)
        return MultiPoly((), {} if q == 0 else {(): q})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Fraction(1)})

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly((), {})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PolynomialError("not a constant polynomial")
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def total_degree(self, restrict: Sequence[str] | None = None) -> int:
        """Total degree, optionally counting only the given variables."""
        if not self.terms:
            return 0
        if restrict is None:
            idx = range(len(self.variables))
        else:
            idx = [i for i, v in enumerate(self.variables) if v in set(restrict)]
        return max(sum(exps[i] for i in idx) for exps in self.terms)

    def used_variables(self) -> tuple[str, ...]:
        used = set()
        for exps in self.terms:
            for v, e in zip(self.variables, exps):
                if e:
                    used.add(v)
        return tuple(sorted(used, key=_SYMBOL_INDEX.__getitem__))

    def on_variables(self, variables: Iterable[str]) -> "MultiPoly":
        """Reindex onto a (super)set of variables."""
        target = _check_vars(variables)
        if target == self.variables:
            return self
        for v in self.used_variables():
            if v not in target:
                raise PolynomialError(f"cannot drop used variable {v!r}")
        return self._reindexed(target)

    def _reindexed(self, target: tuple[str, ...]) -> "MultiPoly":
        # Only variables with a zero exponent in every term may be missing
        # from `target`, so distinct terms stay distinct.
        pos = [target.index(v) if v in target else -1 for v in self.variables]
        out = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(target)
            for i, e in zip(pos, exps):
                if e:
                    new[i] = e
            out[tuple(new)] = coeff
        return MultiPoly._trusted(target, out)

    # -- arithmetic ---------------------------------------------------------

    def _aligned(self, other: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        if self.variables == other.variables:
            return self, other
        merged = _check_vars(self.variables + other.variables)
        return self._reindexed(merged), other._reindexed(merged)

    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        p, q = self._aligned(other)
        out = dict(p.terms)
        for exps, coeff in q.terms.items():
            out[exps] = out[exps] + coeff if exps in out else coeff
        return MultiPoly._trusted(p.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.variables,
                                  {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        other = _coerce(other)
        p, q = self._aligned(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in p.terms.items():
            for eb, cb in q.terms.items():
                key = tuple(map(add, ea, eb))
                out[key] = out[key] + ca * cb if key in out else ca * cb
        return MultiPoly._trusted(p.variables, out)

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
        return (self - _coerce(other)).is_zero()

    def __hash__(self):
        # Equal to an int or Fraction means equal hashes too.
        if self.is_constant():
            return hash(self.constant_value())
        p = self.on_variables(self.used_variables())
        return hash((p.variables, frozenset(p.terms.items())))

    # -- calculus and substitution ------------------------------------------

    def diff(self, var: str) -> "MultiPoly":
        if var not in _SYMBOL_INDEX:
            raise PolynomialError(f"unknown symbol {var!r}")
        if var not in self.variables:
            return MultiPoly.zero()
        i = self.variables.index(var)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            out[tuple(new)] = coeff * exps[i]
        return MultiPoly._trusted(self.variables, out)

    def subst(self, bindings: Mapping[str, Union["MultiPoly", Scalar]]) -> "MultiPoly":
        """Substitute polynomials for variables; unbound variables pass through."""
        resolved = {name: _coerce(value) for name, value in bindings.items()}
        result = MultiPoly.zero()
        for exps, coeff in self.terms.items():
            term = MultiPoly.constant(coeff)
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                factor = resolved[v] if v in resolved else var(v)
                term = term * factor ** e
            result = result + term
        return result

    def evaluate(self, assignment: Mapping[str, Union[Scalar, float]]):
        """Evaluate at a full assignment of the used variables.

        Returns a Fraction when every value is exact, a float otherwise.
        """
        total = Fraction(0) if not any(
            isinstance(v, float) for v in assignment.values()) else 0.0
        for exps, coeff in self.terms.items():
            term = coeff if isinstance(total, Fraction) else float(coeff)
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                if v not in assignment:
                    raise PolynomialError(f"unbound variable {v!r} in evaluation")
                term *= assignment[v] ** e
            total += term
        return total

    def coefficients_in(self, variables: Sequence[str]) -> dict[tuple[int, ...], "MultiPoly"]:
        """Collect coefficients with respect to a subset of the variables.

        Returns a map from exponent vectors over `variables` to polynomials in
        the remaining symbols.
        """
        sel = list(variables)
        sel_idx = [self.variables.index(v) if v in self.variables else None
                   for v in sel]
        rest = tuple(v for v in self.variables if v not in set(sel))
        buckets: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        rest_idx = [i for i, v in enumerate(self.variables) if v not in set(sel)]
        for exps, coeff in self.terms.items():
            key = tuple(0 if i is None else exps[i] for i in sel_idx)
            rexps = tuple(exps[i] for i in rest_idx)
            buckets.setdefault(key, {})[rexps] = coeff
        return {key: MultiPoly(rest, terms) for key, terms in buckets.items()}

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"MultiPoly({self.pretty()!r})"

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        def key(item):
            exps, _ = item
            return (-sum(exps), tuple(-e for e in exps))
        parts = []
        for exps, coeff in sorted(self.terms.items(), key=key):
            monos = []
            for v, e in zip(self.variables, exps):
                if e == 1:
                    monos.append(v)
                elif e > 1:
                    monos.append(f"{v}^{e}")
            mono = "*".join(monos)
            if not mono:
                text = format_rational(coeff)
            elif coeff == 1:
                text = mono
            elif coeff == -1:
                text = f"-{mono}"
            else:
                text = f"{format_rational(coeff)}*{mono}"
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


def poly(value: Scalar) -> MultiPoly:
    return MultiPoly.constant(value)


def var(name: str) -> MultiPoly:
    return MultiPoly.variable(name)
