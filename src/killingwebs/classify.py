"""The web classifier: one cell per input, one table row per cell.

The cell is read off the integer numerators v1..v6 of the input.  On the
Euclidean plane it is the root type of the focal polynomial
h(z) = -v6 z^2 - 2 (v5 + i v4) z + (v1 - v2 + 2 i v3), whose roots are the
foci of the web; the eigenvalue discriminant is |h(x + i y)|^2.  On the
Minkowski plane it is the pair of root types of the null-coordinate
factors of the discriminant, disc = f(t - x) g(t + x), with
f(s) = v6 s^2 + 2 (v5 - v4) s + (v1 + v2 - 2 v3) and
g(s) = v6 s^2 + 2 (v5 + v4) s + (v1 + v2 + 2 v3).  `_CELLS` maps each cell
to its class, its eigenvalue verdict and its caveats.  The two published
ambiguities (EC5 vs EC10, EC6 vs EC8) are reported as merged tags; the
cells where no web exists, and the one cell no tabulated row covers, get
typed results.  The paper's decision trees over I1, I3, the covariant sign
classes and I2' are the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .invariants import InvariantReport, invariant_report
from .spaces import DomainError, KTParams, NontrivialKT, embed_nontrivial

class WebClass(NamedTuple):
    tag: str


class ClassificationReport(NamedTuple):
    params: KTParams
    l0: Fraction
    invariants: InvariantReport
    web: Optional[WebClass]        # None for trivial (metric-multiple) input
    eigen_precondition: str
    caveats: tuple[str, ...]

    def to_json_dict(self) -> dict:
        blocks = self.invariants.to_json_dict()
        return {
            "space": self.params.space.kind,
            "input": [str(v) for v in self.params.values],
            "l0": str(self.l0),
            "invariants": blocks.pop("invariants"),
            "sign_classes": blocks.pop("sign_classes"),
            "class": self.web.tag if self.web else "trivial",
            "caveats": list(self.caveats),
            "eigen_precondition": self.eigen_precondition,
            **blocks,                   # "auxiliary" on the Minkowski plane
        }


def _root_type(a: int, b: int, c: int) -> str:
    """The real roots of a s^2 + 2 b s + c: "two", "double" or "none" for a
    quadratic, else "linear", "const" (a nonzero constant) or "zero"."""
    if a:
        d = b * b - a * c
        return "two" if d > 0 else "none" if d < 0 else "double"
    return "linear" if b else "const" if c else "zero"


def _cell(inv: InvariantReport) -> str | tuple[str, ...]:
    """The root type of h (Euclidean), or the sorted root types of f and g
    (Minkowski), with the sign pattern of two nonzero constants."""
    v1, v2, v3, v4, v5, v6 = inv.numerators
    if inv.aux is None:                 # only Minkowski reports have I1', I2'
        if v6:                          # I1 = |quarter discriminant of h|^2
            return "two" if inv.i1.numerator else "double"
        return "linear" if v4 or v5 else "const" if v1 != v2 or v3 else "zero"
    f0, g0 = v1 + v2 - 2 * v3, v1 + v2 + 2 * v3
    cell = tuple(sorted((_root_type(v6, v5 - v4, f0),
                         _root_type(v6, v5 + v4, g0))))
    if cell == ("const", "const"):
        return cell + ("same" if (f0 > 0) == (g0 > 0) else "opposite",)
    return cell


_TRIVIAL = ("trivial (multiple of metric), no web",)

# cell -> (class tag, or None for a multiple of the metric; the sign of the
# eigenvalue discriminant over the plane: "complex" if negative somewhere,
# else "degenerate" if zero somewhere, else "satisfied"; the row's caveats).
# f and g share the leading coefficient v6, so both are quadratics or
# neither is.  Where the paper's EC1 row has no real web (constants of
# opposite signs: disc < 0 everywhere) or repeated eigenvalues everywhere
# (a zero factor: disc = 0), the tag says so.  On (double, none), which no
# tabulated row covers, disc = f g is nowhere negative and vanishes only on
# the null line of the double root, as on EC7's (double, two) but without
# a sign change: "degenerate".
_CELLS = {
    "zero": (None, "degenerate", _TRIVIAL),
    "const": ("Cartesian", "satisfied", ()),
    "linear": ("Parabolic", "degenerate", ()),
    "double": ("Polar", "degenerate", ()),
    "two": ("EllipticHyperbolic", "degenerate", ()),
    ("two", "two"): ("EC5_or_EC10", "complex", (
        "EC5 and EC10 share all tabulated values; they cover disjoint "
        "regions of the same plane",)),
    ("none", "two"): ("EC6_or_EC8", "complex", ()),
    ("double", "two"): ("EC7", "complex", ()),
    ("double", "none"): ("outside_tables", "degenerate", (
        "one null-coordinate factor has a double root and the other no real "
        "root (I1 = 0, C2 negative): no tabulated row covers this cell",)),
    ("none", "none"): ("EC9", "satisfied", ()),
    ("double", "double"): ("EC2", "degenerate", ()),
    ("linear", "linear"): ("EC4", "complex", ()),
    ("const", "linear"): ("EC3", "complex", ()),
    ("const", "const", "same"): ("EC1", "satisfied", ()),
    ("const", "const", "opposite"): ("no_real_web", "complex", ()),
    ("const", "zero"): ("no_web_repeated_eigenvalue", "degenerate", ()),
    ("linear", "zero"): ("no_web_repeated_eigenvalue", "degenerate", ()),
    ("zero", "zero"): (None, "degenerate", _TRIVIAL),
}


_NEGATED = ("parameters negated to normalize I3 > 0",)
_COMPLEX = ("eigenvalues complex on an open region of the plane; the "
            "tensor does not generate a web there",)

# cell -> [its row, its row for a Minkowski input with I3 < 0], each (class,
# verdict, caveats, the report's caveats: those and `_COMPLEX` on a complex
# verdict).  K and -K generate the same web and share their cell; the
# tables are written for the representative with I3 > 0.
_ROWS = {cell: [(None if tag is None else WebClass(tag), verdict, row,
                 row + (_COMPLEX if verdict == "complex" else ()))
                for row in (caveats, _NEGATED + caveats)]
         for cell, (tag, verdict, caveats) in _CELLS.items()}


def _row(inv: InvariantReport):
    """The row of the input's cell; I3 = v6 / d takes the sign of v6."""
    return _ROWS[_cell(inv)][inv.aux is not None and inv.numerators[5] < 0]


def _checked_input(nt: NontrivialKT, kind: str) -> KTParams:
    if nt.space.kind != kind:
        raise DomainError(f"classify_{kind} expects a {kind.capitalize()} input")
    if nt.is_zero():
        raise DomainError("cannot classify the zero tensor")
    return embed_nontrivial(nt)


def classify_euclidean(nt: NontrivialKT) -> WebClass:
    return _row(invariant_report(_checked_input(nt, "euclidean")))[0]


def classify_minkowski(nt: NontrivialKT) -> tuple[WebClass, tuple[str, ...]]:
    """The class and the row's caveats."""
    web, _, caveats, _ = _row(invariant_report(_checked_input(nt, "minkowski")))
    return web, caveats


def _eigen_precondition(inv: InvariantReport) -> str:
    """The verdict of the input's cell: the sign of the eigenvalue
    discriminant over the whole plane."""
    return _CELLS[_cell(inv)][1]


def classify_full(p: KTParams) -> ClassificationReport:
    """The two-step procedure: strip the metric multiple, then classify.
    l0 = eps v2, and the input is trivial iff its cell is a zero cell."""
    inv = invariant_report(p)
    web, verdict, _, caveats = _row(inv)
    l0 = p.values[1] if inv.aux is None else -p.values[1]
    return ClassificationReport(p, l0, inv, web, verdict, caveats)
