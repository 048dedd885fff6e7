"""The web classifier: one table row per cell.

`invariants._cell` decides the input's cell, the root types of the
factors of the eigenvalue discriminant, once per report, and
`invariants._CELLS` maps each cell to its class, its eigenvalue verdict
and its caveats.  The two published ambiguities (EC5 vs EC10, EC6 vs EC8)
are reported as merged tags; the cells where no web exists, and the one
cell no tabulated row covers, get typed results.  The paper's decision
trees over I1, I3, the covariant sign classes and I2' are the tests'
oracle.
"""

from __future__ import annotations

from collections import namedtuple

from .invariants import _CELLS, InvariantReport, invariant_report
from .spaces import DomainError, KTParams, NontrivialKT, embed_nontrivial

WebClass = namedtuple("WebClass", "tag")         # tag: str


class ClassificationReport(namedtuple(
        "ClassificationReport",
        "params l0 invariants web eigen_precondition caveats")):
    """params: KTParams; l0: Fraction; invariants: InvariantReport; web:
    WebClass | None, None for trivial (metric-multiple) input;
    eigen_precondition: str; caveats: tuple[str, ...]."""
    __slots__ = ()

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


_NEGATED = ("parameters negated to normalize I3 > 0",)
_COMPLEX = ("eigenvalues complex on an open region of the plane; the "
            "tensor does not generate a web there",)

# cell -> [its row, its row for an input with I3 < 0], each (class,
# verdict, caveats, the report's caveats: those and `_COMPLEX` on a complex
# verdict).  K and -K share their cell; the Minkowski tables are written
# for I3 > 0, and on the Euclidean plane (str cells) both rows are one.
_ROWS = {cell: [(None if tag is None else WebClass(tag), verdict, row,
                 row + (_COMPLEX if verdict == "complex" else ()))
                for row in (caveats, caveats if type(cell) is str
                            else _NEGATED + caveats)]
         for cell, (_, _, tag, verdict, caveats) in _CELLS.items()}


def _row(inv: InvariantReport):
    """The row of the input's cell; I3 = v6 / d takes the sign of v6."""
    return _ROWS[inv.cell][inv.numerators[5] < 0]


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
    return _row(inv)[1]


def classify_full(p: KTParams) -> ClassificationReport:
    """The two-step procedure: strip the metric multiple, then classify.
    l0 = eps v2, and the input is trivial iff its cell is a zero cell."""
    inv = invariant_report(p)
    web, verdict, _, caveats = _row(inv)
    l0 = p.values[1] if inv.aux is None else -p.values[1]
    return ClassificationReport(p, l0, inv, web, verdict, caveats)
