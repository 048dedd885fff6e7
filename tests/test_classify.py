"""Web classification: table reproduction, invariance, robustness."""

import itertools
import random
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingwebs.classify import (_CELLS, ClassificationReport, WebClass,
                                  _cell, _eigen_precondition,
                                  classify_euclidean, classify_full,
                                  classify_minkowski)
from killingwebs.invariants import (AuxInvariants, InvariantReport,
                                    auxiliary_invariants, invariant_report)
from killingwebs.isometry import (IsometryElement, act_kt_params,
                                  discrete_act_params,
                                  discrete_group_elements, identity)
from killingwebs.signs import SignClass
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams,
                                NontrivialKT, decompose, embed_nontrivial,
                                metric_params, reconstruct)
from samplers import CLASSES, canonical, classify_tag, random_element


# -- table reproduction -------------------------------------------------------

@pytest.mark.parametrize("ec,expected", sorted(CLASSES["euclidean"].items()))
def test_euclidean_canonical_forms_reproduce_their_rows(ec, expected):
    assert classify_euclidean(canonical(EUCLIDEAN, ec)).tag == expected


@pytest.mark.parametrize("ec", sorted(CLASSES["minkowski"]))
def test_minkowski_canonical_forms_reproduce_their_rows(ec):
    web, caveats = classify_minkowski(canonical(MINKOWSKI, ec))
    assert web.tag == CLASSES["minkowski"][ec]
    if web.tag == "EC5_or_EC10":
        assert caveats


def test_merged_rows_carry_their_caveats():
    _, caveats = classify_minkowski(canonical(MINKOWSKI, "EC5"))
    assert any("disjoint regions" in c for c in caveats)


def test_sign_normalization_is_recorded():
    flipped = NontrivialKT(MINKOWSKI, tuple(-v for v in
                                            canonical(MINKOWSKI, "EC9").values))
    web, caveats = classify_minkowski(flipped)
    assert web.tag == "EC9"
    assert any("negated" in c for c in caveats)


def test_zero_tensor_is_rejected():
    with pytest.raises(DomainError):
        classify_euclidean(NontrivialKT(EUCLIDEAN, (0,) * 5))
    with pytest.raises(DomainError):
        classify_minkowski(NontrivialKT(MINKOWSKI, (0,) * 5))


# -- invariance ---------------------------------------------------------------

@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI])
def test_classification_is_invariant_under_the_connected_group(space):
    """Each canonical row and 500 images of it under the group get the
    row's tabulated class."""
    rng = random.Random(61)
    for ec, expected in CLASSES[space.kind].items():
        p = embed_nontrivial(canonical(space, ec))
        assert classify_tag(p) == expected
        for _ in range(500):
            g = random_element(space, rng)
            assert classify_tag(act_kt_params(g, p)) == expected


def test_classification_is_invariant_under_the_discrete_group():
    for ec, expected in CLASSES["minkowski"].items():
        p = embed_nontrivial(canonical(MINKOWSKI, ec))
        assert classify_tag(p) == expected
        for r in discrete_group_elements():
            assert classify_tag(discrete_act_params(r, p)) == expected


def test_classification_is_scale_robust():
    p = embed_nontrivial(canonical(EUCLIDEAN, "EC4"))
    assert classify_tag(p.scale(Fraction(3))) == "EllipticHyperbolic"
    q = embed_nontrivial(canonical(MINKOWSKI, "EC9"))
    assert classify_tag(q.scale(Fraction(-5, 3))) == "EC9"
    assert classify_tag(q.scale(Fraction(1, 7))) == "EC9"
    r = KTParams(MINKOWSKI, (0, 0, Fraction(1, 4), Fraction(1, 4), 0,
                             Fraction(1, 4)))
    # Every field but the values that scale with the input: the class, the
    # caveats, the sign classes and the eigenvalue verdict.
    reports = [{k: v for k, v in classify_full(r.scale(c)).to_json_dict()
                .items() if k not in ("input", "l0", "invariants",
                                      "auxiliary")}
               for c in (Fraction(1), Fraction(4), Fraction(1, 16))]
    assert reports[0]["class"] == "EC6_or_EC8"
    assert reports[1] == reports[0] == reports[2]


# -- the two-step full procedure ---------------------------------------------

def test_metric_multiples_are_reported_as_trivial():
    for space in (EUCLIDEAN, MINKOWSKI):
        report = classify_full(metric_params(space).scale(Fraction(2)))
        assert report.web is None
        assert any("trivial" in c for c in report.caveats)
        assert report.to_json_dict()["class"] == "trivial"


def test_metric_plus_canonical_classifies_the_nontrivial_part():
    p = reconstruct(Fraction(1), canonical(MINKOWSKI, "EC2"))
    report = classify_full(p)
    assert report.l0 == 1
    assert report.web.tag == "EC2"


def test_full_report_shape():
    report = classify_full(embed_nontrivial(canonical(MINKOWSKI, "EC7")))
    assert isinstance(report, ClassificationReport)
    data = report.to_json_dict()
    assert data["class"] == "EC7"
    assert data["invariants"]["I3"] == "1/4"
    assert data["sign_classes"]["C2"] == "positive"
    assert data["eigen_precondition"] == "complex"
    assert "eigenvalues complex on an open region of the plane; the tensor " \
        "does not generate a web there" in data["caveats"]
    assert "auxiliary" in data


def fraction_auxiliary(values):
    """I1', and I2' on its slice, by the Fraction formulas the numerator
    evaluation replaced."""
    a1, a2, a3, a4, a5, a6 = values
    i1p = a4 * a4 - a5 * a5
    return AuxInvariants(i1p, None if a6 or i1p else
                         2 * a3 * a4 * a5 - (a1 + a2) * a4 * a4)


def _rationals(height):
    return st.builds(Fraction, st.integers(-height, height),
                     st.integers(1, height))


_low, _tall = _rationals(12), _rationals(10 ** 6)
_any = st.one_of(_low, _tall)


@st.composite
def _on_slice(draw):
    """alpha6 = 0 and alpha5 = +/- alpha4, where I2' is defined."""
    a1, a2, a3, a4 = (draw(_any) for _ in range(4))
    return a1, a2, a3, a4, draw(st.sampled_from([a4, -a4])), Fraction(0)


def _full_inputs(space):
    """Dense, half-zero, metric-multiple, integer-only and 10^6-height
    values, and points of the I2' slice."""
    metric = metric_params(space).values
    return st.one_of(
        st.tuples(*[_low.filter(bool)] * 6),
        st.tuples(*[st.one_of(st.just(Fraction(0)), _any)] * 6),
        _any.map(lambda l0: tuple(l0 * g for g in metric)),
        st.tuples(*[st.integers(-9, 9)] * 6),
        st.tuples(*[_tall] * 6),
        _on_slice())


full_inputs = {space: _full_inputs(space) for space in (EUCLIDEAN, MINKOWSKI)}


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI], ids=str)
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_full_report_matches_the_fraction_decomposition(space, data):
    """l0, the trivial/nontrivial split and I1', I2' read off the integer
    numerators equal `decompose` and the Fraction formulas; the public
    auxiliary invariants keep their values, types and errors."""
    p = KTParams(space, data.draw(full_inputs[space]))
    l0, nt = decompose(p)
    aux = fraction_auxiliary(p.values) if space is MINKOWSKI else None
    assert invariant_report(p).aux == aux
    report = classify_full(p)
    assert report.l0 == l0 and type(report.l0) is Fraction
    assert (report.web is None) == nt.is_zero()
    assert report.invariants.aux == aux
    if aux is None:
        with pytest.raises(DomainError, match="Minkowski plane"):
            auxiliary_invariants(p)
        return
    public = auxiliary_invariants(p)
    assert public == aux and type(public.i1_prime) is Fraction
    assert public.i2_prime is None or type(public.i2_prime) is Fraction


def test_eigen_precondition_states():
    """Cartesian tensors are constant with distinct eigenvalues; every other
    Euclidean class has a focus or a centre where the eigenvalues meet."""
    expected = {"EC1": "satisfied", "EC2": "degenerate", "EC3": "degenerate",
                "EC4": "degenerate"}
    for ec, verdict in expected.items():
        report = classify_full(embed_nontrivial(canonical(EUCLIDEAN, ec)))
        assert report.eigen_precondition == verdict
    trivial = classify_full(metric_params(EUCLIDEAN))
    assert trivial.eigen_precondition == "degenerate"
    complex_case = classify_full(KTParams(MINKOWSKI, (0, 0, 1, 0, 0, 0)))
    assert complex_case.eigen_precondition == "complex"
    assert complex_case.web is not None
    assert any("complex" in c for c in complex_case.caveats)


small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
nonzero_small = small.filter(bool)


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI], ids=str)
@given(st.tuples(*[small] * 6), st.randoms(use_true_random=False),
       nonzero_small, small)
@settings(max_examples=100, deadline=None)
def test_eigen_precondition_is_an_orbit_invariant(space, vals, rng, lam, l0):
    """The verdict and the cell are unchanged by the connected group, the
    discrete group, nonzero scaling and adding a multiple of the metric."""
    p = KTParams(space, vals)
    inv = invariant_report(p)
    metric = metric_params(space).values
    images = [act_kt_params(random_element(space, rng), p), p.scale(lam),
              KTParams(space, tuple(v + l0 * g for v, g in zip(vals, metric)))]
    if space.kind == "minkowski":
        images += [discrete_act_params(r, p) for r in discrete_group_elements()]
    reports = [invariant_report(q) for q in images]
    assert {_eigen_precondition(r) for r in reports} \
        == {_eigen_precondition(inv)}
    assert {_cell(r) for r in reports} == {_cell(inv)}


# The cell no tabulated row covers: f has a double root and g none.
GAP = ("double", "none")
GAP_BASE = KTParams(MINKOWSKI, (0, 3, Fraction(-1, 2), 1, 0, Fraction(1, 2)))


@given(st.randoms(use_true_random=False), nonzero_small, small)
@settings(max_examples=100, deadline=None)
def test_gap_witnesses_stay_outside_the_tables(rng, lam, l0):
    """Orbit images of a gap witness under the connected group, the eight
    discrete elements, nonzero scaling and metric shifts, alone and
    composed, are all reported as `outside_tables` with a degenerate
    verdict."""
    moved = act_kt_params(random_element(MINKOWSKI, rng), GAP_BASE)
    metric = metric_params(MINKOWSKI).values

    def shifted(q):
        return KTParams(MINKOWSKI, tuple(v + l0 * g
                                         for v, g in zip(q.values, metric)))

    images = [moved, GAP_BASE.scale(lam), shifted(GAP_BASE)]
    for r in discrete_group_elements():
        images += [discrete_act_params(r, GAP_BASE),
                   shifted(discrete_act_params(r, moved).scale(lam))]
    for q in images:
        report = classify_full(q)
        assert _cell(report.invariants) == GAP
        assert (report.web.tag, report.eigen_precondition) \
            == ("outside_tables", "degenerate")


_sparse_ints = st.one_of(st.just(0), st.integers(-3, 3))


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI], ids=str)
@given(st.lists(st.tuples(*[_sparse_ints] * 6), min_size=2, max_size=12))
@settings(max_examples=100, deadline=None)
def test_equal_tags_have_equal_verdicts(space, inputs):
    """A class tag fixes the eigenvalue verdict: no tag names both a web and
    a plane where the tensor generates none."""
    verdicts = defaultdict(set)
    for vals in inputs:
        report = classify_full(KTParams(space, vals))
        verdicts[report.web and report.web.tag].add(report.eigen_precondition)
    assert all(len(v) == 1 for v in verdicts.values()), dict(verdicts)


def test_every_input_in_the_box_gets_a_report():
    """Every nonzero integer input in {-2..2}^6 gets a report in both planes,
    with no exception; the box reaches every class of the table, and each
    class comes with one verdict."""
    verdicts = defaultdict(set)
    for space in (EUCLIDEAN, MINKOWSKI):
        for vals in itertools.product(range(-2, 3), repeat=6):
            if any(vals):
                report = classify_full(KTParams(space, vals))
                verdicts[report.web and report.web.tag].add(
                    report.eigen_precondition)
    assert verdicts == {tag: {verdict}
                        for tag, verdict, _ in _CELLS.values()}


def test_eigen_precondition_does_not_depend_on_where_the_input_sits():
    p = embed_nontrivial(canonical(MINKOWSKI, "EC5", Fraction(4)))
    verdicts = {_eigen_precondition(invariant_report(act_kt_params(
        IsometryElement(MINKOWSKI, identity(MINKOWSKI).rot,
                        (Fraction(dt), Fraction(0))), p)))
        for dt in (0, 3, 10)}
    assert verdicts == {"complex"}


def test_euclidean_tables_cross_check_each_other():
    """On random nonzero inputs the paper's invariant table and covariant
    table agree (the oracle's consistency guard never trips), and the
    classifier's table gives their class."""
    rng = random.Random(71)
    for _ in range(100):
        nt = NontrivialKT(EUCLIDEAN, tuple(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            for _ in range(5)))
        if nt.is_zero():
            continue
        tag = classify_euclidean(nt).tag
        assert tag in CLASSES["euclidean"].values()
        assert tag == paper_class(invariant_report(embed_nontrivial(nt)))[0]


# -- the census: the paper's decision trees are the oracle -------------------
# The trees over I1, I3, the covariant sign classes and I2', and the verdict
# from the signs that f and g take: the oracle for the cell table.

def _classify_euclidean_by_invariants(i1: Fraction, i3: Fraction) -> str:
    if i1 == 0:
        return "Cartesian" if i3 == 0 else "Polar"
    return "Parabolic" if i3 == 0 else "EllipticHyperbolic"


def _classify_euclidean_by_covariants(s1: SignClass, s2: SignClass) -> str:
    """The covariant rows: C1 zero / positive with C2 zero / both constant /
    positive with C2 indefinite."""
    if s1 == SignClass.ZERO:
        return "Cartesian"
    if s1 == SignClass.NONZERO_CONST and s2 in (SignClass.NONZERO_CONST,
                                                SignClass.ZERO):
        return "Parabolic"
    if s1 == SignClass.POS and s2 == SignClass.ZERO:
        return "Polar"
    if s1 == SignClass.POS and s2 == SignClass.INDEF:
        return "EllipticHyperbolic"
    raise DomainError(
        f"covariant sign pattern (C1={s1.value}, C2={s2.value}) matches no "
        "tabulated row")


def _euclidean_web(inv: InvariantReport) -> WebClass:
    by_inv = _classify_euclidean_by_invariants(inv.i1, inv.i3)
    by_cov = _classify_euclidean_by_covariants(inv.sign_c1, inv.sign_c2)
    if by_inv != by_cov:
        raise DomainError(
            f"invariant table ({by_inv}) and covariant table ({by_cov}) "
            "disagree; input outside the tables' common domain")
    return WebClass(by_inv)


def _minkowski_web(inv: InvariantReport) -> tuple[WebClass, tuple[str, ...]]:
    caveats: list[str] = []
    i1, i3, s2 = inv.i1, inv.i3, inv.sign_c2
    if i3 < 0:
        # K and -K generate the same web; the tabulated sign predicates
        # read off the normalized representative -K.  Of the quantities
        # below only I3 is odd, and only whether it vanishes is read.
        caveats.append("parameters negated to normalize I3 > 0")

    if i3 == 0:
        if i1 != 0:
            return WebClass("EC4"), tuple(caveats)
        # Here I1 = (alpha4^2 - alpha5^2)^2, so the input lies on the slice
        # where I2' is defined.
        return (WebClass("EC1" if inv.aux.i2_prime == 0 else "EC3"),
                tuple(caveats))

    if i1 == 0:
        if s2 == SignClass.ZERO:
            return WebClass("EC2"), tuple(caveats)
        if s2 == SignClass.POS:
            return WebClass("EC7"), tuple(caveats)
        raise DomainError(
            f"sign pattern (I1=0, C2={s2.value}) matches no tabulated row")
    if i1 > 0:
        if s2 == SignClass.POS:
            return WebClass("EC5_or_EC10"), tuple(caveats) + (
                "EC5 and EC10 share all tabulated values; they cover "
                "disjoint regions of the same plane",)
        if s2 == SignClass.NEG:
            return WebClass("EC9"), tuple(caveats)
        raise DomainError(
            f"sign pattern (I1>0, C2={s2.value}) matches no tabulated row")
    return WebClass("EC6_or_EC8"), tuple(caveats)        # I1 < 0


def _signs(a: int, b: int, c: int) -> set[int]:
    """The signs that a s^2 + 2 b s + c takes as s runs over the reals."""
    d = b * b - a * c
    if d > 0:                   # a simple real root
        return {-1, 0, 1}
    # Else the sign of a, or of c when a = 0 (which forces b = 0), and 0 at
    # a double root.
    lead = a or c
    sign = (lead > 0) - (lead < 0)
    return {sign, 0} if d == 0 and a else {sign}


def paper_eigen_precondition(inv: InvariantReport) -> str:
    """The sign of the eigenvalue discriminant over the whole plane:
    Euclidean, disc = (k00 - k11)^2 + 4 k01^2, whose two quadratics share a
    real zero unless v4 = v5 = v6 = 0; Minkowski, disc = f(t - x) g(t + x)
    with independent null coordinates, so it takes the products of the
    signs of f and g."""
    v1, v2, v3, v4, v5, v6 = inv.numerators
    if inv.space.eps > 0:
        if v4 == v5 == v6 == 0 and (v1 != v2 or v3 != 0):
            return "satisfied"
        return "degenerate"
    signs = {x * y for x in _signs(v6, v5 - v4, v1 + v2 - 2 * v3)
             for y in _signs(v6, v5 + v4, v1 + v2 + 2 * v3)}
    if -1 in signs:
        return "complex"
    return "degenerate" if 0 in signs else "satisfied"


def paper_class(inv: InvariantReport):
    """(class tag or None for a metric multiple, verdict, caveats) of the
    report's input by the paper's trees; the cell the trees have no row for
    raises `DomainError`."""
    eps = inv.space.eps
    n1, n2, n3, n4, n5, n6 = inv.numerators
    precondition = paper_eigen_precondition(inv)
    if n1 == eps * n2 and n3 == n4 == n5 == n6 == 0:
        return None, precondition, ("trivial (multiple of metric), no web",)
    if eps > 0:
        return _euclidean_web(inv).tag, precondition, ()
    web, caveats = _minkowski_web(inv)
    if precondition == "complex":
        caveats += ("eigenvalues complex on an open region of the plane; the "
                    "tensor does not generate a web there",)
    return web.tag, precondition, caveats


# The paper's EC1 row, split by the verdict of its cells.
EC1_SPLIT = {"satisfied": "EC1", "complex": "no_real_web",
             "degenerate": "no_web_repeated_eigenvalue"}


def test_census_of_cells_matches_the_paper_trees():
    """Over the {-1..1}^6 box in both planes the inputs reach every row of
    the table, 18 cells, and `classify_full` gives the paper's class,
    verdict and caveats on each input, with the paper's EC1 split by its
    verdict.  Where the trees raise, on the cell they have no row for,
    `classify_full` gives the typed row `outside_tables`.  No other cell
    exists: f and g share the leading coefficient v6, so both are
    quadratics (two, double or no real roots) or neither is (linear, a
    nonzero constant or zero), and h has five root types."""
    assert _CELLS[GAP][:2] == ("outside_tables", "degenerate")
    assert "double root" in _CELLS[GAP][2][0]
    assert "no real root" in _CELLS[GAP][2][0]
    cells = set()
    for space in (EUCLIDEAN, MINKOWSKI):
        for vals in itertools.product((-1, 0, 1), repeat=6):
            p = KTParams(space, vals)
            inv = invariant_report(p)
            cells.add(_cell(inv))
            assert _eigen_precondition(inv) == paper_eigen_precondition(inv)
            try:
                tag, verdict, caveats = paper_class(inv)
            except DomainError as exc:
                assert str(exc) == ("sign pattern (I1=0, C2=negative) matches "
                                    "no tabulated row")
                assert _cell(inv) == GAP
                negated = ("parameters negated to normalize I3 > 0",)
                tag, verdict = "outside_tables", paper_eigen_precondition(inv)
                caveats = (negated if inv.i3 < 0 else ()) + _CELLS[GAP][2]
            if tag == "EC1":
                tag = EC1_SPLIT[verdict]
            report = classify_full(p)
            assert (report.web and report.web.tag, report.eigen_precondition,
                    report.caveats) == (tag, verdict, caveats)
    assert len(_CELLS) == 18
    assert cells == set(_CELLS)


def test_readme_table_is_the_cell_table():
    """The README's table of cells lists every row of `_CELLS`, with the
    class, the verdict and whether the row carries a caveat."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## How the class is decided", 1)[1]
    rows = {}
    for line in section.splitlines():
        fields = [f.strip() for f in line.strip().strip("|").split("|")]
        if fields[0] not in ("Euclidean", "Minkowski"):
            continue
        plane, cell, _, tag, verdict, caveat = fields
        cell = cell.strip("`")
        key = cell if plane == "Euclidean" else tuple(cell.split(", "))
        rows[key] = (None if tag == "trivial" else tag, verdict, bool(caveat))
    assert rows == {cell: (tag, verdict, bool(caveats))
                    for cell, (tag, verdict, caveats) in _CELLS.items()}
