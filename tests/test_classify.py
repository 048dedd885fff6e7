"""Web classification: table reproduction, invariance, robustness."""

import random
from fractions import Fraction

import pytest

from killingwebs.classify import (ClassificationReport, classify_euclidean,
                                  classify_full, classify_minkowski)
from killingwebs.isometry import (act_kt_params, discrete_act_params,
                                  discrete_group_elements)
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams,
                                NontrivialKT, embed_nontrivial,
                                metric_params, reconstruct)
from samplers import canonical, classify_tag, random_element

EUCLIDEAN_EXPECTED = {
    "EC1": "Cartesian",
    "EC2": "Polar",
    "EC3": "Parabolic",
    "EC4": "EllipticHyperbolic",
}

MINKOWSKI_EXPECTED = {
    "EC1": ("EC1", None),
    "EC2": ("EC2", None),
    "EC3": ("EC3", None),
    "EC4": ("EC4", None),
    "EC5": ("EC5_or_EC10", None),
    "EC6": ("EC6_or_EC8", "EC6"),
    "EC7": ("EC7", None),
    "EC8": ("EC6_or_EC8", "EC6"),
    "EC9": ("EC9", None),
    "EC10": ("EC5_or_EC10", None),
}


# -- table reproduction -------------------------------------------------------

@pytest.mark.parametrize("ec,expected", sorted(EUCLIDEAN_EXPECTED.items()))
def test_euclidean_canonical_forms_reproduce_their_rows(ec, expected):
    assert classify_euclidean(canonical(EUCLIDEAN, ec)).tag == expected


@pytest.mark.parametrize("ec", sorted(MINKOWSKI_EXPECTED))
def test_minkowski_canonical_forms_reproduce_their_rows(ec):
    expected_tag, expected_subtag = MINKOWSKI_EXPECTED[ec]
    web, caveats = classify_minkowski(canonical(MINKOWSKI, ec))
    assert web.tag == expected_tag
    assert web.subtag == expected_subtag
    if expected_tag in ("EC5_or_EC10", "EC6_or_EC8"):
        assert caveats


def test_merged_rows_carry_their_caveats():
    _, caveats = classify_minkowski(canonical(MINKOWSKI, "EC6"))
    assert any("EC6/EC8" in c for c in caveats)
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
    rng = random.Random(61)
    table = EUCLIDEAN_EXPECTED if space.kind == "euclidean" \
        else MINKOWSKI_EXPECTED
    for ec in table:
        p = embed_nontrivial(canonical(space, ec))
        base = classify_tag(p)
        for _ in range(50):
            g = random_element(space, rng)
            assert classify_tag(act_kt_params(g, p)) == base


def test_classification_is_invariant_under_the_discrete_group():
    for ec in MINKOWSKI_EXPECTED:
        p = embed_nontrivial(canonical(MINKOWSKI, ec))
        base = classify_tag(p)
        for r in discrete_group_elements():
            assert classify_tag(discrete_act_params(r, p)) == base


def test_classification_is_scale_robust():
    p = embed_nontrivial(canonical(EUCLIDEAN, "EC4"))
    assert classify_tag(p.scale(Fraction(3))) == "EllipticHyperbolic"
    q = embed_nontrivial(canonical(MINKOWSKI, "EC9"))
    assert classify_tag(q.scale(Fraction(-5, 3))) == "EC9"
    assert classify_tag(q.scale(Fraction(1, 7))) == "EC9"


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
    assert data["eigen_precondition"] in (
        "satisfied on sampled region", "degenerate", "complex")
    assert "auxiliary" in data


def test_eigen_precondition_states():
    distinct = classify_full(embed_nontrivial(canonical(EUCLIDEAN, "EC4")))
    assert distinct.eigen_precondition in ("satisfied on sampled region",
                                           "degenerate")
    degenerate = classify_full(KTParams(EUCLIDEAN, (0, 0, 0, 0, 0, 1)))
    assert degenerate.eigen_precondition == "degenerate"
    complex_case = classify_full(KTParams(MINKOWSKI, (0, 0, 1, 0, 0, 0)))
    assert complex_case.eigen_precondition == "complex"
    if complex_case.web is not None:
        assert any("complex" in c for c in complex_case.caveats)


def test_euclidean_tables_cross_check_each_other():
    """Every Euclidean verdict passes through both the invariant table and
    the covariant table; random nonzero inputs never trip the consistency
    guard."""
    rng = random.Random(71)
    for _ in range(100):
        nt = NontrivialKT(EUCLIDEAN, tuple(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            for _ in range(5)))
        if nt.is_zero():
            continue
        tag = classify_euclidean(nt).tag
        assert tag in EUCLIDEAN_EXPECTED.values()
