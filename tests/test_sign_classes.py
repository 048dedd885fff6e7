"""The covariant sign classes, read off quad and cross.

`invariants._sign_classes` reads the classes of C1 and C2 from eps, v6,
quad and cross.  The identities below, as polynomial identities in the
parameters and the point, are why that is exact for every input.  Let
lu = v6 u + v5 and lw = v6 w + v4; when v6 != 0, (lu, lw) runs over the
whole plane as (u, w) does.

- Minkowski: f and g, the null-coordinate factors of the eigenvalue
  discriminant, have quarter discriminants Df = quad + 2 cross and
  Dg = quad - 2 cross.  With s = lu - lw and t = lu + lw, C1 = s t and
  2 C2 = s^2 Dg + t^2 Df, so C1 is indefinite and the class of C2 is the
  sign pattern of (Df, Dg).
- Euclidean: C1 = lu^2 + lw^2, and C2 = (lu^2 - lw^2) quad
  + 4 lu lw cross is a quadratic form in (lu, lw) of determinant
  -(quad^2 + 4 cross^2) = -I1, so C2 is indefinite iff I1 != 0 and zero
  otherwise.
- When v6 = 0, C1 = v5^2 + eps v4^2 is a constant and C2 = C1^2.

`signs.row_sign_class` on the integer rows is the oracle: the closed form
must agree with it on every input of the {-1..1}^6 box in both planes,
which holds v6 = 0 and the zero tensor.
"""

import itertools
from collections import defaultdict

import pytest

from killingwebs.invariants import _quad_cross, _sign_classes
from killingwebs.poly import var
from killingwebs.signs import SignClass, row_sign_class
from killingwebs.spaces import EUCLIDEAN, MINKOWSKI
from killingwebs.symbolic import (_covariant_rows, _symbols,
                                  covariant_polynomials,
                                  invariant_polynomials)


def _lines(space):
    """The parameters, quad, cross and (lu, lw) as polynomials."""
    _, params, quad, cross = _symbols(space)
    u, w = (var(v) for v in space.point_vars)
    v6 = params[5]
    return params, quad, cross, v6 * u + params[4], v6 * w + params[3]


def test_minkowski_covariants_in_null_coordinates():
    (v1, v2, v3, v4, v5, v6), quad, cross, lu, lw = _lines(MINKOWSKI)
    df = (v5 - v4) ** 2 - v6 * (v1 + v2 - 2 * v3)   # f's quarter discriminant
    dg = (v5 + v4) ** 2 - v6 * (v1 + v2 + 2 * v3)   # g's
    assert df == quad + 2 * cross
    assert dg == quad - 2 * cross
    s, t = lu - lw, lu + lw
    c1, c2 = covariant_polynomials(MINKOWSKI)
    assert c1 == s * t
    assert 2 * c2 == s * s * dg + t * t * df
    assert invariant_polynomials(MINKOWSKI)[0] == df * dg


def test_euclidean_covariants_in_the_focal_frame():
    (v1, v2, v3, v4, v5, v6), quad, cross, lu, lw = _lines(EUCLIDEAN)
    # quad + 2i cross is h's quarter discriminant,
    # (v5 + i v4)^2 + v6 (v1 - v2 + 2i v3).
    assert quad == v5 * v5 - v4 * v4 + v6 * (v1 - v2)
    assert cross == v4 * v5 + v3 * v6
    c1, c2 = covariant_polynomials(EUCLIDEAN)
    assert c1 == lu * lu + lw * lw
    assert c2 == (lu * lu - lw * lw) * quad + 4 * lu * lw * cross
    i1 = invariant_polynomials(EUCLIDEAN)[0]
    assert i1 == quad * quad + 4 * cross * cross


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI], ids=str)
def test_covariants_are_constants_where_v6_vanishes(space):
    v4, v5 = _lines(space)[0][3:5]
    on_slice = {space.param_vars[5]: 0}
    c1, c2 = (c.subst(on_slice) for c in covariant_polynomials(space))
    assert c1 == v5 * v5 + space.eps * v4 * v4
    assert c2 == c1 * c1


@pytest.mark.parametrize("space", [EUCLIDEAN, MINKOWSKI], ids=str)
def test_closed_form_is_the_row_decision_on_the_box(space):
    """Equal to `row_sign_class` on both rows at every input of the box;
    the box reaches each branch of the closed form."""
    eps = space.eps
    seen = defaultdict(set)         # v6 != 0 -> the classes met
    for p in itertools.product(range(-1, 2), repeat=6):
        quad, cross = _quad_cross(eps, *p)
        classes = _sign_classes(eps, p, quad, cross)
        assert classes == tuple(map(row_sign_class,
                                    _covariant_rows(eps, p, quad, cross))), p
        seen[p[5] != 0].add(classes)
    S = SignClass
    assert seen[False] == {(S.ZERO, S.ZERO),
                           (S.NONZERO_CONST, S.NONZERO_CONST)}
    if space is EUCLIDEAN:
        assert seen[True] == {(S.POS, S.ZERO), (S.POS, S.INDEF)}
    else:
        assert seen[True] == {(S.INDEF, c2) for c2 in
                              (S.ZERO, S.POS, S.NEG, S.INDEF)}
