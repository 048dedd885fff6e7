"""Exact sign classification of bivariate quadratic polynomials.

The classifier decides whether a degree <= 2 polynomial in two point
coordinates is identically zero, a nonzero constant, everywhere nonnegative
(but not identically zero), everywhere nonpositive, or genuinely indefinite.
"Positive" deliberately includes positive-semidefinite-but-nonzero
polynomials such as (t-x)^2: the classification tables place such
squares-of-linear-forms in their positive rows.

The decision is on an integer row of the six coefficients: each test is a
homogeneous inequality in them, so any positive multiple of the row (by the
lcm of the denominators, or a power of it) gives the same class.
"""

from __future__ import annotations

from collections.abc import Sequence

from .invariants import MONOMIALS, SignClass
from .spaces import PolynomialError, common_numerators


def quadratic_sign_class(p: "MultiPoly", point_vars: tuple[str, str]) -> SignClass:
    """Classify a quadratic in the two given point variables, exactly."""
    coeffs = p.coefficients_in(point_vars)
    if any(eu + ev > 2 for eu, ev in coeffs):
        raise PolynomialError("not a quadratic")
    extra = [w for w in p.variables if w not in point_vars]
    if extra:
        raise PolynomialError(f"non-point symbols present: {extra}")
    # Only the point variables occur, so each coefficient is a constant.
    return row_sign_class(common_numerators(
        [coeffs[m].constant_value() if m in coeffs else 0
         for m in MONOMIALS])[0])


def row_sign_class(row: Sequence[int]) -> SignClass:
    """The class of A u^2 + B uw + C w^2 + D u + E w + F from its integer
    row (A, B, C, D, E, F), or from any positive multiple of the row."""
    A, B, C, D, E, F = row
    if not (A or B or C or D or E):
        return SignClass.NONZERO_CONST if F else SignClass.ZERO
    if _nonnegative(A, B, C, D, E, F):
        return SignClass.POS
    if _nonnegative(-A, -B, -C, -D, -E, -F):
        return SignClass.NEG
    return SignClass.INDEF


def _nonnegative(A: int, B: int, C: int, D: int, E: int, F: int) -> bool:
    """True iff A u^2 + B uv + C v^2 + D u + E v + F >= 0 for all (u, v)."""
    det4 = 4 * A * C - B * B  # 4 * det of the quadratic-part matrix
    if A < 0 or C < 0 or det4 < 0:
        return False
    if A == 0 and B == 0 and C == 0:
        # Purely affine: bounded below only if actually constant.
        return D == 0 and E == 0 and F >= 0
    if det4 > 0:
        # Positive-definite quadratic part; the global minimum, at the
        # critical point, is F - (C D^2 - B D E + A E^2) / det4.
        return det4 * F >= C * D * D - B * D * E + A * E * E
    # Rank-one PSD quadratic part: bounded below iff the linear part vanishes
    # on the kernel, (-B, 2A), or (1, 0) when A = 0 (so B = 0 and C > 0);
    # the minimum is then F - D^2 / 4A, or F - E^2 / 4C.
    if A > 0:
        return 2 * A * E == B * D and 4 * A * F >= D * D
    return D == 0 and 4 * C * F >= E * E
