"""Exact sign classification of bivariate quadratic polynomials.

The classifier decides whether a degree <= 2 polynomial in two point
coordinates is identically zero, a nonzero constant, everywhere nonnegative
(but not identically zero), everywhere nonpositive, or genuinely indefinite.
"Positive" deliberately includes positive-semidefinite-but-nonzero
polynomials such as (t-x)^2: the classification tables place such
squares-of-linear-forms in their positive rows.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .poly import MultiPoly, PolynomialError, Q


class SignClass(enum.Enum):
    ZERO = "zero"
    NONZERO_CONST = "nonzero_const"
    POS = "positive"
    NEG = "negative"
    INDEF = "indefinite"


def quadratic_sign_class(p: MultiPoly, point_vars: tuple[str, str]) -> SignClass:
    """Classify a quadratic in the two given point variables, exactly."""
    if p.total_degree(restrict=point_vars) > 2:
        raise PolynomialError("not a quadratic")
    extra = [w for w in p.used_variables() if w not in point_vars]
    if extra:
        raise PolynomialError(f"non-point symbols present: {extra}")
    if p.is_zero():
        return SignClass.ZERO
    if p.is_constant():
        return SignClass.NONZERO_CONST

    # Only the point variables occur, so each term is one coefficient.
    pos = [p.variables.index(w) if w in p.variables else None
           for w in point_vars]
    coeffs = {tuple(0 if i is None else exps[i] for i in pos): coeff
              for exps, coeff in p.terms.items()}
    A = coeffs.get((2, 0), Q(0))
    B = coeffs.get((1, 1), Q(0))
    C = coeffs.get((0, 2), Q(0))
    D = coeffs.get((1, 0), Q(0))
    E = coeffs.get((0, 1), Q(0))
    F = coeffs.get((0, 0), Q(0))

    if _nonnegative(A, B, C, D, E, F):
        return SignClass.POS
    if _nonnegative(-A, -B, -C, -D, -E, -F):
        return SignClass.NEG
    return SignClass.INDEF


def _nonnegative(A: Fraction, B: Fraction, C: Fraction,
                 D: Fraction, E: Fraction, F: Fraction) -> bool:
    """True iff A u^2 + B uv + C v^2 + D u + E v + F >= 0 for all (u, v)."""
    det4 = 4 * A * C - B * B  # 4 * det of the quadratic-part matrix
    if A < 0 or C < 0 or det4 < 0:
        return False
    if A == 0 and B == 0 and C == 0:
        # Purely affine: bounded below only if actually constant.
        return D == 0 and E == 0 and F >= 0
    if det4 > 0:
        # Positive-definite quadratic part; global minimum at the critical
        # point 2*Q w = -(D, E).
        wu = (B * E - 2 * C * D) / det4
        wv = (B * D - 2 * A * E) / det4
        return A * wu * wu + B * wu * wv + C * wv * wv + D * wu + E * wv + F >= 0
    # Rank-one PSD quadratic part: kernel direction exists; the polynomial is
    # bounded below iff the linear part vanishes along the kernel.
    if A > 0:
        ku, kv = -B, 2 * A  # kernel of [[2A, B], [B, 2C]]
    else:  # A == 0 forces B == 0 (det4 == 0), so C > 0
        ku, kv = Q(1), Q(0)
    if D * ku + E * kv != 0:
        return False
    # Minimize along a solution of 2*Q w = -(D, E); any particular solution
    # will do since the residual direction is flat.
    if A > 0:
        wu = -D / (2 * A)
        wv = Q(0)
    else:
        wu = Q(0)
        wv = -E / (2 * C)
    return A * wu * wu + B * wu * wv + C * wv * wv + D * wu + E * wv + F >= 0
