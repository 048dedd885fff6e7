"""Moving frames onto a fixed cross-section, and canonical forms.

The frame maps are float-only by design: the classification path never
depends on them, and the success criterion is always the post-hoc residual
of the constrained parameters after applying the float action at the
frame's rotation/boost entries and translation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .invariants import _numerators
from .isometry import act_kt_params_float
from .spaces import DomainError, KTParams, NontrivialKT, Space

RESIDUAL_TOL = 1e-9


class FrameDomainError(DomainError):
    """The frame map is undefined or leaves its real domain at this input."""


class MovingFrameResult(namedtuple("MovingFrameResult",
                                   "angle a b residual notes",
                                   defaults=((),))):
    """angle: float, the rotation angle or boost rapidity; a, b: float;
    residual: float, max |constrained parameter| after applying; notes:
    tuple[str, ...]."""
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.residual <= RESIDUAL_TOL


def _apply_and_residual(p: KTParams, cs: tuple[float, float],
                        avals: tuple[float, float]) -> float:
    moved = act_kt_params_float(p, cs, avals)
    # Constrained slots: the mixed term and both linear terms.
    return max(abs(moved[2]), abs(moved[3]), abs(moved[4]))


def _translation(eps: int, nums, d: int, c: float, s: float
                 ) -> tuple[float, float]:
    """The translation (a, b) that clears both linear terms after the
    rotation or boost (c, s), from the numerators over d."""
    _, _, _, n4, n5, n6 = nums
    return ((n5 / d * c - eps * n4 / d * s) / (n6 / d),
            (n4 / d * c + n5 / d * s) / (n6 / d))


def _euclidean_frame(p: KTParams, nums, d: int, num: int, den: int
                     ) -> MovingFrameResult:
    # num and den are d^2 times their rational forms; n / d is float(n/d).
    notes = []
    if den == 0 and num == 0:
        theta0 = 0.0
    elif den == 0:
        theta0 = math.pi / 4
        notes.append("normalization angle denominator vanishes; "
                     "using the quarter-angle branch")
    else:
        # Solving the normalization equations from the derived action gives
        # tan(2 theta) = -num/den; the sign is validated by the residual.
        theta0 = -0.5 * math.atan(num / (d * d) / (den / (d * d)))

    best = None
    for theta in (theta0, theta0 + math.pi / 2):
        c, s = math.cos(theta), math.sin(theta)
        a, b = _translation(1, nums, d, c, s)
        residual = _apply_and_residual(p, (c, s), (a, b))
        if best is None or residual < best[0]:
            best = (residual, theta, a, b)
    residual, theta, a, b = best
    return MovingFrameResult(theta, a, b, residual, tuple(notes))


def _minkowski_frame(p: KTParams, nums, d: int, num: int, den: int
                     ) -> MovingFrameResult:
    if den == 0:
        if num == 0:
            phi = 0.0
        else:
            raise FrameDomainError(
                "outside arctanh domain: normalization argument is infinite")
    else:
        # One Fraction: float(0 / den) would be -0.0 when den < 0.
        arg = Fraction(num, den)
        # |arg| < 1 can still round to 1.0, where atanh is infinite.
        if abs(arg) >= 1 or abs(float(arg)) == 1:
            raise FrameDomainError(
                f"outside arctanh domain: argument = {arg}")
        phi = 0.5 * math.atanh(float(arg))
    ch, sh = math.cosh(phi), math.sinh(phi)
    a, b = _translation(-1, nums, d, ch, sh)
    residual = _apply_and_residual(p, (ch, sh), (a, b))
    return MovingFrameResult(phi, a, b, residual)


def moving_frame(p: KTParams) -> MovingFrameResult:
    """The group element normalizing the three inhomogeneous parameters.

    Solves the closed-form normalization equations (angle first, then the
    translations, which depend on it) and validates by applying the element:
    the residual on the constrained parameters is the success criterion.
    """
    eps, nums, d, quad, cross = _numerators(p)
    if nums[5] == 0:
        raise FrameDomainError("group does not act freely here")
    frame = _euclidean_frame if eps > 0 else _minkowski_frame
    try:
        return frame(p, nums, d, 2 * cross, quad)
    except (OverflowError, ZeroDivisionError):
        # Every division is by a value that is nonzero exactly, so a zero
        # divisor is one that underflowed.
        raise FrameDomainError("a value lies beyond the float range") from None


# -- canonical forms ---------------------------------------------------------

# Each plane's rows: class -> (the class `classify` reports, values at
# k2 = 0, coefficients of k2); the rows that take k2 have a nonzero one.
_NO_K2 = (0, 0, 0, 0, 0)

CANONICAL = {
    "euclidean": {
        "EC1": ("Cartesian", (1, 0, 0, 0, 0), _NO_K2),
        "EC2": ("Polar", (0, 0, 0, 0, 1), _NO_K2),
        "EC3": ("Parabolic", (0, 0, 0, 1, 0), _NO_K2),
        "EC4": ("EllipticHyperbolic", (1, 0, 0, 0, 1), _NO_K2),
    },
    "minkowski": {
        "EC1": ("EC1", (1, 0, 0, 0, 0), _NO_K2),
        "EC2": ("EC2", (0, 0, 0, 0, 1), _NO_K2),
        "EC3": ("EC3", (Fraction(1, 2), Fraction(1, 4), Fraction(-1, 2),
                        Fraction(1, 2), 0), _NO_K2),
        "EC4": ("EC4", (0, 0, 0, 1, 0), _NO_K2),
        "EC5": ("EC5_or_EC10", (0, 0, 0, 0, Fraction(-1, 4)),
                (2, 0, 0, 0, 0)),
        "EC6": ("EC6_or_EC8", (Fraction(1, 4), Fraction(1, 4), 0, 0,
                               Fraction(1, 4)), _NO_K2),
        "EC7": ("EC7", (Fraction(-1, 2), Fraction(-1, 4), 0, 0,
                        Fraction(1, 4)), _NO_K2),
        "EC8": ("EC6_or_EC8", (0, 0, 0, 0, Fraction(1, 4)),
                (0, -1, 0, 0, 0)),
        "EC9": ("EC9", (0, 0, 0, 0, Fraction(1, 4)), (2, 0, 0, 0, 0)),
        "EC10": ("EC5_or_EC10", (0, 0, 0, 0, Fraction(1, 4)),
                 (-2, 0, 0, 0, 0)),
    },
}

K2_CLASSES = {ec for ec, row in CANONICAL["minkowski"].items() if any(row[2])}


def canonical_form(space: Space, ec: str,
                   k2: Fraction | None = None) -> NontrivialKT:
    """The tabulated nontrivial representative of an equivalence class."""
    table = CANONICAL[space.kind]
    ec = ec.upper()
    if ec not in table:
        raise DomainError(f"unknown equivalence class {ec!r} for {space.kind}")
    _, base, per_k2 = table[ec]
    takes_k2 = any(per_k2)
    if takes_k2 and k2 is None:
        raise DomainError(f"{ec} requires a k2 value")
    if not takes_k2 and k2 is not None:
        raise DomainError(f"{ec} does not take a k2 value")
    if k2 is not None and Fraction(k2) <= 0:
        raise DomainError("k2 must be positive")
    k2 = Fraction(k2 or 0)
    return NontrivialKT(space, tuple(v + c * k2 for v, c in zip(base, per_k2)))
