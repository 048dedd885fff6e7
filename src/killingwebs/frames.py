"""Moving frames, cross-section validation, and canonical forms.

The frame maps are float-only by design: the classification path never
depends on them, and the success criterion is always the post-hoc residual
of the constrained parameters after applying the frame element.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .poly import MultiPoly, Q
from .spaces import (DomainError, KTParams, NontrivialKT, Space,
                     embed_nontrivial)
from .isometry import IsometryElement, act_kt_params_float, float_element

RESIDUAL_TOL = 1e-9


class FrameDomainError(DomainError):
    """The frame map is undefined or leaves its real domain at this input."""


class MovingFrameResult(NamedTuple):
    element: IsometryElement       # float representation
    angle: float                   # rotation angle / boost rapidity
    a: float
    b: float
    residual: float                # max |constrained parameter| after applying
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.residual <= RESIDUAL_TOL


def _apply_and_residual(space: Space, p: KTParams, angle: float,
                        avals: tuple[float, float]) -> tuple[float, tuple]:
    g = float_element(space, angle, avals)
    moved = act_kt_params_float(g, p)
    # Constrained slots: the mixed term and both linear terms.
    residual = max(abs(moved[2]), abs(moved[3]), abs(moved[4]))
    return residual, moved


def _euclidean_frame(p: KTParams) -> MovingFrameResult:
    b1, b2, b3, b4, b5, b6 = p.values
    if b6 == 0:
        raise FrameDomainError("group does not act freely here")
    num = 2 * (b3 * b6 + b4 * b5)
    den = b6 * (b1 - b2) - b4 * b4 + b5 * b5
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
        theta0 = -0.5 * math.atan(float(num) / float(den))

    best = None
    for theta in (theta0, theta0 + math.pi / 2):
        c, s = math.cos(theta), math.sin(theta)
        a = (float(b5) * c - float(b4) * s) / float(b6)
        b = (float(b4) * c + float(b5) * s) / float(b6)
        residual, _ = _apply_and_residual(p.space, p, theta, (a, b))
        if best is None or residual < best[0]:
            best = (residual, theta, a, b)
    residual, theta, a, b = best
    return MovingFrameResult(float_element(p.space, theta, (a, b)),
                             theta, a, b, residual, tuple(notes))


def _minkowski_frame(p: KTParams) -> MovingFrameResult:
    a1, a2, a3, a4, a5, a6 = p.values
    if a6 == 0:
        raise FrameDomainError("group does not act freely here")
    num = 2 * (a3 * a6 - a4 * a5)
    den = a4 * a4 + a5 * a5 - a6 * (a1 + a2)
    if den == 0:
        if num == 0:
            phi = 0.0
        else:
            raise FrameDomainError(
                "outside arctanh domain: normalization argument is infinite")
    else:
        arg = num / den
        if abs(arg) >= 1:
            raise FrameDomainError(
                f"outside arctanh domain: argument = {arg}")
        phi = 0.5 * math.atanh(float(arg))
    ch, sh = math.cosh(phi), math.sinh(phi)
    a = (float(a4) * sh + float(a5) * ch) / float(a6)
    b = (float(a4) * ch + float(a5) * sh) / float(a6)
    residual, _ = _apply_and_residual(p.space, p, phi, (a, b))
    return MovingFrameResult(float_element(p.space, phi, (a, b)),
                             phi, a, b, residual)


def moving_frame(p: KTParams) -> MovingFrameResult:
    """The group element normalizing the three inhomogeneous parameters.

    Solves the closed-form normalization equations (angle first, then the
    translations, which depend on it) and validates by applying the element:
    the residual on the constrained parameters is the success criterion.
    """
    if p.space.kind == "euclidean":
        return _euclidean_frame(p)
    return _minkowski_frame(p)


# -- coordinate cross-sections ----------------------------------------------

class CrossSection(NamedTuple("CrossSection",
                              [("constraints",
                                tuple[tuple[int, Fraction], ...])])):
    """Constant constraints on nontrivial-space parameters, by index 0..4."""
    __slots__ = ()

    def __new__(cls, constraints: Sequence[tuple[int, Fraction]]):
        seen = set()
        fixed = []
        for idx, value in constraints:
            if not 0 <= idx <= 4:
                raise DomainError("cross-section indices must be in 0..4")
            if idx in seen:
                raise DomainError("duplicate cross-section constraint")
            seen.add(idx)
            fixed.append((idx, Fraction(value)))
        return super().__new__(cls, tuple(fixed))


def nontrivial_invariant_polynomials(space: Space) -> tuple[MultiPoly, ...]:
    """(I1, I3) restricted to the 5-parameter nontrivial subspace."""
    from .invariants import invariant_polynomials
    i1, _, i3 = invariant_polynomials(space)
    second = space.param_vars[1]
    bindings = {second: MultiPoly.zero()}
    return (i1.subst(bindings), i3.subst(bindings))


def validate_coordinate_cross_section(
        space: Space, cs: CrossSection,
        invariants: Optional[Sequence[MultiPoly]] = None,
        trials: int = 8) -> bool:
    """Check that constant constraints define a coordinate cross-section.

    True iff the Jacobian of the fundamental invariants with respect to the
    unconstrained parameters reaches full rank at a generic rational point
    of the section (exact rank; genericity by random sampling).
    """
    import random

    from .generators import jacobian_rank

    if invariants is None:
        invariants = nontrivial_invariant_polynomials(space)
    # Nontrivial-space coordinates reuse the first parameter symbol for the
    # trace-adjusted combination; the second symbol is pinned to zero.
    symbols = space.param_vars[:1] + space.param_vars[2:]
    constrained = {symbols[idx]: value for idx, value in cs.constraints}
    free = [s for s in symbols if s not in constrained]
    if len(free) < len(invariants):
        return False
    rng = random.Random(20240831)
    for _ in range(trials):
        point = dict(constrained)
        point.update({s: Fraction(rng.randint(1, 50), rng.randint(1, 7))
                      for s in free})
        if jacobian_rank(invariants, free, point) == len(invariants):
            return True
    return False


# -- canonical forms ---------------------------------------------------------

_EUCLIDEAN_CANONICAL = {
    "EC1": (1, 0, 0, 0, 0),
    "EC2": (0, 0, 0, 0, 1),
    "EC3": (0, 0, 0, 1, 0),
    "EC4": (1, 0, 0, 0, 1),
}

# Entries may reference k2 via the sentinel strings below.
_MINKOWSKI_CANONICAL = {
    "EC1": (1, 0, 0, 0, 0),
    "EC2": (0, 0, 0, 0, 1),
    "EC3": (Q(1, 2), Q(1, 4), Q(-1, 2), Q(1, 2), 0),
    "EC4": (0, 0, 0, 1, 0),
    "EC5": ("2k2", 0, 0, 0, Q(-1, 4)),
    "EC6": (Q(1, 4), Q(1, 4), 0, 0, Q(1, 4)),
    "EC7": (Q(-1, 2), Q(-1, 4), 0, 0, Q(1, 4)),
    "EC8": (0, "-k2", 0, 0, Q(1, 4)),
    "EC9": ("2k2", 0, 0, 0, Q(1, 4)),
    "EC10": ("-2k2", 0, 0, 0, Q(1, 4)),
}

K2_CLASSES = {"EC5", "EC8", "EC9", "EC10"}


def canonical_form(space: Space, ec: str,
                   k2: Optional[Fraction] = None) -> NontrivialKT:
    """The tabulated nontrivial representative of an equivalence class."""
    table = _EUCLIDEAN_CANONICAL if space.kind == "euclidean" \
        else _MINKOWSKI_CANONICAL
    ec = ec.upper()
    if ec not in table:
        raise DomainError(f"unknown equivalence class {ec!r} for {space.kind}")
    needs_k2 = space.kind == "minkowski" and ec in K2_CLASSES
    if needs_k2 and k2 is None:
        raise DomainError(f"{ec} requires a k2 value")
    if not needs_k2 and k2 is not None:
        raise DomainError(f"{ec} does not take a k2 value")
    if k2 is not None and Fraction(k2) <= 0:
        raise DomainError("k2 must be positive")
    values = []
    for entry in table[ec]:
        if entry == "2k2":
            values.append(2 * Fraction(k2))
        elif entry == "-2k2":
            values.append(-2 * Fraction(k2))
        elif entry == "-k2":
            values.append(-Fraction(k2))
        else:
            values.append(Fraction(entry))
    return NontrivialKT(space, tuple(values))


def canonical_params(space: Space, ec: str,
                     k2: Optional[Fraction] = None) -> KTParams:
    """The canonical representative embedded in the full 6-parameter space."""
    return embed_nontrivial(canonical_form(space, ec, k2))
