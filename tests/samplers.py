"""Seeded samplers shared by the test modules.

Each draws from the `random.Random` it is given, so a test's inputs are
fixed by its seed.  `killingwebs.verify` keeps a sampler of its own: its
translation range differs, and its goldens pin its stream.
"""

from fractions import Fraction

from killingwebs.classify import classify_euclidean, classify_minkowski
from killingwebs.frames import K2_CLASSES, canonical_form
from killingwebs.isometry import rotation_from_parameter
from killingwebs.spaces import KTParams, decompose


def random_element(space, rng):
    """An exact group element with small rational parameter and shift."""
    u = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if space.kind == "minkowski" and u <= 0:
        # -u is the same boost as u; -1/u is its inverse.
        u = -1 / u if u else Fraction(1)
    trans = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
             Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return rotation_from_parameter(space, u, trans)


def random_params(space, rng):
    """Six dense small-height rationals."""
    return KTParams(space, tuple(
        Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(6)))


def canonical(space, ec, k2=None):
    """The tabulated representative, with k2 = 1 where the row needs one."""
    if space.kind == "minkowski" and ec in K2_CLASSES and k2 is None:
        k2 = Fraction(1)
    return canonical_form(space, ec, k2)


def classify_tag(p: KTParams):
    """The table tag of the nontrivial part of `p`."""
    nt = decompose(p)[1]
    if p.space.kind == "euclidean":
        return classify_euclidean(nt).tag
    return classify_minkowski(nt)[0].tag
