"""Seeded input corpora and reference answers, built without the program.

Everything here uses only `fractions.Fraction`: the Killing tensor field is
written out from its six parameters, pushed through an isometry at sample
points and read back.  No function of `killingwebs` is called, so a change
to the program cannot change the inputs or the references they are checked
against.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

SPACES = ("euclidean", "minkowski")
METRIC = {"euclidean": (1, 1), "minkowski": (1, -1)}

# Nontrivial canonical forms (p1, p3, p4, p5, p6); "k2" entries take a random
# positive scale.  The trace slot p2 is zero.
CANONICAL = {
    "euclidean": {
        "EC1": (1, 0, 0, 0, 0),
        "EC2": (0, 0, 0, 0, 1),
        "EC3": (0, 0, 0, 1, 0),
        "EC4": (1, 0, 0, 0, 1),
    },
    "minkowski": {
        "EC1": (1, 0, 0, 0, 0),
        "EC2": (0, 0, 0, 0, 1),
        "EC3": (Fraction(1, 2), Fraction(1, 4), Fraction(-1, 2),
                Fraction(1, 2), 0),
        "EC4": (0, 0, 0, 1, 0),
        "EC5": ("2k2", 0, 0, 0, Fraction(-1, 4)),
        "EC6": (Fraction(1, 4), Fraction(1, 4), 0, 0, Fraction(1, 4)),
        "EC7": (Fraction(-1, 2), Fraction(-1, 4), 0, 0, Fraction(1, 4)),
        "EC8": (0, "-k2", 0, 0, Fraction(1, 4)),
        "EC9": ("2k2", 0, 0, 0, Fraction(1, 4)),
        "EC10": ("-2k2", 0, 0, 0, Fraction(1, 4)),
    },
}

# A sparse Minkowski record with I1 = 0 whose covariant C2 is negative: the
# tables have no row for this sign pattern.  Its orbit images keep it.
GAP_BASE = (0, 3, Fraction(-1, 2), 1, 0, Fraction(1, 2))

# The class each canonical row must be reported as.  The Minkowski tables
# merge EC5 with EC10 and EC6 with EC8.
EXPECTED_CLASS = {
    "euclidean": {"EC1": "Cartesian", "EC2": "Polar", "EC3": "Parabolic",
                  "EC4": "EllipticHyperbolic"},
    "minkowski": {"EC1": "EC1", "EC2": "EC2", "EC3": "EC3", "EC4": "EC4",
                  "EC5": "EC5_or_EC10", "EC6": "EC6_or_EC8", "EC7": "EC7",
                  "EC8": "EC6_or_EC8", "EC9": "EC9", "EC10": "EC5_or_EC10"},
}


@dataclass(frozen=True)
class Record:
    index: int                      # position in the corpus
    space: str
    values: tuple[Fraction, ...]
    kind: str                       # dense | sparse | trivial | orbit | gap | discrete
    expected_class: Optional[str]   # None when only the closed forms apply

    def params_text(self) -> str:
        return ",".join(str(v) for v in self.values)

    def variant(self, k: int) -> "Record":
        """The record scaled by lambda = (-1)^k (1 + k // 2) and shifted by k
        times the metric: the same web, and the same expected class, as a
        distinct input for each k.  Variant 0 is the record itself, so a
        record timed k times never repeats an input.  A trivial record that
        the shift would take to zero is only scaled."""
        if k == 0:
            return self
        lam = (-1) ** k * (1 + k // 2)
        g = METRIC[self.space] + (0, 0, 0, 0)
        values = tuple(lam * v + k * gi for v, gi in zip(self.values, g))
        if not any(values):
            values = tuple(lam * v for v in self.values)
        return replace(self, values=values)


# -- the tensor field and its push-forward -------------------------------------

def components(space: str, v, u, w):
    """(K^00, K^01, K^11) of the general valence-2 Killing tensor at (u, w)."""
    v1, v2, v3, v4, v5, v6 = v
    k00 = v1 + 2 * v4 * w + v6 * w * w
    mixed = v4 * u + v5 * w + v6 * u * w
    k01 = v3 + mixed if space == "minkowski" else v3 - mixed
    k11 = v2 + 2 * v5 * u + v6 * u * u
    return k00, k01, k11


_READ_POINTS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
_CHECK_POINTS = ((1, 1), (2, -1), (-3, 2), (5, 7))


def read_params(space: str, field) -> tuple[Fraction, ...]:
    """Recover the six parameters of a tensor field given as a function of
    the point, and check that the field has the Killing tensor pattern."""
    at = {pt: field(*pt) for pt in _READ_POINTS}
    v1, v3, v2 = at[(0, 0)]
    v4 = (at[(0, 1)][0] - at[(0, -1)][0]) / 4
    v6 = (at[(0, 1)][0] + at[(0, -1)][0]) / 2 - v1
    v5 = (at[(1, 0)][2] - at[(-1, 0)][2]) / 4
    values = (v1, v2, v3, v4, v5, v6)
    for pt in _READ_POINTS + _CHECK_POINTS:
        if tuple(field(*pt)) != components(space, values, *pt):
            raise RuntimeError(f"push-forward left the Killing tensor pattern "
                               f"at {pt}")
    return values


def push_forward(space: str, values, jac, trans=(0, 0)) -> tuple[Fraction, ...]:
    """Parameters of J K(J^-1 (y - t)) J^T for the point map y = J x + t."""
    (j00, j01), (j10, j11) = jac
    det = Fraction(j00 * j11 - j01 * j10)
    inv = ((j11 / det, -j01 / det), (-j10 / det, j00 / det))
    a, b = trans

    def field(y0, y1):
        x0 = inv[0][0] * (y0 - a) + inv[0][1] * (y1 - b)
        x1 = inv[1][0] * (y0 - a) + inv[1][1] * (y1 - b)
        k00, k01, k11 = components(space, values, x0, x1)
        # J K J^T for the symmetric K = [[k00, k01], [k01, k11]].
        r00 = j00 * k00 + j01 * k01
        r01 = j00 * k01 + j01 * k11
        r10 = j10 * k00 + j11 * k01
        r11 = j10 * k01 + j11 * k11
        return (r00 * j00 + r01 * j01, r00 * j10 + r01 * j11,
                r10 * j10 + r11 * j11)

    return read_params(space, field)


def rotation(space: str, u: Fraction):
    """Exact rotation (Euclidean) or boost (Minkowski) from a rational u."""
    if space == "euclidean":
        den = 1 + u * u
        c, s = (1 - u * u) / den, 2 * u / den
        return ((c, -s), (s, c))
    c, s = (u + 1 / u) / 2, (u - 1 / u) / 2
    return ((c, s), (s, c))


# The eight signed permutation matrices: reflections of either axis and the
# coordinate swap.  In the Minkowski plane the swap reverses the metric's
# sign, which maps Killing tensors to Killing tensors and keeps the web.
DISCRETE = tuple(
    m for e0 in (1, -1) for e1 in (1, -1)
    for m in (((e0, 0), (0, e1)), ((0, e0), (e1, 0))))


# -- closed-form references ---------------------------------------------------

def invariants(space: str, v) -> tuple[Fraction, Fraction, Fraction]:
    """(I1, I2, I3) from the closed forms."""
    v1, v2, v3, v4, v5, v6 = v
    if space == "euclidean":
        quad = v6 * (v1 - v2) + v5 * v5 - v4 * v4
        cross = v3 * v6 + v4 * v5
        return (quad * quad + 4 * cross * cross,
                v6 * (v1 + v2) - v4 * v4 - v5 * v5, Fraction(v6))
    quad = v4 * v4 + v5 * v5 - v6 * (v1 + v2)
    cross = v3 * v6 - v4 * v5
    return (quad * quad - 4 * cross * cross,
            v6 * (v1 - v2) - v4 * v4 + v5 * v5, Fraction(v6))


def l0(space: str, v) -> Fraction:
    """Coefficient of the metric in the trace split."""
    return Fraction(v[1]) if space == "euclidean" else -Fraction(v[1])


def is_trivial(space: str, v) -> bool:
    """True iff the tensor is a multiple of the metric."""
    g0, g1 = METRIC[space]
    return v[0] * g1 == v[1] * g0 and not any(v[2:])


def euclidean_table(i1: Fraction, i3: Fraction) -> str:
    """The Euclidean (I1 = 0, I3 = 0) invariant table."""
    if i1 == 0:
        return "Cartesian" if i3 == 0 else "Polar"
    return "Parabolic" if i3 == 0 else "EllipticHyperbolic"


def _canonical_str(text: str) -> bool:
    try:
        return str(Fraction(text)) == text
    except (ValueError, ZeroDivisionError):
        return False


def check_answer(record: Record, out: dict) -> list[str]:
    """Disagreements between one classification output and the references;
    an empty list means the answer is right."""
    problems = []
    try:
        rationals = list(out["input"]) + [out["l0"]] + [
            out["invariants"][k] for k in ("I1", "I2", "I3")]
        rationals += [x for x in (out.get("auxiliary") or {}).values()
                      if x is not None]
        if not all(isinstance(x, str) and _canonical_str(x) for x in rationals):
            problems.append("a rational does not round-trip through Fraction")
            return problems
        v = record.values
        if out["space"] != record.space:
            problems.append("space")
        if [Fraction(x) for x in out["input"]] != list(v):
            problems.append("input echo")
        if Fraction(out["l0"]) != l0(record.space, v):
            problems.append("l0")
        i1, i2, i3 = invariants(record.space, v)
        got = tuple(Fraction(out["invariants"][k]) for k in ("I1", "I2", "I3"))
        if got != (i1, i2, i3):
            problems.append("invariants")
        cls = out["class"]
        if is_trivial(record.space, v):
            if cls != "trivial":
                problems.append(f"trivial input reported as {cls}")
        elif cls == "trivial":
            problems.append("nontrivial input reported as trivial")
        elif record.space == "euclidean" and cls != euclidean_table(i1, i3):
            problems.append(f"class {cls} off the (I1, I3) table")
        if record.expected_class is not None and cls != record.expected_class:
            problems.append(f"class {cls}, expected {record.expected_class}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


# -- generators ---------------------------------------------------------------

def _rat(rng: random.Random, lo: int, hi: int, qmax: int,
         nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, qmax))
        if value or not nonzero:
            return value


def _canonical(space: str, ec: str, k2: Fraction) -> tuple[Fraction, ...]:
    table = {"2k2": 2 * k2, "-2k2": -2 * k2, "-k2": -k2}
    p1, p3, p4, p5, p6 = (table[e] if isinstance(e, str) else Fraction(e)
                          for e in CANONICAL[space][ec])
    return (p1, Fraction(0), p3, p4, p5, p6)


def _orbit_image(rng: random.Random, space: str, base) -> tuple[Fraction, ...]:
    """Move by a random exact rotation or boost with a translation, scale by
    lambda != 0 and add a multiple of the metric."""
    u = _rat(rng, 1, 9, 7, nonzero=True)
    if space == "euclidean" and rng.random() < 0.5:
        u = -u
    trans = (_rat(rng, -9, 9, 5), _rat(rng, -9, 9, 5))
    moved = push_forward(space, base, rotation(space, u), trans)
    lam = _rat(rng, -9, 9, 7, nonzero=True)
    mu = _rat(rng, -9, 9, 7)
    g = METRIC[space] + (0, 0, 0, 0)
    return tuple(lam * m + mu * gi for m, gi in zip(moved, g))


def _interleave(groups: list[list]) -> list:
    """Round-robin merge, so every stretch of the corpus has the same mix."""
    out, longest = [], max((len(g) for g in groups), default=0)
    for i in range(longest):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def _dense(rng, space, count):
    return [(space, tuple(_rat(rng, -12, 12, 5, nonzero=True)
                          for _ in range(6)), "dense", None)
            for _ in range(count)]


def _sparse(rng, space, count):
    out = []
    while len(out) < count:
        v = tuple(_rat(rng, -6, 6, 4) if rng.random() < 0.5 else Fraction(0)
                  for _ in range(6))
        if any(v):
            out.append((space, v, "sparse", None))
    return out


def _trivial(rng, space, count):
    g = METRIC[space] + (0, 0, 0, 0)
    return [(space, tuple(mu * gi for gi in g), "trivial", "trivial")
            for mu in (_rat(rng, -9, 9, 7, nonzero=True) for _ in range(count))]


def _orbits(rng, space, per_row):
    out = []
    for _ in range(per_row):
        for ec in CANONICAL[space]:
            base = _canonical(space, ec, _rat(rng, 1, 30, 9, nonzero=True))
            out.append((space, _orbit_image(rng, space, base), "orbit",
                        EXPECTED_CLASS[space][ec]))
    return out


def _gaps(rng, count):
    """Orbit images of GAP_BASE, so that every strata corpus holds the
    table gap; only about 0.6% of sparse Minkowski records fall in it."""
    base = tuple(Fraction(v) for v in GAP_BASE)
    return [("minkowski", _orbit_image(rng, "minkowski", base), "gap", None)
            for _ in range(count)]


def _discrete(rng, space):
    out = []
    for ec in CANONICAL[space]:
        base = _canonical(space, ec, _rat(rng, 1, 30, 9, nonzero=True))
        out.extend((space, push_forward(space, base, m), "discrete",
                    EXPECTED_CLASS[space][ec]) for m in DISCRETE)
    return out


def build(workload: str, seed: int, scale: float = 1.0) -> list[Record]:
    """The corpus of a workload.  `scale` shrinks it for the smoke test.

    dense:  all six slots nonzero, p/q with |p| <= 12 and q <= 5; 112
            Euclidean and 80 Minkowski records, so that the median latency
            falls inside the slower Euclidean cluster, not in the gap
            between the two spaces' clusters.
    strata: per space 96 records: orbit images of every canonical row,
            sparse records with about half the slots zero, metric
            multiples, and in the Minkowski plane eight orbit images of the
            table gap.

    The corpora are large so that the latency percentiles over their
    records change little from one seed to the next.
    verify: the canonical rows and their images under the eight signed
            permutations, the inputs the verify suite itself classifies.
    """
    rng = random.Random(f"{workload}:{seed}")

    def n(count):
        return max(1, round(count * scale))

    per_space = []
    for space in SPACES:
        if workload == "dense":
            groups = [_dense(rng, space,
                             n(112 if space == "euclidean" else 80))]
        elif workload == "strata":
            euclidean = space == "euclidean"
            groups = [_orbits(rng, space, n(12 if euclidean else 4)),
                      _sparse(rng, space, n(36 if euclidean else 40)),
                      _trivial(rng, space, n(12 if euclidean else 8))]
            if space == "minkowski":
                groups.append(_gaps(rng, n(8)))
        elif workload == "verify":
            groups = [_discrete(rng, space)]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        per_space.append(_interleave(groups))
    return [Record(i, space, values, kind, expected)
            for i, (space, values, kind, expected)
            in enumerate(_interleave(per_space))]


def digest(records: list[Record]) -> str:
    """SHA-256 over the inputs and expected classes of a corpus."""
    text = json.dumps([[r.space, r.params_text(), r.kind, r.expected_class]
                       for r in records])
    return hashlib.sha256(text.encode()).hexdigest()
