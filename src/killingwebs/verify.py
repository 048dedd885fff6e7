"""In-process verification suite backing the CLI's verify subcommand.

Each check is exact unless stated otherwise; the float checks use the
frame residual tolerance.  The suite is intentionally a subset of the test
suite that ships with the package: it contains the identities cheap enough
to re-run on demand in any installation.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .classify import classify_full
from .frames import CANONICAL, FrameDomainError, canonical_form, moving_frame
from .generators import (extended_generators, joint_generators,
                         sigma_generators, sigma_structure_constants,
                         structure_residuals)
from .invariants import fundamental_invariants
from .isometry import (IsometryElement, act_kt_params, act_kv_params,
                       compose, discrete_group_elements, discrete_act_params,
                       identity, inverse, rotation_from_parameter)
from .spaces import (EUCLIDEAN, MINKOWSKI, KTParams, KVParams, decompose,
                     embed_nontrivial, reconstruct)
from .symbolic import (covariant_polynomials, geodesic_poisson_check,
                       invariant_polynomials, joint_invariant_polynomials,
                       joint_invariants, killing_residual,
                       symbolic_killing_tensor)


# name: str; passed: bool; detail: str.
CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


# Rows n = lo..hi of Fraction(n, d), d = 1..q.  Both randint and choice take
# one _randbelow, so rng.choice(rng.choice(rows)) draws as
# Fraction(rng.randint(lo, hi), rng.randint(1, q)) does, on the same stream.
_ANGLES, _SHIFTS, _PARAMS, _VECTORS = (
    tuple(tuple(Fraction(n, d) for d in range(1, q + 1))
          for n in range(lo, hi + 1))
    for lo, hi, q in ((-9, 9, 6), (-4, 4, 3), (-12, 12, 5), (-9, 9, 4)))


def _random_element(space, rng) -> IsometryElement:
    u = rng.choice(rng.choice(_ANGLES))
    if space.kind == "minkowski" and u <= 0:
        # -u is the same boost as u; -1/u is its inverse.
        u = -1 / u if u else Fraction(1)
    trans = (rng.choice(rng.choice(_SHIFTS)), rng.choice(rng.choice(_SHIFTS)))
    return rotation_from_parameter(space, u, trans)


def _random_params(space, rng) -> KTParams:
    return KTParams(space, tuple(
        rng.choice(rng.choice(_PARAMS)) for _ in range(6)))


def _canonical_rows(space):
    """(row, class, embedded canonical form); k2 = 1 where a row takes one."""
    for ec, (tag, _, per_k2) in CANONICAL[space.kind].items():
        k2 = Fraction(1) if any(per_k2) else None
        yield ec, tag, embed_nontrivial(canonical_form(space, ec, k2))


def run_suite(trials: int = 50, seed: int = 0) -> list[CheckResult]:
    """Run every check; each randomised one draws `trials` samples."""
    if trials < 1:
        # Zero samples would let every randomised check pass vacuously.
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    results = []

    def check(name, predicate):
        try:
            ok, detail = predicate()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail))

    for space in (EUCLIDEAN, MINKOWSKI):
        check(f"{space.kind}: symbolic Killing equation residual",
              lambda s=space: (all(r.is_zero() for r in killing_residual(
                  s, symbolic_killing_tensor(s))), ""))
        check(f"{space.kind}: symbolic geodesic Poisson bracket",
              lambda s=space: (geodesic_poisson_check(
                  s, symbolic_killing_tensor(s)).is_zero(), ""))
        check(f"{space.kind}: generator structure constants",
              lambda s=space: (all(
                  r.is_zero() for v in (1, 2) for r in structure_residuals(
                      sigma_generators(s, v),
                      sigma_structure_constants(s)).values()), ""))
        check(f"{space.kind}: generators annihilate invariants",
              lambda s=space: (all(g.apply(f).is_zero()
                                   for f in invariant_polynomials(s)
                                   for g in sigma_generators(s, 2)), ""))
        check(f"{space.kind}: extended generators annihilate covariants",
              lambda s=space: (all(g.apply(f).is_zero()
                                   for f in covariant_polynomials(s)
                                   for g in extended_generators(s)), ""))

        def invariance(s=space):
            for _ in range(trials):
                p = _random_params(s, rng)
                g = _random_element(s, rng)
                if fundamental_invariants(act_kt_params(g, p)) \
                        != fundamental_invariants(p):
                    return False, f"failed at {p.values}"
            return True, f"{trials} random (param, group) pairs"
        check(f"{space.kind}: exact invariance of I1, I2, I3", invariance)

        def group_law(s=space):
            for _ in range(trials):
                g, h, k = (_random_element(s, rng) for _ in range(3))
                if compose(compose(g, h), k) != compose(g, compose(h, k)):
                    return False, "associativity"
                if compose(g, inverse(g)) != identity(s):
                    return False, "inverse"
            return True, f"{trials} random triples"
        check(f"{space.kind}: exact group law", group_law)

        def frames(s=space):
            done, worst = 0, 0.0
            while done < trials:
                p = _random_params(s, rng)
                if p.values[5] == 0:
                    continue
                try:
                    r = moving_frame(p)
                except FrameDomainError:
                    continue
                done += 1
                worst = max(worst, r.residual)
            return worst <= 1e-9, f"worst residual {worst:.3e}"
        check(f"{space.kind}: moving frame residuals", frames)

        def round_trip(s=space):
            for _ in range(trials):
                p = _random_params(s, rng)
                if reconstruct(*decompose(p)) != p:
                    return False, str(p.values)
            return True, ""
        check(f"{space.kind}: decompose/reconstruct round trip", round_trip)

    check("joint generators annihilate all six joint invariants",
          lambda: (all(
              g.apply(f).is_zero() for f in joint_invariant_polynomials()
              for g in joint_generators(EUCLIDEAN, (1, 2))), ""))

    def joint_invariance():
        for _ in range(trials):
            kv = KVParams(EUCLIDEAN, tuple(
                rng.choice(rng.choice(_VECTORS)) for _ in range(3)))
            kt = _random_params(EUCLIDEAN, rng)
            g = _random_element(EUCLIDEAN, rng)
            if joint_invariants(act_kv_params(g, kv), act_kt_params(g, kt)) \
                    != joint_invariants(kv, kt):
                return False, ""
        return True, f"{trials} random pairs"
    check("exact invariance of joint invariants", joint_invariance)

    check("discrete group has order 8",
          lambda: (len(discrete_group_elements()) == 8, ""))

    def table_reproduction():
        for space in (EUCLIDEAN, MINKOWSKI):
            for ec, tag, p in _canonical_rows(space):
                got = classify_full(p).web.tag
                if got != tag:
                    return False, f"{ec}: {got}"
        return True, "all 14 canonical forms"
    check("canonical forms reproduce their table rows", table_reproduction)

    def discrete_classification():
        for ec, _, p in _canonical_rows(MINKOWSKI):
            base = classify_full(p).web.tag
            for r in discrete_group_elements():
                if classify_full(discrete_act_params(r, p)).web.tag != base:
                    return False, f"{ec} under {r.word}"
        return True, ""
    check("classification invariant under the discrete group",
          discrete_classification)

    return results


def summarize(results: list[CheckResult]) -> tuple[int, int]:
    passed = sum(1 for r in results if r.passed)
    return passed, len(results) - passed
