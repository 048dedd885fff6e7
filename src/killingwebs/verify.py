"""In-process verification suite backing the CLI's verify subcommand.

Each check is exact unless stated otherwise; the float checks use the
frame residual tolerance.  The suite is intentionally a subset of the test
suite that ships with the package: it contains the identities cheap enough
to re-run on demand in any installation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .classify import classify_full
from .frames import FrameDomainError, canonical_form, moving_frame
from .generators import (extended_generators, joint_generators,
                         sigma_generators, sigma_structure_constants,
                         verify_structure_constants)
from .invariants import (covariant_polynomials, fundamental_invariants,
                         invariant_polynomials, j2_oracle,
                         joint_invariant_polynomials, joint_invariants)
from .isometry import (IsometryElement, act_kt_params, act_kv_params,
                       compose, discrete_group_elements, discrete_act_params,
                       identity, inverse, rotation_from_parameter)
from .spaces import (EUCLIDEAN, MINKOWSKI, KTParams, KVParams, decompose,
                     embed_nontrivial, geodesic_poisson_check,
                     killing_residual, reconstruct, symbolic_killing_tensor)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _random_element(space, rng) -> IsometryElement:
    u = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if space.kind == "minkowski" and u <= 0:
        # -u is the same boost as u; -1/u is its inverse.
        u = -1 / u if u else Fraction(1)
    trans = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
             Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return rotation_from_parameter(space, u, trans)


def _random_params(space, rng) -> KTParams:
    return KTParams(space, tuple(
        Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(6)))


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
                  symbolic_killing_tensor(s))), ""))
        check(f"{space.kind}: symbolic geodesic Poisson bracket",
              lambda s=space: (geodesic_poisson_check(
                  symbolic_killing_tensor(s)).is_zero(), ""))
        check(f"{space.kind}: generator structure constants",
              lambda s=space: (all(
                  c.passed for v in (1, 2) for c in verify_structure_constants(
                      sigma_generators(s, v), sigma_structure_constants(s))), ""))
        check(f"{space.kind}: generators annihilate invariants",
              lambda s=space: (all(
                  g.apply(f.on_variables(g.domain)).is_zero()
                  for f in invariant_polynomials(s)
                  for g in sigma_generators(s, 2)), ""))
        check(f"{space.kind}: extended generators annihilate covariants",
              lambda s=space: (all(
                  g.apply(f.on_variables(g.domain)).is_zero()
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
              g.apply(f.on_variables(g.domain)).is_zero()
              for f in joint_invariant_polynomials()
              for g in joint_generators(EUCLIDEAN, (1, 2))), ""))
    check("J2 oracle selects exactly one candidate",
          lambda: (True, f"selected: {j2_oracle()[0]}"))

    def joint_invariance():
        for _ in range(trials):
            kv = KVParams(EUCLIDEAN, tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for _ in range(3)))
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
        expect_e = {"EC1": "Cartesian", "EC2": "Polar", "EC3": "Parabolic",
                    "EC4": "EllipticHyperbolic"}
        for ec, tag in expect_e.items():
            p = embed_nontrivial(canonical_form(EUCLIDEAN, ec))
            got = classify_full(p).web.tag
            if got != tag:
                return False, f"{ec}: {got}"
        expect_m = {"EC1": "EC1", "EC2": "EC2", "EC3": "EC3", "EC4": "EC4",
                    "EC5": "EC5_or_EC10", "EC6": "EC6_or_EC8", "EC7": "EC7",
                    "EC8": "EC6_or_EC8", "EC9": "EC9", "EC10": "EC5_or_EC10"}
        for ec, tag in expect_m.items():
            k2 = Fraction(1) if ec in ("EC5", "EC8", "EC9", "EC10") else None
            p = embed_nontrivial(canonical_form(MINKOWSKI, ec, k2))
            got = classify_full(p).web.tag
            if got != tag:
                return False, f"{ec}: {got}"
        return True, "all 14 canonical forms"
    check("canonical forms reproduce their table rows", table_reproduction)

    def discrete_classification():
        for ec in ("EC1", "EC2", "EC3", "EC4", "EC5", "EC6", "EC7", "EC8",
                   "EC9", "EC10"):
            k2 = Fraction(1) if ec in ("EC5", "EC8", "EC9", "EC10") else None
            p = embed_nontrivial(canonical_form(MINKOWSKI, ec, k2))
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
