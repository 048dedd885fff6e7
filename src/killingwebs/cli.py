"""Command-line front end.

Subcommands map one-to-one onto the engine operations; reports are
deterministic (no timestamps) and serialize rationals as strings so that
every printed value re-parses exactly.  Exit status: 0 success, 1 domain
error, 2 parse error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from typing import Optional

from .classify import classify_full
from .invariants import invariant_report, joint_invariants
from .poly import PolynomialError, parse_rational
from .spaces import (DomainError, KTParams, KVParams, NontrivialKT, decompose,
                     embed_nontrivial, parse_values, space_by_name)


def _lazy(name: str):
    """The submodule `name` of this package, registered in sys.modules and
    as a package attribute, but compiled and run only on first attribute
    access.  A module that is already imported is returned as it is."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# Only the subcommands other than `classify` need these (`isometry` through
# `frames` and `verify`), so a `classify` process never runs them.  Every
# module of the package is still in sys.modules after this import.
frames = _lazy("frames")
generators = _lazy("generators")
isometry = _lazy("isometry")
verify = _lazy("verify")

JOINT_NAMES = ("I1", "I2", "I3", "I4", "J1", "J2")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with status 2 already; keep the message on stderr.
        self.exit(2, f"{self.prog}: error: {message}\n")


def _emit(args, data: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        print(json.dumps(data))
    else:
        for line in text_lines:
            print(line)


def _fmt(value, mode: str) -> str | float:
    if mode == "float":
        return float(value)
    return str(value)


def _parse_kt(args) -> KTParams:
    return KTParams.parse(space_by_name(args.space), args.params)


def _cmd_invariants(args) -> int:
    rep = invariant_report(_parse_kt(args),
                           None if args.k2 is None else parse_rational(args.k2))
    data = {
        "space": rep.space.kind,
        "invariants": {"I1": _fmt(rep.i1, args.mode),
                       "I2": _fmt(rep.i2, args.mode),
                       "I3": _fmt(rep.i3, args.mode)},
        "sign_classes": {"C1": rep.sign_c1.value, "C2": rep.sign_c2.value},
    }
    if rep.aux is not None:
        data["auxiliary"] = {
            "I1_prime": _fmt(rep.aux.i1_prime, args.mode),
            "I2_prime": None if rep.aux.i2_prime is None
            else _fmt(rep.aux.i2_prime, args.mode),
            "Istar_literal": None if rep.aux.istar_literal is None
            else _fmt(rep.aux.istar_literal, args.mode),
            "Istar_canonical": None if rep.aux.istar_canonical is None
            else _fmt(rep.aux.istar_canonical, args.mode),
            "notes": list(rep.aux.notes),
        }
    lines = [f"I1 = {data['invariants']['I1']}",
             f"I2 = {data['invariants']['I2']}",
             f"I3 = {data['invariants']['I3']}",
             f"C1 sign class: {rep.sign_c1.value}",
             f"C2 sign class: {rep.sign_c2.value}"]
    if rep.aux is not None:
        lines.append(f"I1' = {data['auxiliary']['I1_prime']}")
        lines.append(f"I2' = {data['auxiliary']['I2_prime']}")
        lines.append(f"I* (literal) = {data['auxiliary']['Istar_literal']}")
    _emit(args, data, lines)
    return 0


def _cmd_covariants(args) -> int:
    rep = invariant_report(_parse_kt(args))
    data = {
        "space": rep.space.kind,
        "C1": rep.c1.pretty(),
        "C2": rep.c2.pretty(),
        "sign_classes": {"C1": rep.sign_c1.value, "C2": rep.sign_c2.value},
    }
    lines = [f"C1 = {data['C1']}  [{rep.sign_c1.value}]",
             f"C2 = {data['C2']}  [{rep.sign_c2.value}]"]
    if args.point is not None:
        u, w = rep.space.point_vars
        pu, pw = parse_values(args.point, 2)
        point = {u: pu, w: pw}
        vals = {}
        for name, poly in (("C1", rep.c1), ("C2", rep.c2)):
            value = poly.evaluate({s: point[s] for s in poly.used_variables()})
            vals[name] = _fmt(value, args.mode)
            lines.append(f"{name}({pu}, {pw}) = {vals[name]}")
        data["at_point"] = {"point": [str(pu), str(pw)], **vals}
    _emit(args, data, lines)
    return 0


def _classify_params(space, text: str) -> KTParams:
    n = len(text.split(","))
    if n == 5:
        return embed_nontrivial(NontrivialKT.parse(space, text))
    return KTParams.parse(space, text)


def _cmd_classify(args) -> int:
    space = space_by_name(args.space)
    if args.batch:
        try:
            with open(args.batch) as handle:
                entries = json.load(handle)
        except (OSError, ValueError) as exc:
            raise PolynomialError(f"cannot read batch file: {exc}") from None
        if not isinstance(entries, list):
            raise PolynomialError("batch file must hold a JSON array")
        for i, entry in enumerate(entries):
            if isinstance(entry, list):
                entry = ",".join(str(v) for v in entry)
            elif not isinstance(entry, str):
                raise PolynomialError(f"batch entry {i} is neither a string "
                                      "nor a list")
            print(json.dumps(classify_full(
                _classify_params(space, entry)).to_json_dict()))
        return 0
    p = _classify_params(space, args.params)
    report = classify_full(p)
    data = report.to_json_dict()
    lines = [f"class: {data['class']}"]
    if data["subtag"]:
        lines.append(f"subtag: {data['subtag']}")
    lines.append(f"l0: {data['l0']}")
    lines.append("invariants: " + ", ".join(
        f"{k} = {v}" for k, v in data["invariants"].items()))
    lines.append("sign classes: " + ", ".join(
        f"{k} {v}" for k, v in data["sign_classes"].items()))
    lines.append(f"eigen precondition: {data['eigen_precondition']}")
    for caveat in data["caveats"]:
        lines.append(f"caveat: {caveat}")
    _emit(args, data, lines)
    return 0


def _cmd_frame(args) -> int:
    result = frames.moving_frame(_parse_kt(args))
    data = {
        "angle": result.angle,
        "a": result.a,
        "b": result.b,
        "residual": result.residual,
        "ok": result.ok,
        "notes": list(result.notes),
    }
    lines = [f"angle = {result.angle!r}",
             f"a = {result.a!r}",
             f"b = {result.b!r}",
             f"residual = {result.residual:.3e} "
             f"({'ok' if result.ok else 'FAILED'})"]
    lines.extend(f"note: {n}" for n in result.notes)
    _emit(args, data, lines)
    return 0


def _cmd_canonical(args) -> int:
    space = space_by_name(args.space)
    k2 = None if args.k2 is None else parse_rational(args.k2)
    nt = frames.canonical_form(space, args.ec, k2)
    full = embed_nontrivial(nt)
    data = {"class": args.ec.upper(),
            "nontrivial": [str(v) for v in nt.values],
            "embedded": [str(v) for v in full.values]}
    lines = [f"nontrivial: {', '.join(data['nontrivial'])}",
             f"embedded:   {', '.join(data['embedded'])}"]
    _emit(args, data, lines)
    return 0


def _cmd_decompose(args) -> int:
    l0, nt = decompose(_parse_kt(args))
    data = {"l0": str(l0), "nontrivial": [str(v) for v in nt.values]}
    _emit(args, data, [f"l0 = {l0}",
                       f"nontrivial: {', '.join(data['nontrivial'])}"])
    return 0


def _cmd_generators(args) -> int:
    space = space_by_name(args.space)
    fields = generators.sigma_generators(space, args.valence)
    data = {"space": space.kind, "valence": args.valence,
            "generators": [f.pretty() for f in fields]}
    _emit(args, data, [f"V{i + 1} = {s}"
                       for i, s in enumerate(data["generators"])])
    return 0


def _cmd_orbit_dim(args) -> int:
    p = _parse_kt(args)
    fields = generators.sigma_generators(p.space, 2)
    at = dict(zip(p.space.param_vars, p.values))
    dim = generators.orbit_dimension(fields, at)
    _emit(args, {"orbit_dimension": dim}, [f"orbit dimension = {dim}"])
    return 0


def _cmd_joint(args) -> int:
    space = space_by_name(args.space)
    kv = KVParams.parse(space, args.kv)
    kt = KTParams.parse(space, args.kt)
    values = joint_invariants(kv, kt)
    data = {name: _fmt(v, args.mode)
            for name, v in zip(JOINT_NAMES, values)}
    _emit(args, data, [f"{name} = {data[name]}" for name in JOINT_NAMES])
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(trials=args.trials, seed=args.seed)
    if args.output == "json":
        print(json.dumps([{"name": r.name, "passed": r.passed,
                           "detail": r.detail} for r in results]))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            suffix = f"  ({r.detail})" if r.detail else ""
            print(f"{mark}  {r.name}{suffix}")
    passed, failed = verify.summarize(results)
    print(f"{passed} passed, {failed} failed", file=sys.stderr)
    return 0 if failed == 0 else 1


def run_suite(trials: int = 50, seed: int = 0):
    """The verification suite (`verify.run_suite`)."""
    return verify.run_suite(trials=trials, seed=seed)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="killingwebs",
                     description="Invariant classification of orthogonal "
                                 "coordinate webs in the plane.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--output", choices=("json", "text"), default="text")
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
        return p

    p = add("invariants", _cmd_invariants,
            help="fundamental invariants and covariant sign classes")
    p.add_argument("--space", required=True)
    p.add_argument("--params", required=True,
                   help="6 comma-separated rationals")
    p.add_argument("--k2", help="canonical scale for the auxiliary record")

    p = add("covariants", _cmd_covariants,
            help="covariant polynomials, optionally evaluated at a point")
    p.add_argument("--space", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--point", help="2 comma-separated rationals")

    p = add("classify", _cmd_classify, help="web classification report")
    p.add_argument("--space", required=True)
    p.add_argument("--params", help="6 (full) or 5 (nontrivial) rationals")
    p.add_argument("--batch", help="JSON file with a list of parameter "
                                   "vectors; emits JSON Lines")

    p = add("frame", _cmd_frame, help="moving-frame normalization (float)")
    p.add_argument("--space", required=True)
    p.add_argument("--params", required=True)

    p = add("canonical", _cmd_canonical,
            help="canonical representative of an equivalence class")
    p.add_argument("--space", required=True)
    p.add_argument("--ec", required=True)
    p.add_argument("--k2")

    p = add("decompose", _cmd_decompose,
            help="split off the metric multiple")
    p.add_argument("--space", required=True)
    p.add_argument("--params", required=True)

    p = add("generators", _cmd_generators,
            help="isometry generators on parameter space")
    p.add_argument("--space", required=True)
    p.add_argument("--valence", type=int, choices=(1, 2), default=2)

    p = add("orbit-dim", _cmd_orbit_dim,
            help="group orbit dimension at a parameter point")
    p.add_argument("--space", required=True)
    p.add_argument("--params", required=True)

    p = add("joint", _cmd_joint,
            help="joint invariants of a vector/tensor pair (Euclidean)")
    p.add_argument("--space", default="euclidean")
    p.add_argument("--kv", required=True, help="3 comma-separated rationals")
    p.add_argument("--kt", required=True, help="6 comma-separated rationals")

    p = add("verify", _cmd_verify, help="run the verification suite")
    p.add_argument("--trials", type=positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.subcommand == "classify" and not args.batch and not args.params:
        print("killingwebs: error: classify needs --params or --batch",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except PolynomialError as exc:
        print(f"killingwebs: parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"killingwebs: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
