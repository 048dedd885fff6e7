"""The handlers of every subcommand but `classify`.

`cli` registers this module without running it, so a `classify` process
compiles none of this; the first other subcommand runs it.  Each handler
takes the parsed arguments and returns the exit status.
"""

from __future__ import annotations

import sys

from . import frames, generators, symbolic, verify
from .invariants import covariant_sign_classes, invariant_report
from .spaces import (DomainError, KTParams, KVParams, _emit, decompose,
                     embed_nontrivial, parse_rational, parse_values,
                     space_by_name)

JOINT_NAMES = ("I1", "I2", "I3", "I4", "J1", "J2")


def _fmt(value, mode: str) -> str | float:
    if mode == "float":
        try:
            return float(value)
        except OverflowError:
            raise DomainError("a value lies beyond the float range; "
                              "use --mode exact") from None
    return str(value)


def _parse_kt(args) -> KTParams:
    return KTParams.parse(space_by_name(args.space), args.params)


def _cmd_invariants(args) -> int:
    rep = invariant_report(_parse_kt(args))
    data = {"space": rep.space.kind,
            **rep.to_json_dict(lambda value: _fmt(value, args.mode))}
    lines = [f"{name} = {value}"
             for name, value in data["invariants"].items()]
    lines += [f"{name} sign class: {value}"
              for name, value in data["sign_classes"].items()]
    lines += [name.replace("_prime", "'") + f" = {value}"
              for name, value in data.get("auxiliary", {}).items()]
    _emit(args, data, lines)
    return 0


def _cmd_covariants(args) -> int:
    p = _parse_kt(args)
    c1, c2 = symbolic.fundamental_covariants(p)
    s1, s2 = covariant_sign_classes(p)
    data = {
        "space": p.space.kind,
        "C1": c1.pretty(),
        "C2": c2.pretty(),
        "sign_classes": {"C1": s1.value, "C2": s2.value},
    }
    lines = [f"C1 = {data['C1']}  [{s1.value}]",
             f"C2 = {data['C2']}  [{s2.value}]"]
    if args.point is not None:
        u, w = p.space.point_vars
        pu, pw = parse_values(args.point, 2)
        point = {u: pu, w: pw}
        vals = {}
        for name, poly in (("C1", c1), ("C2", c2)):
            value = poly.evaluate({s: point[s] for s in poly.variables})
            vals[name] = _fmt(value, args.mode)
            lines.append(f"{name}({pu}, {pw}) = {vals[name]}")
        data["at_point"] = {"point": [str(pu), str(pw)], **vals}
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
    values = symbolic.joint_invariants(kv, kt)
    data = {name: _fmt(v, args.mode)
            for name, v in zip(JOINT_NAMES, values)}
    _emit(args, data, [f"{name} = {data[name]}" for name in JOINT_NAMES])
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(trials=args.trials, seed=args.seed)
    _emit(args, [r._asdict() for r in results],
          [f"{'PASS' if r.passed else 'FAIL'}  {r.name}"
           + (f"  ({r.detail})" if r.detail else "") for r in results])
    passed, failed = verify.summarize(results)
    print(f"{passed} passed, {failed} failed", file=sys.stderr)
    return 0 if failed == 0 else 1
