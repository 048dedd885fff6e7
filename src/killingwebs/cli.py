"""Command-line front end.

`COMMANDS` lists the subcommands, each with its handler, help text and
arguments; every handler runs one engine operation.  Reports are
deterministic (no timestamps) and serialize rationals as strings so that
every printed value re-parses exactly.  Exit status: 0 success, 1 domain
error, 2 parse error; a batch exits with the highest among its records.

This module holds only what a `classify` call runs: the entry point, the
parser and `classify`'s handler.  The other handlers live in `commands`,
which is registered here but run on first use, so a `classify` process
does not compile them.  Only usage, help and errors import argparse and
build its parser: `_parse` reads a well-formed line off `COMMANDS`.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import _lazy
from .classify import classify_full
from .spaces import (DomainError, KTParams, NontrivialKT, PolynomialError,
                     _emit, embed_nontrivial, space_by_name)

# Only the subcommands other than `classify` need these (their handlers in
# `commands`; `isometry` through `frames` and `verify`; `run_suite` reads
# `verify` directly), so a `classify` process never runs them.  Every
# module of the package is still in sys.modules after this import.
commands = _lazy("commands")
_lazy("frames")
_lazy("generators")
_lazy("isometry")
verify = _lazy("verify")


def __getattr__(name: str):
    """`_Parser`, the argparse parser class, defined on first use."""
    if name != "_Parser":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import argparse
    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            # argparse exits with status 2 already; keep the message on stderr.
            self.exit(2, f"{self.prog}: error: {message}\n")
    globals()[name] = _Parser
    return _Parser


def _classify_params(space, entry) -> KTParams:
    """6 (full) or 5 (nontrivial) rationals, in a string or a list.  A
    finite float in a list is read as the decimal written: the float range
    bounds its exponent.  inf and nan are left to fail as literals."""
    if not isinstance(entry, str):
        from fractions import Fraction      # `spaces` has loaded it
        entry = ",".join(str(Fraction(repr(v)) if isinstance(v, float)
                             and v - v == 0 else v) for v in entry)
    if len(entry.split(",")) == 5:
        return embed_nontrivial(NontrivialKT.parse(space, entry))
    return KTParams.parse(space, entry)


def _failure(exc: ValueError) -> tuple[str, str, int]:
    """The kind, message and exit status of an error a command ends in."""
    if isinstance(exc, PolynomialError):
        return "parse", str(exc), 2
    if isinstance(exc, DomainError):
        return "domain", str(exc), 1
    if "integer string conversion" not in str(exc):     # str() of a long int
        raise exc                       # any other is a fault of the program
    return "too_large", ("a value has too many digits to print (over "
                         f"{sys.get_int_max_str_digits()})"), 1


def _cmd_classify(args) -> int:
    if (args.params is None) == (args.batch is None):
        print("killingwebs: error: classify " + (
            "needs --params or --batch" if args.params is None
            else "takes --params or --batch, not both"), file=sys.stderr)
        return 2
    space = space_by_name(args.space)
    if args.batch is not None:
        try:
            with open(args.batch) as handle:
                entries = json.load(handle)
        except (OSError, ValueError) as exc:
            raise PolynomialError(f"cannot read batch file: {exc}") from None
        if not isinstance(entries, list):
            raise PolynomialError("batch file must hold a JSON array")
        status = 0              # one line per entry: its report or its error
        for i, entry in enumerate(entries):
            try:
                if not isinstance(entry, (str, list)):
                    raise PolynomialError(f"batch entry {i} is neither a "
                                          "string nor a list")
                data = classify_full(
                    _classify_params(space, entry)).to_json_dict()
            except ValueError as exc:
                kind, message, code = _failure(exc)
                status = max(status, code)
                data = {"index": i, "input": entry,
                        "error": {"kind": kind, "message": message}}
            print(json.dumps(data))
        return status
    data = classify_full(_classify_params(space, args.params)).to_json_dict()
    lines = [f"class: {data['class']}", f"l0: {data['l0']}"]
    lines.append("invariants: " + ", ".join(
        f"{k} = {v}" for k, v in data["invariants"].items()))
    lines.append("sign classes: " + ", ".join(
        f"{k} {v}" for k, v in data["sign_classes"].items()))
    lines.append(f"eigen precondition: {data['eigen_precondition']}")
    for caveat in data["caveats"]:
        lines.append(f"caveat: {caveat}")
    _emit(args, data, lines)
    return 0


def run_suite(trials: int = 50, seed: int = 0):
    """The verification suite (`verify.run_suite`), under the name the
    benchmark's traced run calls."""
    return verify.run_suite(trials=trials, seed=seed)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        import argparse
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


SPACE = ("--space", {"required": True})
PARAMS = ("--params", {"required": True})
OUTPUT = ("--output", {"choices": ("json", "text"), "default": "text"})
MODE = ("--mode", {"choices": ("exact", "float"), "default": "exact"})

# name -> (handler, help, takes --mode, arguments), in the order of the
# usage line.  Each takes OUTPUT too, and MODE where its handler reads it.
# A handler named by a string is looked up on `commands`.  Each argument is
# (flag, keyword arguments of `add_argument`).
COMMANDS = {
    "invariants": (
        "_cmd_invariants", "fundamental invariants and covariant sign classes",
        True, (SPACE, ("--params", {"required": True,
                                    "help": "6 comma-separated rationals"}))),
    "covariants": (
        "_cmd_covariants",
        "covariant polynomials, optionally evaluated at a point", True,
        (SPACE, PARAMS, ("--point", {"help": "2 comma-separated rationals"}))),
    "classify": (
        _cmd_classify, "web classification report", False,
        (SPACE,
         ("--params", {"help": "6 (full) or 5 (nontrivial) rationals"}),
         ("--batch", {"help": "JSON file with a list of parameter vectors; "
                              "emits JSON Lines"}))),
    "frame": ("_cmd_frame", "moving-frame normalization (float)", False,
              (SPACE, PARAMS)),
    "canonical": (
        "_cmd_canonical", "canonical representative of an equivalence class",
        False, (SPACE, ("--ec", {"required": True}), ("--k2", {}))),
    "decompose": ("_cmd_decompose", "split off the metric multiple", False,
                  (SPACE, PARAMS)),
    "generators": (
        "_cmd_generators", "isometry generators on parameter space", False,
        (SPACE, ("--valence", {"type": int, "choices": (1, 2),
                               "default": 2}))),
    "orbit-dim": (
        "_cmd_orbit_dim", "group orbit dimension at a parameter point", False,
        (SPACE, PARAMS)),
    "joint": (
        "_cmd_joint", "joint invariants of a vector/tensor pair (Euclidean)",
        True, (("--space", {"default": "euclidean"}),
               ("--kv", {"required": True,
                         "help": "3 comma-separated rationals"}),
               ("--kt", {"required": True,
                         "help": "6 comma-separated rationals"}))),
    "verify": (
        "_cmd_verify", "run the verification suite", False,
        (("--trials", {"type": positive_int, "default": 50}),
         ("--seed", {"type": int, "default": 0}))),
}


def _arguments(command: str) -> tuple:
    """`command`'s arguments, in the order of its usage line."""
    _, _, mode, arguments = COMMANDS[command]
    return (OUTPUT, MODE, *arguments) if mode else (OUTPUT, *arguments)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser: every subcommand with its help and arguments."""
    parser = (globals().get("_Parser") or __getattr__("_Parser"))(
        prog="killingwebs", description="Invariant classification of "
        "orthogonal coordinate webs in the plane.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, kwargs in _arguments(name):
            p.add_argument(flag, **kwargs)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """What argparse returns for a command, then each of its flags at most
    once as --flag=value or --flag value (no leading "-"), the required ones
    given and every value converting and in its choices; else None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    specs, given, words = dict(_arguments(argv[0])), {}, iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        value = value if eq else next(words, "-")
        if (flag not in specs or flag in given
                or not eq and value.startswith("-")):
            return None
        given[flag] = value
    args = SimpleNamespace(subcommand=argv[0])
    for flag, kwargs in specs.items():
        value = kwargs.get("default")
        if flag in given:
            try:
                value = kwargs.get("type", str)(given[flag])
            except Exception:       # argparse reports it, or raises it
                return None
        if (kwargs.get("required") and flag not in given
                or value not in kwargs.get("choices", (value,))):
            return None
        setattr(args, flag[2:], value)
    return args


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if (args := _parse(argv)) is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    handler = COMMANDS[args.subcommand][0]
    if isinstance(handler, str):
        handler = getattr(commands, handler)
    try:
        return handler(args)
    except ValueError as exc:
        kind, message, status = _failure(exc)
        prefix = "parse error: " if kind == "parse" else ""
        print(f"killingwebs: {prefix}{message}", file=sys.stderr)
        return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
