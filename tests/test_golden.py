"""Byte-identity of the CLI's default outputs against recorded goldens.

`tests/data/golden_cli.jsonl` holds one JSON object per CLI invocation:
the argument list, the exit status and the exact stdout and stderr.  The
tests replay every invocation in-process and compare all four.  The
goldens pin the JSON lines of `classify`, the table-gap error message and
status, the text output of `classify`, `covariants --point` and
`invariants`, the `verify` suite's report (JSON and text), `joint`
(exact and float), `generators`, `orbit-dim` and `frame` (whose float
`repr`s pin the float parameter action), so a faster evaluation path has
to reproduce them byte for byte.

Regenerate (only when an output change is intended, and say so in the
change log) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import random
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from killingwebs.cli import run
from killingwebs.frames import canonical_form
from killingwebs.isometry import (IsometryElement, act_kt_params,
                                  rotation_from_parameter)
from killingwebs.spaces import embed_nontrivial, space_by_name

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.jsonl"

SPACES = ("euclidean", "minkowski")
EUCLIDEAN_ROWS = ("EC1", "EC2", "EC3", "EC4")
MINKOWSKI_ROWS = ("EC1", "EC2", "EC3", "EC4", "EC5", "EC6", "EC7", "EC8",
                  "EC9", "EC10")
K2_ROWS = ("EC5", "EC8", "EC9", "EC10")
TABLE_GAP = ["classify", "--space", "minkowski", "--params=0,2,-1,0,0,3/2"]
ROWS = ([("euclidean", ec, None) for ec in EUCLIDEAN_ROWS]
        + [("minkowski", ec, k2) for ec in MINKOWSKI_ROWS
           for k2 in ((Fraction(1), Fraction(4), Fraction(1, 16))
                      if ec in K2_ROWS else (None,))])


def _text(values) -> str:
    return ",".join(str(v) for v in values)


def _rational(rng, height, den_height) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, den_height))


def _inputs() -> list[tuple[str, list[str]]]:
    """(section, argv) for every recorded invocation, from a fixed seed."""
    rng = random.Random(20040716)
    out = []

    def classify(space, values, section="classify-json", output="json"):
        out.append((section, ["classify", "--space", space,
                              f"--params={_text(values)}",
                              "--output", output]))

    for space in SPACES:
        for _ in range(20):                          # dense, small heights
            classify(space, [_rational(rng, 12, 5) for _ in range(6)])
        for _ in range(12):                          # sparse, with zeros
            classify(space, [_rational(rng, 9, 4) if rng.random() < 0.4
                             else 0 for _ in range(6)])
        for _ in range(8):                           # heights up to 10^6
            classify(space, [_rational(rng, 10 ** 6, 10 ** 6)
                             for _ in range(6)])
        l0 = _rational(rng, 7, 3)                    # trivial inputs
        metric = (1, 1) if space == "euclidean" else (1, -1)
        classify(space, [l0 * metric[0], l0 * metric[1], 0, 0, 0, 0])
        classify(space, [0] * 6)
        for _ in range(4):                           # five nontrivial slots
            classify(space, [_rational(rng, 12, 5) for _ in range(5)])
    for space, ec, k2 in ROWS:                       # the canonical rows
        classify(space, canonical_form(space_by_name(space), ec, k2).values)
    for space, ec, k2 in ROWS:                       # and dense orbit images
        p = embed_nontrivial(canonical_form(space_by_name(space), ec, k2))
        u = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        trans = (_rational(rng, 4, 3), _rational(rng, 4, 3))
        g = IsometryElement(p.space, rotation_from_parameter(p.space, u).rot,
                            trans)
        classify(space, act_kt_params(g, p).scale(_rational(rng, 5, 3)
                                                  or Fraction(1)).values)

    out.append(("table-gap", TABLE_GAP))
    for space in SPACES:
        for _ in range(3):
            classify(space, [_rational(rng, 12, 5) for _ in range(6)],
                     section="classify-text", output="text")
        params = [_text([0, 0, 0, 0, 0, 1]), _text([1, 2, 3, 4, 5, 6])]
        params += [_text([_rational(rng, 12, 5) for _ in range(6)])
                   for _ in range(3)]
        for text in params:
            out.append(("covariants-text",
                        ["covariants", "--space", space, f"--params={text}",
                         "--point", "3,4"]))
            out.append(("invariants-text",
                        ["invariants", "--space", space, f"--params={text}"]))
    out.append(("invariants-text",
                ["invariants", "--space", "minkowski",
                 "--params=0,0,-1,0,0,1/4", "--k2", "1/2"]))
    out += _suite_inputs()
    out += _frame_inputs()
    return out


def _suite_inputs() -> list[tuple[str, list[str]]]:
    """The verify suite, joint invariants, generators and orbit dimensions;
    a generator of their own so the sections above keep their inputs."""
    rng = random.Random(20040717)
    out = []
    for seed in ("0", "1"):
        for output in ("json", "text"):
            out.append(("verify", ["verify", "--trials", "10", "--seed", seed,
                                   "--output", output]))
    pairs = [([0, 0, 0], [0] * 6), ([1, 2, 3], [1, 2, 3, 4, 5, 6]),
             ([0, 0, 1], [0, 0, 0, 0, 0, 1])]
    pairs += [([_rational(rng, 9, 4) for _ in range(3)],
               [_rational(rng, 12, 5) for _ in range(6)]) for _ in range(3)]
    pairs += [([_rational(rng, 9, 4) if rng.random() < 0.5 else 0
                for _ in range(3)],
               [_rational(rng, 9, 4) if rng.random() < 0.4 else 0
                for _ in range(6)]) for _ in range(3)]
    pairs += [([_rational(rng, 10 ** 6, 10 ** 6) for _ in range(3)],
               [_rational(rng, 10 ** 6, 10 ** 6) for _ in range(6)])
              for _ in range(3)]
    for i, (kv, kt) in enumerate(pairs):
        argv = ["joint", f"--kv={_text(kv)}", f"--kt={_text(kt)}"]
        out.append(("joint", argv + ["--output", "json"]))
        out.append(("joint", argv + ["--output", "text"]))
        if i % 3 == 2:
            out.append(("joint", argv + ["--output", "json",
                                         "--mode", "float"]))
    out.append(("joint", ["joint", "--space", "minkowski", "--kv=1,2,3",
                          "--kt=1,2,3,4,5,6"]))       # a Euclidean statement
    for space in SPACES:
        for valence in ("1", "2"):
            for output in ("json", "text"):
                out.append(("generators",
                            ["generators", "--space", space, "--valence",
                             valence, "--output", output]))
        params = [[0] * 6, [1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                  [0, 0, 0, 0, 0, 1]]
        params += [[_rational(rng, 12, 5) for _ in range(6)]
                   for _ in range(3)]
        for values in params:
            out.append(("orbit-dim", ["orbit-dim", "--space", space,
                                      f"--params={_text(values)}",
                                      "--output", "json"]))
    return out


def _frame_inputs() -> list[tuple[str, list[str]]]:
    """Moving frames, from a generator of their own.  Their output prints
    float `repr`s, so it pins the float parameter action bit for bit."""
    rng = random.Random(20040718)
    out = []

    def frame(space, values, output="json"):
        out.append(("frame", ["frame", "--space", space,
                              f"--params={_text(values)}",
                              "--output", output]))

    for space, ec, k2 in ROWS:                       # the canonical rows
        frame(space, embed_nontrivial(
            canonical_form(space_by_name(space), ec, k2)).values)
    for space in SPACES:
        for output in ("json", "text"):
            for _ in range(12 if output == "json" else 4):   # dense
                frame(space, [_rational(rng, 12, 5) for _ in range(6)],
                      output)
            for _ in range(6 if output == "json" else 2):    # up to 10^6
                frame(space, [_rational(rng, 10 ** 6, 10 ** 6)
                              for _ in range(6)], output)
            frame(space, [0, 0, 0, 0, 0, 1], output)  # zero angle
    for output in ("json", "text"):
        # Euclidean quarter-angle branch: b1 = b2 and b4 = b5, b3 != 0.
        frame("euclidean", [1, 1, 1, 0, 0, 1], output)
        b = _rational(rng, 12, 5)
        frame("euclidean", [b, b, _rational(rng, 12, 5) or 1, 2, 2, 3],
              output)
        # Minkowski arctanh domain: infinite and finite arguments.
        frame("minkowski", [0, 0, 1, 0, 0, 1], output)
        frame("minkowski", [1, 0, 1, 0, 0, 1], output)
    return out


def _invoke(argv: list[str]) -> dict:
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        status = run(argv)
    return {"argv": argv, "status": status, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _load() -> dict[str, list[dict]]:
    sections = defaultdict(list)
    with GOLDEN.open() as handle:
        for line in handle:
            entry = json.loads(line)
            sections[entry.pop("section")].append(entry)
    return sections


def _replay(section: str) -> None:
    entries = _load()[section]
    assert entries, f"no goldens recorded for {section}"
    mismatches = [entry["argv"] for entry in entries
                  if _invoke(entry["argv"]) != entry]
    assert not mismatches, f"{len(mismatches)} outputs changed: {mismatches[:3]}"


def test_golden_inventory():
    with GOLDEN.open() as handle:
        recorded = [json.loads(line) for line in handle]
    assert [(e["section"], e["argv"]) for e in recorded] == _inputs()
    sections = _load()
    assert len(sections["classify-json"]) >= 120
    assert [e["argv"] for e in sections["table-gap"]] == [TABLE_GAP]
    assert sections["table-gap"][0]["status"] == 1


@pytest.mark.parametrize("section", ["classify-json", "table-gap",
                                     "classify-text", "covariants-text",
                                     "invariants-text", "verify", "joint",
                                     "generators", "orbit-dim", "frame"])
def test_outputs_match_goldens(section):
    _replay(section)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w") as handle:
        for section, argv in _inputs():
            handle.write(json.dumps({"section": section, **_invoke(argv)})
                         + "\n")
