"""Command-line interface: dispatch, exit codes, determinism, round trips."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import killingwebs
from killingwebs import verify
from killingwebs.cli import COMMANDS, _cmd_classify, _Parser, positive_int, run
from killingwebs.commands import (_cmd_canonical, _cmd_covariants,
                                  _cmd_decompose, _cmd_frame, _cmd_generators,
                                  _cmd_invariants, _cmd_joint, _cmd_orbit_dim,
                                  _cmd_verify)
from killingwebs.poly import parse_rational
from killingwebs.spaces import space_by_name
from killingwebs.verify import run_suite
from samplers import CLASSES, SRC, canonical, rationals


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_classify_example(capsys):
    status, out, _ = invoke(capsys, "classify", "--space", "minkowski",
                            "--params", "0,0,0,0,1", "--output", "json")
    assert status == 0
    data = json.loads(out)
    assert data["class"] == "EC2"


def test_invariants_example(capsys):
    status, out, _ = invoke(capsys, "invariants", "--space", "minkowski",
                            "--params", "0,0,-1,0,0,1/4", "--output", "json")
    assert status == 0
    data = json.loads(out)
    assert data["invariants"]["I1"] == "-1/4"
    assert data["invariants"]["I3"] == "1/4"


def test_arity_error_exits_2(capsys):
    status, _, err = invoke(capsys, "classify", "--space", "euclidean",
                            "--params", "0,0,0")
    assert status == 2
    assert "expected" in err


def test_bad_rational_exits_2(capsys):
    status, _, _ = invoke(capsys, "invariants", "--space", "euclidean",
                          "--params", "1,2,3,4,5,banana")
    assert status == 2
    # Exponent notation is refused before 10^100000000 is built.
    status, _, err = invoke(capsys, "classify", "--space", "minkowski",
                            "--params=1e100000000,0,0,0,0,1")
    assert status == 2
    assert "no exponents" in err


def test_unknown_subcommand_exits_2(capsys):
    assert invoke(capsys, "florp")[0] == 2


def test_domain_error_exits_1(capsys):
    status, _, err = invoke(capsys, "frame", "--space", "euclidean",
                            "--params", "1,2,3,4,5,0")
    assert status == 1
    assert "does not act freely" in err


def test_frame_domain_error_message(capsys):
    status, _, err = invoke(capsys, "frame", "--space", "minkowski",
                            "--params", "1/4,0,1/4,0,0,1/4")
    assert status == 1
    assert "outside arctanh domain: argument = -2" in err


# `classify` on each of the 14 canonical rows, with k2 = 1 where the row
# takes one.
CANONICAL_ARGV = [
    ("classify", "--space", kind, "--params=" + ",".join(
        str(v) for v in canonical(space_by_name(kind), ec).values),
     "--output", "json")
    for kind, classes in CLASSES.items() for ec in classes]


def test_determinism(capsys):
    """Two runs print the same bytes, on one input and on each canonical
    row."""
    for argv in [("classify", "--space", "minkowski",
                  "--params", "1,2,3,4,5,6", "--output", "json"),
                 *CANONICAL_ARGV]:
        first = invoke(capsys, *argv)
        assert first[0] == 0
        assert invoke(capsys, *argv) == first


def test_json_rationals_round_trip(capsys):
    """The input, l0 and the invariants print as canonical rationals that
    re-parse to themselves, on one input and on each canonical row."""
    status, out, _ = invoke(capsys, "classify", "--space", "minkowski",
                            "--params", "1/3,-2/7,3,4,5,6", "--output", "json")
    assert status == 0
    data = json.loads(out)
    values = [parse_rational(v) for v in data["input"]]
    assert values == [Fraction(1, 3), Fraction(-2, 7), 3, 4, 5, 6]
    assert parse_rational(data["l0"]) == Fraction(2, 7)
    outputs = [out]
    for argv in CANONICAL_ARGV:
        status, out, _ = invoke(capsys, *argv)
        assert status == 0
        outputs.append(out)
    for out in outputs:
        data = json.loads(out)
        for text in (*data["input"], data["l0"],
                     *data["invariants"].values()):
            assert str(parse_rational(text)) == text


def test_batch_mode_emits_json_lines(tmp_path, capsys):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(["0,0,0,0,1", "1,0,0,0,0",
                                 ["0", "0", "0", "1", "0"]]))
    status, out, _ = invoke(capsys, "classify", "--space", "minkowski",
                            "--batch", str(batch))
    assert status == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [d["class"] for d in lines] == ["EC2", "EC1", "EC4"]


@pytest.mark.parametrize("content, message, records", [
    (None, "cannot read batch file", 0),
    ("[1,", "cannot read batch file", 0),
    ('{"params": "0,0,0,0,1"}', "must hold a JSON array", 0),
    ("[5]", "batch entry 0 is neither a string nor a list", 0),
    ('["0,0,0,0,1", null]', "batch entry 1 is neither a string nor a list", 1),
])
def test_batch_file_errors_exit_2(tmp_path, capsys, content, message,
                                  records):
    """A file that is unreadable or holds no JSON array is refused whole,
    with the message on stderr.  In an array, an entry that is neither a
    string nor a list gets its own error line after the `records` answered
    ones, and the batch exits 2 at the end."""
    batch = tmp_path / "batch.json"
    if content is not None:
        batch.write_text(content)
    status, out, err = invoke(capsys, "classify", "--space", "minkowski",
                              "--batch", str(batch))
    assert status == 2
    lines = [json.loads(line) for line in out.splitlines()]
    assert all("class" in line for line in lines[:records])
    if len(lines) == records:
        assert err.startswith("killingwebs: parse error: ") and message in err
    else:
        assert err == ""
        assert lines[records:] == [{
            "index": records, "input": json.loads(content)[records],
            "error": {"kind": "parse", "message": message}}]


def _single_call(capsys, params):
    """The JSON line `classify --params` prints for a Minkowski input."""
    status, out, _ = invoke(capsys, "classify", "--space", "minkowski",
                            f"--params={params}", "--output", "json")
    assert status == 0
    return out


def test_batch_answers_past_a_bad_record(tmp_path, capsys):
    """A record that does not parse gets an error line; the records around
    it get the lines single calls print, and the batch exits 2."""
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(["0,0,0,0,1", "0,0,0", "1,0,0,0,0"]))
    status, out, err = invoke(capsys, "classify", "--space", "minkowski",
                              "--batch", str(batch))
    assert (status, err) == (2, "")
    first, bad, last = out.splitlines(keepends=True)
    assert json.loads(bad) == {"index": 1, "input": "0,0,0", "error": {
        "kind": "parse",
        "message": "expected 6 comma-separated rationals, got 3"}}
    assert (first, last) == (_single_call(capsys, "0,0,0,0,1"),
                             _single_call(capsys, "1,0,0,0,0"))


def test_batch_answers_the_cell_no_tabulated_row_covers(tmp_path, capsys):
    """Two records in the cell (double, none), the second one record 27 of
    the dense benchmark corpus at seed 23, between good records: one line
    per record and status 0."""
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(["0,0,0,0,1", "0,2,-1,0,0,3/2",
                                 "-2,-4,3/2,-5/2,-1/2,-3", "1,0,0,0,0"]))
    status, out, err = invoke(capsys, "classify", "--space", "minkowski",
                              "--batch", str(batch))
    assert (status, err) == (0, "")
    assert [json.loads(line)["class"] for line in out.splitlines()] == [
        "EC2", "outside_tables", "outside_tables", "EC1"]


BEYOND_FLOAT = [f"1,2,3,{10 ** 200},5,7", f"1,2,3,5,3,1/{10 ** 400}"]


def _minkowski_invariants(a1, a2, a3, a4, a5, a6):
    """I1, I2, I3 written out for the Minkowski plane."""
    quad = -(a6 * a1 - a4 ** 2) - (a6 * a2 - a5 ** 2)
    cross = a3 * a6 - a4 * a5
    return quad ** 2 - 4 * cross ** 2, a6 * (a1 - a2) - a4 ** 2 + a5 ** 2, a6


@pytest.mark.parametrize("params", BEYOND_FLOAT, ids=["big", "tiny"])
def test_inputs_beyond_float_range_get_exact_answers(capsys, params):
    values = [parse_rational(v) for v in params.split(",")]
    invariants = dict(zip(("I1", "I2", "I3"), map(
        str, _minkowski_invariants(*values))))
    i1_prime = str(values[3] ** 2 - values[4] ** 2)
    status, out, err = invoke(capsys, "invariants", "--space", "minkowski",
                              f"--params={params}", "--output", "json")
    assert (status, err) == (0, "")
    assert json.loads(out) == {
        "space": "minkowski", "invariants": invariants,
        "sign_classes": {"C1": "indefinite", "C2": "positive"},
        "auxiliary": {"I1_prime": i1_prime, "I2_prime": None}}
    status, out, err = invoke(capsys, "classify", "--space", "minkowski",
                              f"--params={params}", "--output", "json")
    assert (status, err) == (0, "")
    data = json.loads(out)
    assert data["input"] == [str(v) for v in values]
    assert data["invariants"] == invariants
    assert data["class"] == "EC5_or_EC10"
    assert data["auxiliary"] == {"I1_prime": i1_prime, "I2_prime": None}


# N^4, as I1 and C2's coefficients grow, has about 4,400 digits.
BEYOND_PRINTING = ",".join(["9" * 1100, "0", "0", "0", "0", "9" * 1100])


@pytest.fixture
def int_digit_limit():
    """The interpreter's default limit on printing integers, 4,300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def _as_single_call(capsys, space, index, entry):
    """The status of `classify --params` on a batch entry, and the line a
    batch prints for it: the call's output, or the call's error as an
    error object with the entry's index."""
    def error(kind, message):
        return {"index": index, "input": entry,
                "error": {"kind": kind, "message": message}}
    if not isinstance(entry, (str, list)):
        return 2, error("parse", f"batch entry {index} is neither a string "
                                 "nor a list")
    params = entry if isinstance(entry, str) else ",".join(map(str, entry))
    status, out, err = invoke(capsys, "classify", "--space", space,
                              f"--params={params}", "--output", "json")
    if status == 0:
        return 0, out
    message = err.removeprefix("killingwebs: ").removesuffix("\n")
    if message.startswith("parse error: "):
        return status, error("parse", message.removeprefix("parse error: "))
    return status, error("too_large", message)


_good_entries = st.one_of(
    st.tuples(*[rationals] * 6).map(lambda v: ",".join(map(str, v))),
    st.tuples(*[rationals] * 5).map(lambda v: [str(x) for x in v]))
_bad_entries = st.sampled_from([
    "1,2,x,4,5,6", "1/0,1,1,1,1,1", "0,0,0", ["x"], 5, None,
    {"params": "1,2,3,4,5,6"}, BEYOND_PRINTING])


@pytest.mark.parametrize("space", ["euclidean", "minkowski"])
@given(st.lists(st.one_of(_good_entries, _bad_entries), max_size=8))
@example(entries=["0,0,0", BEYOND_PRINTING, "1,2,3,4,5,6"])   # 2, then 1
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_batch_answers_every_record_as_a_single_call_does(
        tmp_path, capsys, space, entries):
    """Bad records interleaved with good ones: each good record's line is
    the one its single call prints, each bad one gets an error object with
    its index (its message the single call's, for a string or a list), and
    the batch exits with the highest status among its records.  A record
    beyond the printing limit fails only where the interpreter has one."""
    expected = [_as_single_call(capsys, space, i, entry)
                for i, entry in enumerate(entries)]
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(entries))
    status, out, err = invoke(capsys, "classify", "--space", space,
                              "--batch", str(batch))
    assert (status, err) == (max((s for s, _ in expected), default=0), "")
    lines = out.splitlines(keepends=True)
    assert len(lines) == len(entries)
    assert [line if code == 0 else json.loads(line)
            for line, (code, _) in zip(lines, expected)] \
        == [line for _, line in expected]


@pytest.mark.parametrize("command", ["classify", "invariants", "covariants"])
def test_values_beyond_the_printing_limit_are_a_domain_error(
        capsys, int_digit_limit, command):
    status, out, err = invoke(capsys, command, "--space", "minkowski",
                              f"--params={BEYOND_PRINTING}", "--output",
                              "json")
    assert (status, out) == (1, "")
    assert err == ("killingwebs: a value has too many digits to print "
                   "(over 4300)\n")


def test_batch_answers_past_a_record_beyond_the_printing_limit(
        tmp_path, capsys, int_digit_limit):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(["0,0,0,0,1", BEYOND_PRINTING, "1,0,0,0,0"]))
    status, out, err = invoke(capsys, "classify", "--space", "minkowski",
                              "--batch", str(batch))
    assert (status, err) == (1, "")
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[1] == {"index": 1, "input": BEYOND_PRINTING, "error": {
        "kind": "too_large",
        "message": "a value has too many digits to print (over 4300)"}}
    assert [lines[0]["class"], lines[2]["class"]] == ["EC2", "EC1"]


@pytest.mark.parametrize("argv", [
    ["invariants", "--space", "minkowski", f"--params={BEYOND_FLOAT[0]}"],
    ["covariants", "--space", "euclidean", f"--params=0,0,0,0,0,{10 ** 200}",
     "--point", "3,4"],
    ["joint", "--kv", "1,0,0", f"--kt=0,0,0,0,0,{10 ** 200}"]],
    ids=["invariants", "covariants", "joint"])
def test_float_mode_beyond_float_range_is_a_domain_error(capsys, argv):
    status, out, err = invoke(capsys, *argv, "--output", "json",
                              "--mode", "float")
    assert (status, out) == (1, "")
    assert err == ("killingwebs: a value lies beyond the float range; "
                   "use --mode exact\n")


@pytest.mark.parametrize("space", ["euclidean", "minkowski"])
@pytest.mark.parametrize("params", [
    f"1,2,3,{10 ** 200},5,7", f"1,2,3,4,5,1/{10 ** 200}",
    f"1,2,3,4,5,1/{10 ** 400}"], ids=["big", "tiny", "underflow"])
def test_frame_beyond_float_range_is_a_domain_error(capsys, space, params):
    status, out, err = invoke(capsys, "frame", "--space", space,
                              f"--params={params}", "--output", "json")
    assert (status, out) == (1, "")
    assert err == "killingwebs: a value lies beyond the float range\n"


def test_batch_classifies_a_record_beyond_float_range(tmp_path, capsys):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(["0,0,0,0,1", BEYOND_FLOAT[0], "1,0,0,0,0"]))
    status, out, err = invoke(capsys, "classify", "--space", "minkowski",
                              "--batch", str(batch))
    assert (status, err) == (0, "")
    assert [json.loads(line)["class"] for line in out.splitlines()] == [
        "EC2", "EC5_or_EC10", "EC1"]


@pytest.mark.parametrize("argv", [
    ["classify", "--space", "minkowski", "--params=1,2,3,4,5,6"],
    ["decompose", "--space", "euclidean", "--params=1,2,3,4,5,6"],
    ["verify", "--trials", "1"]])
def test_mode_is_rejected_where_it_is_not_read(capsys, argv):
    status, out, err = invoke(capsys, *argv, "--mode", "float")
    assert (status, out) == (2, "")
    assert "unrecognized arguments: --mode float" in err


# The parser as it was built before the COMMANDS table, kept verbatim: the
# oracle for every byte of usage, help and error that the table prints.
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="killingwebs",
                     description="Invariant classification of orthogonal "
                                 "coordinate webs in the plane.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, mode=False, **kwargs):
        # --mode goes only to the subcommands whose handlers read it.
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--output", choices=("json", "text"), default="text")
        if mode:
            p.add_argument("--mode", choices=("exact", "float"),
                           default="exact")
        return p

    p = add("invariants", _cmd_invariants, mode=True,
            help="fundamental invariants and covariant sign classes")
    p.add_argument("--space", required=True)
    p.add_argument("--params", required=True,
                   help="6 comma-separated rationals")

    p = add("covariants", _cmd_covariants, mode=True,
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

    p = add("joint", _cmd_joint, mode=True,
            help="joint invariants of a vector/tensor pair (Euclidean)")
    p.add_argument("--space", default="euclidean")
    p.add_argument("--kv", required=True, help="3 comma-separated rationals")
    p.add_argument("--kt", required=True, help="6 comma-separated rationals")

    p = add("verify", _cmd_verify, help="run the verification suite")
    p.add_argument("--trials", type=positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)

    return parser


ORACLE_ARGV = [
    ["--help"], [], ["florp"],
    *([name, "--help"] for name in COMMANDS),
    # Reported with the top-level usage.
    ["classify", "--space", "euclidean", "--params=1,2,3,4,5,6", "--bogus"],
    ["invariants", "--params=1,2,3,4,5,6"],
    ["generators", "--space", "minkowski", "--valence", "3"],
    ["decompose", "--space", "euclidean", "--params=1,2,3,4,5,6",
     "--output", "xml"],
    ["verify", "--trials", "0"],
    ["decompose", "--space", "euclidean", "--params=1,2,3,4,5,6",
     "--mode", "float"],
]


@pytest.mark.parametrize("argv", ORACLE_ARGV,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_prints_what_the_imperative_parser_printed(
        capsys, monkeypatch, argv):
    """Status, stdout and stderr match the oracle's, at a fixed width."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    expected = (exc.value.code, *capsys.readouterr())
    assert invoke(capsys, *argv) == expected


def test_invariants_rejects_k2(capsys):
    status, out, err = invoke(capsys, "invariants", "--space", "minkowski",
                              "--params=0,0,-1,0,0,1/4", "--k2", "1")
    assert (status, out) == (2, "")
    assert "unrecognized arguments: --k2 1" in err


def test_covariants_at_a_point_in_float_mode(capsys):
    status, out, _ = invoke(capsys, "covariants", "--space", "euclidean",
                            "--params=0,0,0,0,0,1/2", "--point", "3,4",
                            "--output", "json", "--mode", "float")
    assert status == 0
    assert json.loads(out)["at_point"] == {"point": ["3", "4"],
                                           "C1": 6.25, "C2": 0.0}


def test_canonical_and_decompose(capsys):
    status, out, _ = invoke(capsys, "canonical", "--space", "minkowski",
                            "--ec", "EC8", "--k2", "2/3", "--output", "json")
    assert status == 0
    assert json.loads(out)["nontrivial"] == ["0", "-2/3", "0", "0", "1/4"]

    status, out, _ = invoke(capsys, "decompose", "--space", "euclidean",
                            "--params", "3,1,0,0,0,2", "--output", "json")
    assert status == 0
    data = json.loads(out)
    assert data["l0"] == "1"
    assert data["nontrivial"] == ["2", "0", "0", "0", "2"]


def test_canonical_missing_k2_exits_1(capsys):
    status, _, err = invoke(capsys, "canonical", "--space", "minkowski",
                            "--ec", "EC5")
    assert status == 1
    assert "k2" in err


def test_joint_and_orbit_dim(capsys):
    status, out, _ = invoke(capsys, "joint", "--kv", "1,0,0",
                            "--kt", "0,0,0,0,0,1", "--output", "json")
    assert status == 0
    assert json.loads(out)["J1"] == "1"

    status, out, _ = invoke(capsys, "orbit-dim", "--space", "minkowski",
                            "--params", "1,2,3,4,5,6", "--output", "json")
    assert status == 0
    assert json.loads(out)["orbit_dimension"] == 3


def test_verify_smoke(capsys):
    status, out, err = invoke(capsys, "verify", "--trials", "2")
    assert status == 0
    assert "FAIL" not in out
    assert "0 failed" in err


# Each table of verify's rational draws, with the ranges of the
# Fraction(rng.randint(lo, hi), rng.randint(1, q)) it stands for.
@pytest.mark.parametrize("table, lo, hi, q", [
    (verify._ANGLES, -9, 9, 6), (verify._SHIFTS, -4, 4, 3),
    (verify._PARAMS, -12, 12, 5), (verify._VECTORS, -9, 9, 4)])
def test_verify_table_draws_keep_the_randint_stream(table, lo, hi, q):
    for seed in range(50):
        old, new = random.Random(seed), random.Random(seed)
        for _ in range(40):
            drawn = new.choice(new.choice(table))
            expected = Fraction(old.randint(lo, hi), old.randint(1, q))
            assert type(drawn) is Fraction and drawn == expected
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_trial_counts_below_one(capsys, trials):
    status, out, err = invoke(capsys, "verify", f"--trials={trials}")
    assert status == 2
    assert out == ""
    assert "argument --trials: must be at least 1" in err


@pytest.mark.parametrize("trials", [0, -3])
def test_run_suite_rejects_trial_counts_below_one(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_suite(trials=trials)


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert killingwebs.__version__ == match.group(1)


ROOT = SRC.parent
# The modules a `classify` process registers but does not run: those only
# the other subcommands use, the polynomial type and the symbolic layer.
LAZY = ("frames", "generators", "isometry", "poly", "symbolic", "verify")


def fresh(code: str) -> list[str]:
    """Run `code` in a new interpreter without site hooks, with the package
    source first on sys.path; return its stdout lines."""
    return subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1])\n" + code, str(SRC)],
        capture_output=True, text=True, check=True).stdout.splitlines()


def test_classify_leaves_subcommand_modules_unexecuted():
    """The modules only other subcommands use, `poly` and `symbolic` are
    registered but not run by `classify`, and run on first use (here
    through `run_suite`).  `commands`, the other subcommands' handlers, is
    registered too; a `classify` call, from the CLI or the library, and
    `run_suite` leave it unexecuted, and the first other subcommand runs
    it.  The type check does not trigger a load.  The package attribute
    `poly` stays the function: the module is registered unbound, and
    running it binds nothing."""
    lines = fresh(f"""
import contextlib, io, types
import killingwebs
from killingwebs import cli
from killingwebs.classify import classify_full
from killingwebs.spaces import EUCLIDEAN, KTParams

def state(names):
    for name in names:
        module = sys.modules["killingwebs." + name]
        assert vars(killingwebs).get(name) is (
            None if name == "poly" else module)
        print(name, type(module) is types.ModuleType)

def call(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(list(argv)) == 0

state({LAZY!r} + ("commands",))
call("classify", "--space", "euclidean", "--params", "1,2,3,4,5,6",
     "--output", "json")
classify_full(KTParams(EUCLIDEAN, (1, 2, 3, 4, 5, 6)))
state({LAZY!r} + ("commands",))
print("checks", len(cli.run_suite(trials=1, seed=0)))
state({LAZY!r})
state(("commands",))
call("decompose", "--space", "euclidean", "--params=1,2,3,4,5,6")
state(("commands",))
print(killingwebs.poly is sys.modules["killingwebs.poly"].poly)
""")
    unexecuted = [f"{name} False" for name in LAZY + ("commands",)]
    assert lines == (unexecuted + unexecuted + ["checks 23"]
                     + [f"{name} True" for name in LAZY]
                     + ["commands False", "commands True", "True"])


def test_module_run_executes_cli_once():
    """`python -m killingwebs.cli` runs cli.py as `__main__`.  A subcommand
    whose handler lives in `commands` imports no second copy of it under
    the name `killingwebs.cli`."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "killingwebs.cli",
         "decompose", "--space", "euclidean", "--params=1,2,3,4,5,6"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, check=True)
    imported = [line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "killingwebs.classify" in imported
    assert "killingwebs.cli" not in imported
    assert proc.stdout == "l0 = 2\nnontrivial: -1, 3, 4, 5, 6\n"


def test_library_classify_leaves_symbolic_layer_unexecuted():
    """Importing the classifier and classifying in each space runs neither
    the polynomial type nor the symbolic layer."""
    lines = fresh("""
import types
from killingwebs.classify import classify_full
from killingwebs.spaces import EUCLIDEAN, MINKOWSKI, KTParams
for space in (EUCLIDEAN, MINKOWSKI):
    print(classify_full(KTParams(space, (1, 2, 3, 4, 5, 6))).web.tag)
for name in ("poly", "symbolic"):
    print(name, type(sys.modules["killingwebs." + name]) is types.ModuleType)
""")
    assert lines == ["EllipticHyperbolic", "EC5_or_EC10", "poly False",
                     "symbolic False"]


def test_acting_framing_and_joint_invariants_derive_nothing():
    """The exact and float actions, a moving frame and the joint invariants
    run from closed forms alone: a fresh process that calls them derives
    no action and builds no generator for the J2 oracle."""
    lines = fresh("""
import killingwebs.generators as generators
from killingwebs.frames import moving_frame
from killingwebs.isometry import (act_kt_params, act_kt_params_float,
                                  act_kv_params, derived_kt_action,
                                  rotation_from_parameter)
from killingwebs.spaces import EUCLIDEAN, MINKOWSKI, KTParams, KVParams
from killingwebs.symbolic import joint_invariants

def refuse(*args):
    raise AssertionError("joint generators built")

generators.joint_generators = refuse
for space in (EUCLIDEAN, MINKOWSKI):
    g = rotation_from_parameter(space, 2, (1, 3))
    p = KTParams(space, (1, 2, 3, 4, 5, 6))
    act_kt_params(g, p), act_kv_params(g, KVParams(space, (1, 2, 3)))
    act_kt_params_float(p, (0.6, 0.8), (1.0, 3.0))
    moving_frame(p)
joint_invariants(KVParams(EUCLIDEAN, (1, 2, 3)),
                 KTParams(EUCLIDEAN, (1, 2, 3, 4, 5, 6)))
print(derived_kt_action.cache_info().misses)
""")
    assert lines == ["0"]


def test_public_and_harness_names_resolve_before_and_after_loading():
    """Every name in `__all__`, every benchmark span target and the caches
    the benchmark clears resolve to the same objects while the symbolic
    layer is unexecuted and after it has run."""
    lines = fresh(f"""
import types
sys.path.insert(0, {str(ROOT / "bench")!r})
import spans
import killingwebs
import killingwebs.cli

def resolve():
    found = [getattr(killingwebs, name) for name in killingwebs.__all__]
    for module, attr, _ in spans.TARGETS:
        owner = sys.modules[module]
        for part in attr.split("."):
            owner = getattr(owner, part)
        found.append(owner)
    cached = [getattr(killingwebs.invariants, name) for name in
              ("invariant_polynomials", "covariant_polynomials")]
    cached.append(killingwebs.isometry.derived_kt_action)
    assert all(callable(f.cache_clear) for f in cached)
    return found + cached

for name in ("poly", "symbolic"):
    print(type(sys.modules["killingwebs." + name]) is types.ModuleType)
before = resolve()
killingwebs.cli.run_suite(trials=1, seed=0)
after = resolve()
print(len(before) == len(killingwebs.__all__) + len(spans.TARGETS) + 3,
      all(a is b for a, b in zip(before, after)))
print(killingwebs.poly is killingwebs.poly.__globals__["poly"],
      isinstance(killingwebs.MultiPoly, type))
""")
    assert lines == ["False", "False", "True True", "True True"]


def test_preimported_verify_module_is_reused():
    """A module imported before the CLI is kept, so a patch on it reaches
    `killingwebs verify`."""
    lines = fresh("""
import killingwebs.verify as verify
original, names = verify.CheckResult, []

def stamped(name, *rest):
    names.append(name)
    return original(name, *rest)

verify.CheckResult = stamped
from killingwebs import cli
assert cli.verify is verify
status = cli.run(["verify", "--trials", "1", "--output", "json"])
print(status, len(names))
""")
    assert len(json.loads(lines[0])) == 23
    assert lines[1] == "0 23"
