"""The immutable value types: validation, coercion, immutability, the
namedtuple contract, repr, and what a process of the CLI loads.

Every value type is a `collections.namedtuple`; those with methods or
validation subclass one (with empty `__slots__`), and the validating ones
check their fields in `__new__`.  Every annotation in the package resolves.
"""

import importlib
import inspect
import json
import pickle
import pkgutil
import re
import subprocess
import sys
import typing
from fractions import Fraction

import pytest

import killingwebs
from killingwebs.classify import ClassificationReport, WebClass, classify_full
from killingwebs.frames import MovingFrameResult, moving_frame
from killingwebs.generators import LinearVectorField
from killingwebs.invariants import (AuxInvariants, InvariantReport,
                                    invariant_report)
from killingwebs.isometry import (DiscreteReflection, ExactRotation,
                                  IsometryElement, rotation_from_parameter)
from killingwebs.poly import PolynomialError, poly, var
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams,
                                KVParams, NontrivialKT, Space, _ParamVector)
from killingwebs.verify import CheckResult
from samplers import SRC


def _types(values):
    return type(values), {type(v) for v in values}


@pytest.mark.parametrize("make, expected", [
    # Immutable, and no per-instance attributes either.
    (lambda: setattr(KTParams(EUCLIDEAN, [0] * 6), "values", ()),
     AttributeError()),
    (lambda: setattr(KTParams(EUCLIDEAN, [0] * 6), "extra", 1),
     AttributeError()),
    (lambda: setattr(WebClass("EC7"), "tag", "EC2"), AttributeError()),
    # Validation in the six validating types (the rotation-curve check
    # has its own tests).
    (lambda: KTParams(EUCLIDEAN, [0] * 5),
     PolynomialError("KTParams needs exactly 6 values")),
    (lambda: KVParams(EUCLIDEAN, [0] * 6),
     PolynomialError("KVParams needs exactly 3 values")),
    (lambda: NontrivialKT(MINKOWSKI, [0] * 6),
     PolynomialError("NontrivialKT needs exactly 5 values")),
    (lambda: IsometryElement(MINKOWSKI, ExactRotation(-1, 0), (0, 0)),
     DomainError("exact boost must satisfy c^2 - s^2 = 1 with c >= 1")),
    (lambda: DiscreteReflection(("R1", "R3")),
     DomainError("unknown generator 'R3'")),
    (lambda: LinearVectorField(("x", "y"), (poly(1),)),
     DomainError("one coefficient per domain symbol required")),
    # Coercion: sequences become tuples, ints become Fractions.
    (lambda: _types(KTParams(EUCLIDEAN, [1, 2, 3, 4, 5, 6]).values),
     (tuple, {Fraction})),
    (lambda: _types(KVParams(MINKOWSKI, [1, 2, 3]).values),
     (tuple, {Fraction})),
    (lambda: _types(NontrivialKT(MINKOWSKI, [1, 2, 3, 4, 5]).values),
     (tuple, {Fraction})),
    (lambda: _types(IsometryElement(EUCLIDEAN, ExactRotation(1, 0),
                                    [1, 2]).trans),
     (tuple, {Fraction})),
    # The repr names the class and each field.
    (lambda: repr(DiscreteReflection(("R1", "R2"))),
     "DiscreteReflection(word=('R1', 'R2'))"),
    (lambda: repr(WebClass("EC7")), "WebClass(tag='EC7')"),
    (lambda: repr(ExactRotation(Fraction(3, 5), Fraction(4, 5))),
     "ExactRotation(c=Fraction(3, 5), s=Fraction(4, 5))"),
    (lambda: repr(CheckResult("a check", True)),
     "CheckResult(name='a check', passed=True, detail='')"),
    (lambda: repr(MINKOWSKI),
     "Space(kind='minkowski', metric_diag=(Fraction(1, 1), Fraction(-1, 1)), "
     "point_vars=('t', 'x'), param_vars=('alpha1', 'alpha2', 'alpha3', "
     "'alpha4', 'alpha5', 'alpha6'))"),
])
def test_value_types(make, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected),
                           match=re.escape(str(expected)) or None):
            make()
    else:
        assert make() == expected


def _defined_functions():
    """Every function defined at the top of a module of the package, and
    every method of a class defined there, by qualified name."""
    modules = [killingwebs] + [
        importlib.import_module(f"killingwebs.{m.name}")
        for m in pkgutil.iter_modules(killingwebs.__path__)]
    for module in modules:
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                # Unwrap static and class methods and properties.
                member = getattr(member, "__func__", member)
                member = getattr(member, "fget", member)
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{member.__qualname__}", member


def test_every_annotation_resolves():
    """`typing.get_type_hints` resolves the annotations of every function
    and method of the package: each name an annotation uses is bound in
    its module."""
    unresolved, checked = [], set()
    for name, function in _defined_functions():
        checked.add(name)
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
    assert {"killingwebs.cli.build_parser",
            "killingwebs.signs.quadratic_sign_class",
            "killingwebs.poly.MultiPoly.subst",
            "killingwebs.isometry.IsometryElement.rot"} <= checked


def test_cli_import_loads_whole_package_without_dataclasses():
    """In a fresh interpreter (no site hooks), importing the CLI puts every
    module of the package in sys.modules (some not yet executed), which the
    benchmark's tracer relies on, and loads none of `dataclasses` and the
    modules it pulls in."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import killingwebs.cli; print(' '.join(sorted(sys.modules)))")
    loaded = set(subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True,
        text=True, check=True).stdout.split())
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    package = {"killingwebs"} | {
        f"killingwebs.{m.name}"
        for m in pkgutil.iter_modules(killingwebs.__path__)}
    assert {m for m in loaded if m.split(".")[0] == "killingwebs"} == package


# Modules of no use to a CLI call: `typing` and `dataclasses`, the modules
# `dataclasses` pulls in, and argparse, which only usage, help and errors
# import.
NOT_LOADED = {"typing", "dataclasses", "inspect", "ast", "dis", "tokenize",
              "argparse"}


@pytest.mark.parametrize("argv", [
    ["classify", "--space", "euclidean", "--params=1,2,3,4,5,6",
     "--output", "json"],
    ["classify", "--space", "minkowski", "--batch", "BATCH"],
    ["verify", "--trials", "1"],
], ids=["params", "batch", "verify"])
def test_cli_call_imports_no_typing_without_site(argv, tmp_path):
    """In a fresh interpreter without site hooks (which may load `typing`
    themselves), a `classify --params`, a `classify --batch` and a
    `verify --trials 1` call succeed and import none of `NOT_LOADED`."""
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(["1,2,3,4,5,6", [1, 2, 3, 4, 5]]))
    argv = [str(batch) if word == "BATCH" else word for word in argv]
    code = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1])\n"
            "from killingwebs import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.run(sys.argv[2:])\n"
            "print(status, ' '.join(sorted(sys.modules)))")
    status, *loaded = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC), *argv],
        capture_output=True, text=True, check=True).stdout.split()
    assert status == "0"
    assert not set(loaded) & NOT_LOADED


_MINKOWSKI_REPORT = classify_full(KTParams(MINKOWSKI, (1, 2, 3, 4, 5, 6)))

# (type, an instance, its fields in order, their defaults).
CONTRACT = [
    (Space, EUCLIDEAN, ("kind", "metric_diag", "point_vars", "param_vars"),
     {}),
    (_ParamVector, KTParams(EUCLIDEAN, (1, 2, 3, 4, 5, 6)),
     ("space", "values"), {}),
    (WebClass, WebClass("EC7"), ("tag",), {}),
    (ClassificationReport, _MINKOWSKI_REPORT,
     ("params", "l0", "invariants", "web", "eigen_precondition", "caveats"),
     {}),
    (AuxInvariants, _MINKOWSKI_REPORT.invariants.aux,
     ("i1_prime", "i2_prime"), {}),
    (InvariantReport, invariant_report(KTParams(EUCLIDEAN, (1, 2, 3, 4, 5, 6))),
     ("space", "i1", "i2", "i3", "cell", "sign_c1", "sign_c2", "aux",
      "numerators"),
     {}),
    (MovingFrameResult, moving_frame(KTParams(EUCLIDEAN, (1, 2, 0, 0, 0, 1))),
     ("angle", "a", "b", "residual", "notes"), {"notes": ()}),
    (ExactRotation, ExactRotation(Fraction(3, 5), Fraction(4, 5)),
     ("c", "s"), {}),
    (IsometryElement,
     rotation_from_parameter(MINKOWSKI, Fraction(2), (Fraction(1, 2), 3)),
     ("space", "c", "s", "a", "b", "m"), {}),
    (DiscreteReflection, DiscreteReflection(("R1", "R2")), ("word",), {}),
    (LinearVectorField,
     LinearVectorField(("alpha1", "alpha2"), (var("alpha2"), poly(3))),
     ("domain", "coefficients"), {}),
    (CheckResult, CheckResult("a check", True), ("name", "passed", "detail"),
     {"detail": ""}),
]


@pytest.mark.parametrize("cls, value, fields, defaults", CONTRACT,
                         ids=[case[0].__name__ for case in CONTRACT])
def test_value_type_contract(cls, value, fields, defaults):
    """Fields and defaults, `_asdict`, `_replace`, no instance dict, a
    pickle round trip and the namedtuple repr, for each value type."""
    assert isinstance(value, cls) and isinstance(value, tuple)
    assert cls._fields == fields and value._fields == fields
    assert cls._field_defaults == defaults
    assert value._asdict() == dict(zip(fields, value))
    replaced = value._replace(**{fields[-1]: value[-1]})
    assert type(replaced) is type(value) and replaced == value
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 1
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value
    assert hash(copy) == hash(value)
    assert repr(value) == "{}({})".format(type(value).__name__, ", ".join(
        f"{name}={item!r}" for name, item in zip(fields, value)))
