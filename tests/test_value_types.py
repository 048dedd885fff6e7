"""The immutable value types: validation, coercion, immutability, repr, and
what importing the CLI loads.

Every value type is a `typing.NamedTuple`; the validating ones subclass a
functional `NamedTuple` base and check their fields in `__new__`.
"""

import pkgutil
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import killingwebs
from killingwebs.classify import WebClass
from killingwebs.generators import LinearVectorField
from killingwebs.isometry import (DiscreteReflection, ExactRotation,
                                  IsometryElement)
from killingwebs.poly import PolynomialError, poly
from killingwebs.spaces import (EUCLIDEAN, MINKOWSKI, DomainError, KTParams,
                                KVParams, NontrivialKT)
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
])
def test_value_types(make, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected),
                           match=re.escape(str(expected)) or None):
            make()
    else:
        assert make() == expected


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
