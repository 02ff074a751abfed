"""Value semantics of the expression nodes and weight kinds (Frozen
slotted classes), and the start-up gate on what importing the CLI loads."""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest

import hyperharmonic
from hyperharmonic import expr, series
from hyperharmonic._frozen import Frozen
from hyperharmonic.expr import (C, Add, Const, Cos, Digamma, Div, EllipticK,
                                Gamma, GammaRatio, Hyp2F1, LnGamma, Log, Mul,
                                Neg, P, Param, Pow, Sin, Sqrt, Sub)
from hyperharmonic.series import (DigammaDiffSum, Harmonic, HarmonicSqPlusGen2,
                                  LinearCombo, ReciprocalShift, Unit)

# one builder per class; each call builds a fresh instance with equal fields
BUILDERS = [
    lambda: Const(1.5),
    lambda: Param("a"),
    lambda: Add(P("a"), C(1)),
    lambda: Sub(P("a"), C(1)),
    lambda: Mul(P("a"), C(2)),
    lambda: Div(P("a"), C(2)),
    lambda: Neg(P("a")),
    lambda: Pow(P("a"), C(0.5)),
    lambda: Sqrt(P("a")),
    lambda: Log(P("a")),
    lambda: Sin(P("a")),
    lambda: Cos(P("a")),
    lambda: Gamma(P("a")),
    lambda: LnGamma(P("a")),
    lambda: Digamma(P("a")),
    lambda: GammaRatio((P("a"), C(1)), (P("a") + 1,)),
    lambda: EllipticK(P("k")),
    lambda: Hyp2F1(P("a"), P("b"), C(1.5), P("x")),
    lambda: Unit(),
    lambda: Harmonic(stride=2, offset=-1),
    lambda: HarmonicSqPlusGen2(),
    lambda: ReciprocalShift(inner=Harmonic()),
    lambda: DigammaDiffSum(0.3 + 0.1j, 0.2),
    lambda: LinearCombo(((4.0, Harmonic(stride=2)), (-3.0, Harmonic()))),
]
IDS = [type(build()).__name__ for build in BUILDERS]


def _frozen_classes():
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__ in (expr.__name__, series.__name__):
                found.add(sub)
                todo.append(sub)
    return found - {expr.Expr}


def test_every_value_class_is_covered():
    assert len(BUILDERS) == 24
    assert {type(build()) for build in BUILDERS} == _frozen_classes()


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
class TestValueSemantics:
    def test_equal_fields_are_equal_and_hash_alike(self, build):
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr_names_class_and_fields(self, build):
        obj = build()
        text = repr(obj)
        assert text.startswith(type(obj).__name__ + "(")
        for name in obj.__slots__:
            assert f"{name}={getattr(obj, name)!r}" in text

    def test_assignment_and_deletion_raise(self, build):
        obj = build()
        assert not hasattr(obj, "__dict__")
        for name in obj.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert obj == build()

    def test_copy_deepcopy_and_pickle_round_trip(self, build):
        obj = build()
        for twin in (copy.copy(obj), copy.deepcopy(obj),
                     pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj)
            assert twin == obj and hash(twin) == hash(obj)


def test_fields_and_class_distinguish_values():
    assert Sin(P("a")) != Cos(P("a"))
    assert Add(P("a"), C(1)) != Add(P("a"), C(2))
    assert Harmonic() != Harmonic(stride=2)
    assert Unit() == Unit() and Unit() != HarmonicSqPlusGen2()
    assert Add(P("a"), C(1)) != (P("a"), C(1))


def test_normalizing_constructors():
    assert Const(1).value == 1 + 0j and type(Const(1).value) is complex
    assert DigammaDiffSum(1, 2) == DigammaDiffSum(1 + 0j, 2.0)
    assert LinearCombo(((2, Unit()),)).parts == ((2 + 0j, Unit()),)


def test_keyword_and_positional_construction_agree():
    assert Add(left=P("a"), right=C(1)) == Add(P("a"), right=C(1))
    assert Hyp2F1(P("a"), P("b"), c=C(1), x=P("x")) == Hyp2F1(
        P("a"), P("b"), C(1), P("x"))
    assert ReciprocalShift() == ReciprocalShift(inner=Unit())
    for bad in (lambda: Add(P("a")), lambda: Add(P("a"), C(1), C(2)),
                lambda: Add(P("a"), left=C(1)), lambda: Neg(arg=C(1), x=1)):
        with pytest.raises(TypeError):
            bad()


def test_cli_import_loads_no_clock_and_no_generated_classes():
    # start-up gate: importing the CLI must not load datetime (only a JSON
    # report needs the clock), and the only dataclasses in the package are
    # the six record types; everything else is a Frozen slotted class
    code = """
import json, sys
before = set(sys.modules)
import hyperharmonic.cli
loaded = set(sys.modules) - before
import dataclasses
records = sorted(
    obj.__name__
    for name, mod in list(sys.modules.items())
    if name == "hyperharmonic" or name.startswith("hyperharmonic.")
    for obj in vars(mod).values()
    if isinstance(obj, type) and obj.__module__ == name
    and dataclasses.is_dataclass(obj))
print(json.dumps({"datetime": "datetime" in loaded, "dataclasses": records}))
"""
    src = os.path.dirname(os.path.dirname(hyperharmonic.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["datetime"] is False
    assert got["dataclasses"] == sorted([
        "PochhammerRatioSeries", "SeriesResult", "SeriesTerm", "Identity",
        "PointCheck", "VerifyReport"])
