"""Value semantics of the Frozen slotted classes (expression nodes, weight
kinds, series and catalog records), and the start-up gate on what
importing the CLI loads."""

import copy
import json
import pickle
import subprocess
import sys

import pytest

from hyperharmonic import DomainError, REGISTRY, catalog, expr, series
from hyperharmonic._frozen import Frozen
from hyperharmonic.catalog import Identity, PointCheck, VerifyReport
from hyperharmonic.expr import (C, Add, Const, Cos, Digamma, Div, EllipticK,
                                Gamma, GammaRatio, Hyp2F1, Log, Mul, Neg, P,
                                Param, Pow, Series, Sin, Sqrt, Sub)
from hyperharmonic.series import (DigammaDiffSum, DigammaLog, Harmonic,
                                  HarmonicSqPlusGen2, LinearCombo, PochhammerRatioSeries,
                                  SeriesResult, Unit)


def _point_check():
    return PointCheck({"x": 0.5}, 2 + 0j, 2 + 0j, 0.0, 0.0, True, 40, "direct")

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
    lambda: Digamma(P("a")),
    lambda: GammaRatio((P("a"), C(1)), (P("a") + 1,)),
    lambda: EllipticK(P("k")),
    lambda: Hyp2F1(P("a"), P("b"), C(1.5), P("x")),
    lambda: Unit(),
    lambda: Harmonic(stride=2, offset=-1),
    lambda: HarmonicSqPlusGen2(),
    lambda: DigammaDiffSum(0.3 + 0.1j, 0.2),
    lambda: DigammaLog(0.25, 0.75 - 0.1j, -1.5 + 0.2j),
    lambda: LinearCombo(((4.0, Harmonic(stride=2)), (-3.0, Harmonic()))),
    lambda: PochhammerRatioSeries((0.5, 0.25j), (1.5,), 1, -0.5, 1),
    lambda: SeriesResult(1.25 + 0j, 4096, 3e-13, True, "extrapolated"),
    lambda: Series((P("a"), 1), (P("a") + 1,), 1, 0.5, 1,
                   (DigammaDiffSum, P("a"), C(0.25)), P("x")),
    lambda: Identity("GEOM", "identity", "geometric series", ("x",),
                     ({"x": 0.5},), Series((1.0,), (), 1, 1.0, 0, Unit(), P("x")),
                     1 / (1 - P("x")), tol=1e-10),
    _point_check,
    lambda: VerifyReport("GEOM", 1e-10, (_point_check(),)),
]
IDS = [type(build()).__name__ for build in BUILDERS]
# records with a dict field (params, sample points) do not hash, as a
# frozen dataclass holding a dict did not
UNHASHABLE = {"Identity", "PointCheck", "VerifyReport"}


# a subclass of each value class that declares __slots__ = (), as a
# slotted subclass does: it keeps its base's fields. Module globals, so
# that pickle finds them by name
SUBCLASSES = {}
for _build in BUILDERS:
    _base = type(_build())
    _name = f"Sub{_base.__name__}"
    SUBCLASSES[_base] = globals()[_name] = type(_name, (_base,),
                                                {"__slots__": ()})


def _frozen_classes():
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__ in (expr.__name__, series.__name__,
                                  catalog.__name__):
                found.add(sub)
                todo.append(sub)
    return found - {expr.Expr}


def test_every_value_class_is_covered():
    assert len(BUILDERS) == 29
    assert {type(build()) for build in BUILDERS} == _frozen_classes()


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
class TestValueSemantics:
    def test_equal_fields_are_equal_and_hash_alike(self, build):
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        if type(a).__name__ in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
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
            assert twin == obj
            if type(obj).__name__ not in UNHASHABLE:
                assert hash(twin) == hash(obj)


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
def test_subclass_with_empty_slots_keeps_the_fields(build):
    base = build()
    names = type(base).__slots__
    sub_class = SUBCLASSES[type(base)]
    args = [getattr(base, name) for name in names]
    sub, twin = sub_class(*args), sub_class(*args)
    assert repr(sub) == repr(base).replace(type(base).__qualname__,
                                           sub_class.__qualname__, 1)
    assert sub == twin and sub != base and base != sub
    if type(base).__name__ not in UNHASHABLE:
        assert hash(sub) == hash(twin)
    for copied in (copy.copy(sub), copy.deepcopy(sub),
                   pickle.loads(pickle.dumps(sub)),
                   sub.replace(**dict(zip(names, args)))):
        assert type(copied) is sub_class and copied == sub


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
    # an equal float, complex or bool start index is stored as the int:
    # a float one once passed the check and then broke every sum
    for start, alike in ((1.0, 1), (1 + 0j, 1), (True, 1), (0.0, 0),
                         (0j, 0), (False, 0)):
        spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, start)
        want = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, alike)
        assert spec == want and repr(spec) == repr(want)
        assert type(spec.start_index) is int
    spec = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 1.0)
    want = PochhammerRatioSeries((0.5, 0.5), (1.5,), 1, 1.0, 1)
    for weight in (Unit(), Harmonic()):
        for x in (0.5, 1.0):
            assert (repr(series.eval_weighted(spec, weight, x))
                    == repr(series.eval_weighted(want, weight, x)))


def test_keyword_and_positional_construction_agree():
    assert Add(left=P("a"), right=C(1)) == Add(P("a"), right=C(1))
    assert Hyp2F1(P("a"), P("b"), c=C(1), x=P("x")) == Hyp2F1(
        P("a"), P("b"), C(1), P("x"))
    assert Harmonic() == Harmonic(1, offset=0)
    for bad in (lambda: Add(P("a")), lambda: Add(P("a"), C(1), C(2)),
                lambda: Add(P("a"), left=C(1)), lambda: Neg(arg=C(1), x=1)):
        with pytest.raises(TypeError):
            bad()


def test_replace_builds_a_changed_copy():
    h = Harmonic()
    twin = h.replace(stride=2)
    assert twin == Harmonic(stride=2) and h == Harmonic()
    spec = PochhammerRatioSeries((0.5,), (1.5,), 1, 1.0, 0)
    half = spec.replace(geometric_ratio=0.5)
    assert half == PochhammerRatioSeries((0.5,), (1.5,), 1, 0.5, 0)
    assert type(half.geometric_ratio) is complex and spec.geometric_ratio == 1
    ident = REGISTRY["EX-1"]
    tol = ident.tol
    tight = ident.replace(tol=tol / 10.0)
    assert tight.tol == tol / 10.0 and ident.tol == tol
    assert (tight.lhs, tight.rhs, tight.sample_points) == (
        ident.lhs, ident.rhs, ident.sample_points)
    assert Unit().replace() == Unit() and Add(P("a"), C(1)).replace(
        right=C(2)) == Add(P("a"), C(2))


@pytest.mark.parametrize("obj", [
    Unit(), Harmonic(), Add(P("a"), C(1)), Const(1.0),
    PochhammerRatioSeries((0.5,), (), 1, 0.5, 0), REGISTRY["EX-1"],
], ids=lambda obj: type(obj).__name__)
def test_replace_refuses_unknown_fields(obj):
    with pytest.raises(TypeError):
        obj.replace(no_such_field=1)


def test_replace_validates_again():
    with pytest.raises(DomainError):
        PochhammerRatioSeries((0.5,), (), 1, 0.5, 0).replace(start_index=2)
    with pytest.raises(DomainError):
        Harmonic().replace(stride=4)


def test_cli_import_loads_no_clock_and_no_generated_classes(child_env):
    # start-up gate: importing the CLI must not load datetime (only a JSON
    # report needs the clock), nor dataclasses, inspect or typing, nor
    # fractions or decimal (the series constants are float literals), and
    # no class of the package is a dataclass; every value class is Frozen.
    # The child runs with -S, because site hooks may preload typing.
    code = """
import json, sys
before = set(sys.modules)
import hyperharmonic.cli
loaded = set(sys.modules) - before
records = sorted(
    obj.__name__
    for name, mod in list(sys.modules.items())
    if name == "hyperharmonic" or name.startswith("hyperharmonic.")
    for obj in vars(mod).values()
    if isinstance(obj, type) and "__dataclass_fields__" in vars(obj))
print(json.dumps({"loaded": sorted(loaded & {"dataclasses", "inspect",
                                              "typing", "datetime",
                                              "fractions", "decimal"}),
                  "dataclasses": records}))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"loaded": [], "dataclasses": []}
