"""Rules on the package source that no value test would notice."""

import ast
import pathlib

from hyperharmonic import catalog, expr
from hyperharmonic._frozen import Frozen
from hyperharmonic.series import PochhammerRatioSeries, WeightKind

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_no_call_to_the_builtin_sum():
    # from Python 3.12 the builtin sum compensates float sums, so a call
    # would make values depend on the interpreter; the package adds in a
    # fixed order through series._lsum (or math.fsum)
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and (
                    isinstance(func, ast.Name) and func.id == "sum"
                    or isinstance(func, ast.Attribute) and func.attr == "sum"
                    and getattr(func.value, "id", None) == "builtins"):
                calls.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not calls, calls


def test_no_frozen_value_has_a_slot_outside_its_fields():
    # a value is its fields: a hidden slot could carry a result from one
    # point or verify call to the next, which only a verify call's table
    # may do. The weight kinds alone keep data derived from their fields
    # (pairs as floats, walks and expansion rows), not results at a point
    classes, todo = set(), [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("hyperharmonic."):
                classes.add(cls)
            todo.append(cls)
    assert {expr.Hyp2F1, expr.Series, PochhammerRatioSeries,
            catalog.Identity} <= classes
    hidden = {}
    for cls in classes - {c for c in classes if issubclass(c, WeightKind)}:
        slots = {name for base in cls.__mro__
                 for name in base.__dict__.get("__slots__", ())}
        extra = slots - set(cls._Frozen__names)
        if extra:
            hidden[cls.__qualname__] = sorted(extra)
    assert not hidden, hidden
