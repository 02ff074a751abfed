"""Rules on the package source that no value test would notice."""

import ast
import pathlib

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
