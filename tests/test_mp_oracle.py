"""One mpmath oracle over the expression data (oracles.mp_side): both
sides of every registry identity against a 30-digit reference."""

from hyperharmonic import build_registry, expr, verify
from oracles import MP_NODES, mp_side

SEEDS = (*range(13), 202)


def _expr_classes():
    # the package's nodes: a test may subclass them in its own module
    found, todo = set(), [expr.Expr]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__ == expr.__name__:
                found.add(sub)
            todo.append(sub)
    return found


def test_interpreter_covers_every_node():
    # a new node must get its mpmath meaning before a side can use it
    assert {cls.__name__ for cls in _expr_classes()} == set(MP_NODES)


def test_every_side_lies_within_tol_of_the_reference():
    # the reference is the rhs where mpmath evaluates it quickly, else the
    # lhs; the points repeat across seeds, so each is evaluated once
    refs, worst = {}, {}
    for seed in SEEDS:
        registry = build_registry(seed)
        for ident in registry.values():
            for chk in verify(ident, registry=registry).checks:
                key = (ident.id, repr(sorted(chk.params.items())))
                if key not in refs:
                    ref = mp_side(ident.rhs, chk.params)
                    if ref is None:
                        ref = mp_side(ident.lhs, chk.params)
                    assert ref is not None, key
                    refs[key] = complex(ref)
                ref = refs[key]
                scale = ident.tol * max(1.0, abs(ref))
                for side, value in (("lhs", chk.lhs), ("rhs", chk.rhs)):
                    ratio = abs(value - ref) / scale
                    assert ratio <= 1.0, (seed, ident.id, chk.params, side,
                                          value, ref)
                    worst[ident.id] = max(worst.get(ident.id, 0.0), ratio)
    print("worst err/tol per identity:")
    for ident_id, ratio in sorted(worst.items(), key=lambda kv: -kv[1]):
        print(f"  {ident_id:<12} {ratio:.3g}")
    assert len(worst) == len(build_registry(SEEDS[0]))
